//! DGEFMM — a drop-in Strassen replacement for the Level 3 BLAS `GEMM`.
//!
//! This crate is the primary contribution of Huss-Lederman, Jacobson,
//! Johnson, Tsao & Turnbull, *Implementation of Strassen's Algorithm for
//! Matrix Multiplication* (SC '96), reproduced in Rust:
//!
//! * [`dgefmm`] computes `C ← α op(A) op(B) + β C` with the **Winograd
//!   variant** of Strassen's algorithm (7 multiplies / 15 adds per level);
//! * two low-memory schedules — **STRASSEN1** (β = 0, `2m²/3` extra) and
//!   **STRASSEN2** (general β, `m²` extra, the minimum possible) — chosen
//!   automatically per call, exactly as the paper's routine does;
//! * **dynamic peeling** handles odd dimensions with `GER`/`GEMV` fixups
//!   and zero extra memory (dynamic/static padding are provided for
//!   comparison);
//! * the recursion stops below a configurable **cutoff criterion**,
//!   including the paper's new parameterized hybrid criterion (eq. 15)
//!   whose parameters [`tuning`] measures empirically per machine;
//! * [`comparators`] re-implements the codes the paper benchmarks
//!   against (IBM `DGEMMS`, CRAY `SGEMMS`, Douglas et al. `DGEMMW`).
//!
//! # Quickstart
//!
//! ```
//! use strassen::{dgefmm, StrassenConfig};
//! use blas::Op;
//! use matrix::{random, Matrix};
//!
//! let cfg = StrassenConfig::with_square_cutoff(32);
//! let a = random::uniform::<f64>(100, 80, 1);
//! let b = random::uniform::<f64>(80, 120, 2);
//! let mut c = Matrix::zeros(100, 120);
//! dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
//! ```

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments, clippy::manual_is_multiple_of, clippy::needless_range_loop)]

pub mod backend;
pub mod comparators;
pub mod config;
pub mod counts;
pub mod cutoff;
mod dispatch;
mod pad;
mod peel;
pub mod probe;
mod schedules;
pub mod trace;
pub mod tuning;
pub mod workspace;

pub use backend::{GemmBackend, MatMul, StrassenBackend, TimingBackend};
pub use config::{Family, OddHandling, Scheme, StrassenConfig, Variant};
pub use cutoff::{CutoffCriterion, StopReason};
pub use dispatch::{
    criterion_tau, dgefmm, dgefmm_with_workspace, multiply, planned_depth, workspace_elements,
};
pub use probe::{NoopProbe, Phase, Probe, Profile, TimedProbe, Trace, TraceProbe};
pub use workspace::{
    required_workspace, resolve_scheme, tls_arena_capacity_elements, total_temp_elements, ResolvedScheme,
    Workspace, WorkspaceArena,
};

#[cfg(test)]
mod tests;
