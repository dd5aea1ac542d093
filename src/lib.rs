//! # strassen-repro
//!
//! A Rust reproduction of Huss-Lederman, Jacobson, Johnson, Tsao &
//! Turnbull, *Implementation of Strassen's Algorithm for Matrix
//! Multiplication* (SC '96) — the PRISM **DGEFMM** paper.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`matrix`] — column-major storage and BLAS-style views;
//! * [`blas`] — the from-scratch BLAS subset (levels 1–3);
//! * [`strassen`] — DGEFMM itself: Winograd-variant Strassen with the
//!   STRASSEN1/STRASSEN2 low-memory schedules, dynamic peeling, and the
//!   parameterized hybrid cutoff criterion;
//! * [`opcount`] — Section 2's operation-count and memory models;
//! * [`eigen`] — the ISDA symmetric eigensolver application;
//! * [`serve`] — DGEFMM as a service: the shape-bucketed batched
//!   serving layer with admission control and a persistent autotune
//!   cache (see the README's "Serving" quickstart).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ```
//! use matrix::random;
//! use strassen::multiply;
//!
//! let a = random::uniform::<f64>(64, 64, 1);
//! let b = random::uniform::<f64>(64, 64, 2);
//! let c = multiply(&a, &b); // DGEFMM at the library's measured cutoff
//! assert_eq!(c.nrows(), 64);
//! ```

pub use blas;
pub use eigen;
pub use matrix;
pub use opcount;
pub use serve;
pub use strassen;
