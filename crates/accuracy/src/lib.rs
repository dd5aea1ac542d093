//! Numerical-accuracy oracle, error metrics, Higham-style bounds, and a
//! differential config-space fuzzer for the Strassen reproduction.
//!
//! The paper's Section 4 discusses floating-point accuracy qualitatively;
//! Higham gives the quantitative story (the error constant grows by a
//! factor per recursion level — 12 for Strassen's 1969 construction, 18
//! for Winograd's variant), Boyer et al. (arXiv:0707.2347) show the
//! *schedule* moves the constant, and Huang & van de Geijn
//! (arXiv:1605.01078) report roughly one decimal digit lost versus
//! classic GEMM. This crate makes those claims machine-checkable:
//!
//! * [`oracle`] — a compensated reference GEMM built on error-free
//!   transformations (TwoProd/TwoSum, a Dot2-style compensated dot):
//!   correct to ~2 ulps independent of the inner dimension, hermetic
//!   like everything else in the workspace;
//! * [`metrics`] — normwise and componentwise relative error and
//!   max-ulp distance between a computed product and the oracle;
//! * [`bound`] — `theoretical_bound(m, k, n, cutoff, schedule)` encoding
//!   the classic vs Strassen vs Strassen-Winograd error-growth
//!   constants, plus the derived [`bound::tolerance_for`] the property
//!   suites use instead of hand-tuned epsilons;
//! * [`fuzz`] — a differential fuzzer over the *full* configuration
//!   space (shapes including odd/prime, α/β classes, transposes,
//!   schedules, cutoff criteria, odd-handling, `parallel_depth`, probe
//!   on/off) that runs `dgefmm` against the oracle, asserts the bound,
//!   and shrinks failures to a minimal reproducer with a replayable
//!   seed.
//!
//! This crate is a **test-only** dependency: the dependency-audit step of
//! `scripts/verify.sh` checks that no hot-path crate links it.

#![warn(missing_docs)]

pub mod bound;
pub mod fuzz;
pub mod metrics;
pub mod oracle;

pub use bound::{
    classic_tolerance, gemm_bound, schedule_slack, sum_tolerance, theoretical_bound, tolerance_for,
    BoundSchedule,
};
pub use fuzz::{draw_shape, fuzz_budget, run_differential_fuzz, BlockingClass, FuzzCase, FuzzOutcome};
pub use metrics::{compare, ErrorReport};
pub use oracle::{dot2, gemm_oracle, mul_oracle, two_prod, two_sum};
