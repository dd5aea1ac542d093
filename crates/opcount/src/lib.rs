//! Operation-count and memory models from Section 2 of
//! Huss-Lederman et al., *Implementation of Strassen's Algorithm for
//! Matrix Multiplication* (SC '96).
//!
//! This crate is pure analysis — no matrices are multiplied. It encodes:
//!
//! * [`model`] — the op-count cost model `M(m,k,n) = 2mkn − mn`,
//!   `G(m,n) = mn`, plus a weighted-cost generalization;
//! * [`recurrence`] — the cost recurrence (eq. 2) and closed forms
//!   (eqs. 3–5) for the Winograd and original variants;
//! * [`cutoff`] — the theoretical cutoff characterization (eqs. 6–8),
//!   including the square cutoff 12 and the 6×14×86 counterexample class;
//! * [`analysis`] — the headline percentages the paper quotes (12.5%,
//!   14.3%, 38.2%, …);
//! * [`memory`] — the Table-1 temporary-storage formulas;
//! * [`perf_model`] — execution-time models (after the companion report
//!   \[14\]) that explain why measured cutoffs are ~10-20x the theoretical 12.
//!
//! # Example
//!
//! ```
//! // The theoretical square cutoff is 12: standard multiplication is
//! // cheaper up to order 12, one level of Strassen wins from 13.
//! assert_eq!(opcount::cutoff::theoretical_square_cutoff(), 12);
//! ```

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments, clippy::manual_is_multiple_of, clippy::needless_range_loop)]

pub mod analysis;
pub mod cutoff;
pub mod memory;
pub mod model;
pub mod perf_model;
pub mod recurrence;
