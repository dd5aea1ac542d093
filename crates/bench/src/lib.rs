//! Experiment harness regenerating every table and figure of the SC '96
//! Strassen paper (see DESIGN.md for the experiment index).
//!
//! The `experiments` binary drives the [`experiments`] modules; machine
//! diversity is reproduced with the three kernel [`profiles`].

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments, clippy::manual_is_multiple_of, clippy::needless_range_loop)]

pub mod experiments;
pub mod profiles;
pub mod runner;
