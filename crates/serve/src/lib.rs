//! # strassen-serve
//!
//! DGEFMM as a service: an in-process serving layer that exposes the
//! paper's drop-in DGEMM replacement to many concurrent clients.
//!
//! The SC '96 paper positions DGEFMM as a production library routine;
//! this crate supplies the production *traffic* story on top of the
//! workspace's own primitives — no external runtime:
//!
//! - **Shape bucketing** ([`bucket`]): requests coalesce into
//!   square / skinny / odd-prime classes × power-of-two size bins, the
//!   unit of batching, affinity and per-bucket statistics.
//! - **Batched dispatch** ([`server`]): each dispatch cycle runs as one
//!   task DAG on the global work-stealing pool, with per-bucket
//!   in-flight caps expressed as dependency edges and stable worker
//!   affinity per bucket (warm thread-local pack buffers and workspace
//!   arenas).
//! - **Admission control**: a bounded queue with typed load-shedding
//!   ([`RejectReason`]) and a blocking backpressure path.
//! - **One plan**: every request runs the library's tuned DGEFMM
//!   configuration, `StrassenConfig::dgefmm()`, as the paper ships one
//!   drop-in routine with one tuned policy.
//! - **Machine profile** ([`profile`]): the cache, blocking and kernel
//!   facts a serving run is recorded under.
//!
//! Determinism is the load-bearing property: every request runs the same
//! plan, and batches share no mutable floating-point state, so per-request results are bitwise identical across worker
//! counts, batch compositions, and runs (`tests/serve_determinism.rs`).
//!
//! ```
//! use matrix::random;
//! use serve::{Request, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! let a = random::uniform::<f64>(32, 17, 1);
//! let b = random::uniform::<f64>(17, 48, 2);
//! let ticket = server.submit(Request::new(a, b)).expect("admitted");
//! let done = ticket.wait();
//! assert_eq!((done.c.nrows(), done.c.ncols()), (32, 48));
//! assert_eq!(done.bucket.to_string(), "odd/64"); // k = 17 is odd
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod bucket;
pub mod profile;
pub mod server;

pub use bucket::{BucketKey, ShapeClass};
pub use profile::MachineProfile;
pub use server::{Completed, RejectReason, Rejected, Request, Server, ServerConfig, ServerStats, Ticket};
