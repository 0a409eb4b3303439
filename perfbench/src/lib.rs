//! The repository benchmark: three seeded workloads that drive the
//! workspace's library crates through their public APIs only.
//!
//! * [`mega`] — `mega-sweep`: a seeded sample of the 10 752-cell mega
//!   grid through the batched striped sweep (sim + probe overlay + fused
//!   DAG; no I/O).
//! * [`archive`] — `grid-archive`: a seeded subset of the thesis grid
//!   recorded into a trace corpus and re-judged under two suites.
//! * [`fleet`] — `serve-fleet`: a seeded fleet of recorded elevator
//!   runs streamed through the monitor service, saturated and paced.
//!
//! Each workload has an untraced path (end-to-end metrics), a traced
//! driver that reproduces the same outputs with spans around every
//! layer call ([`trace`]), and output oracles that fail the run.

pub mod archive;
pub mod fleet;
pub mod mega;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

/// The seed later changes confirm a claim on: never used while the
/// change under test was written or tuned.
pub const HELD_OUT_SEED: u64 = 20_091_004;
