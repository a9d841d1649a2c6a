//! # vr-par
//!
//! A small, deterministic parallel runtime built on one persistent worker
//! team, standing in for the paper's idealized N-processor machine.
//!
//! The 1983 paper reasons about summation *fan-in trees*: an inner product
//! over N elements takes `⌈log₂ N⌉` addition steps when N processors
//! cooperate. This crate makes that tree an explicit, inspectable object:
//!
//! * [`reduce`] — **deterministic** parallel reductions: the data is split
//!   into a fixed number of chunks independent of thread count, each chunk
//!   is reduced serially, and chunk results are combined by the same binary
//!   fan-in tree as `vr_linalg::kernels::tree_sum`. Results are
//!   bit-for-bit reproducible across thread counts.
//! * [`team`] — a persistent SPMD worker [`team::Team`] with
//!   barrier-stepped epochs and fixed per-worker chunk ownership; the
//!   solver hot path runs on it, so no per-iteration thread spawns remain.
//! * [`pipeline`] — [`pipeline::PendingScalar`]: a handle to a reduction
//!   that has been *launched* but not yet *consumed* (team-folded leaf
//!   partials whose fan-in runs at the consume point). This is the runtime
//!   realization of the paper's central move — start the inner products of
//!   iteration `n` at iteration `n−k`, collect them k iterations later.
//!
//! ```
//! use vr_par::{reduce, Team};
//! let x: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
//! let serial = reduce::par_dot_in(None, &x, &x);
//! let team = Team::new(2);
//! let pooled = reduce::par_dot_in(Some(&team), &x, &x);
//! assert_eq!(serial.to_bits(), pooled.to_bits()); // deterministic across widths
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod fault;
pub mod pipeline;
pub mod reduce;
pub mod simd;
pub mod team;

pub use pipeline::PendingScalar;
pub use team::{shared_team, Team};
