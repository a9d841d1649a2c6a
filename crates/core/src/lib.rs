//! # vr-cg
//!
//! The core algorithms of the reproduction of Van Rosendale,
//! *Minimizing Inner Product Data Dependencies in Conjugate Gradient
//! Iteration* (NASA CR-172178 / ICASE 83-36, 1983).
//!
//! ## The paper in one paragraph
//!
//! Standard CG serializes two `log N`-deep inner-product fan-ins per
//! iteration, so on a machine with ≥ N processors an iteration costs
//! `Θ(log N)`. The paper restructures the algorithm algebraically: the
//! scalars `(r⁽ⁿ⁾,r⁽ⁿ⁾)` and `(p⁽ⁿ⁾,Ap⁽ⁿ⁾)` are expressed as linear
//! combinations (relation (*)) of inner products of *iteration n−k*
//! vectors, whose fan-ins therefore have k iterations of slack. With
//! `k = log N`, only the `log k = log log N`-deep combination of the (*)
//! terms remains on the critical path, giving per-iteration parallel time
//! `max(log d, log log N)`.
//!
//! ## Solvers
//!
//! | module | algorithm | paper section |
//! |---|---|---|
//! | [`standard`] | Hestenes-Stiefel CG | §2 |
//! | [`overlap_k1`] | one-step overlapped CG | §3 |
//! | [`lookahead`] | general look-ahead CG (moment window) | §4-5 |
//! | [`baselines::chronopoulos_gear`] | Chronopoulos-Gear CG | later literature |
//! | [`baselines::pipelined`] | Ghysels-Vanroose pipelined CG | later literature |
//! | [`baselines::three_term`] | three-term recurrence CG | Concus-Golub-O'Leary |
//! | [`baselines::precond`] | preconditioned CG | §1 (mentions preconditioning) |
//! | [`sstep`] | s-step / communication-avoiding CG (monomial, Newton, Chebyshev bases) | the paper's descendants |
//! | [`block`] | block CG for multiple right-hand sides | O'Leary 1980, contemporary |
//! | [`pipelined_deep`] | depth-l pipelined CG | Cornelis-Cools-Vanroose 2018 |
//! | [`predict_recompute`] | predict-and-recompute CG (plain and pipelined) | Chen-Carson 2019 |
//!
//! [`registry`] holds the canonical list of all registered variants; test
//! suites and the stability shoot-out derive their sweeps from it.
//!
//! ## One execution choice per solve
//!
//! How a solve runs its recurrence's vector work and reductions is one
//! value, [`SolveOptions::execution`] (an [`Execution`]): `Reference`
//! two-pass kernels, `Fused` single-pass kernels (the default),
//! `WholeIteration` sweep epochs ([`sweep`]), or `Mixed` `f32` storage
//! behind an `f64` guard ([`mixed`]). Every variant runs `Reference` and
//! `Fused`, bit-identically; [`CgVariant::supports`] says which of the
//! other two it has, and an unsupported value ends the solve with
//! [`Termination::Unsupported`] after no iterations.
//!
//! All solvers implement [`CgVariant`] and are *numerically equivalent to
//! CG in exact arithmetic* — the integration tests verify iterate-level
//! agreement, and [`recurrence::symbolic`] machine-derives the (*)
//! coefficients the 1983 paper deferred to a never-published follow-up.
//!
//! ```
//! use vr_cg::{standard::StandardCg, CgVariant, SolveOptions};
//! use vr_linalg::gen;
//!
//! let a = gen::poisson2d(16);
//! let b = gen::poisson2d_rhs(16);
//! let res = StandardCg::new().solve(&a, &b, None, &SolveOptions::default());
//! assert!(res.converged);
//! assert!(res.final_residual < 1e-8 * vr_linalg::kernels::norm2(&b));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod block;
mod driver;
mod exec;
pub mod instrument;
pub mod lookahead;
pub mod mixed;
pub mod overlap_k1;
pub mod pipelined_deep;
pub mod predict_recompute;
pub mod recurrence;
pub mod registry;
pub mod resilience;
pub mod solver;
pub mod sstep;
pub mod standard;
pub mod sweep;

pub use instrument::{OpCounts, RecoveryStats};
pub use solver::{CgVariant, Execution, ProgressHook, SolveOptions, SolveResult, Termination};
