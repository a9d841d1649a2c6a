//! Fault injection and breakdown recovery for every CG variant.
//!
//! The 1983 restructuring deliberately *weakens* the feedback loop of CG:
//! scalars that standard CG computes fresh each iteration are instead
//! carried by long recurrences with k iterations of slack. That is
//! exactly what makes the algorithm parallel — and exactly what makes it
//! fragile: a single corrupted reduction propagates through the moment
//! window for k iterations before any observable symptom. This module
//! supplies the three pieces needed to study and survive that fragility:
//!
//! * [`fault`] — deterministic seeded fault injectors implementing the
//!   [`vr_par::fault::FaultInjector`] interface: Bernoulli NaN/∞/silent
//!   perturbation/dropped-partial faults on the reduction path, plus a
//!   single-shot injector for targeted tests.
//! * [`guard`] — the shared breakdown guard all variants route their
//!   checks through, plus standard CG's in-loop [`guard::ResidualGuard`]
//!   doing periodic true-residual recomputation and residual replacement.
//! * [`checkpoint`] — the preallocated [`checkpoint::CheckpointRing`]:
//!   periodic snapshots of minimal solver state so a detected corruption
//!   rolls back ≤ C iterations instead of restarting from zero.
//! * [`recovery`] — the [`recovery::RecoveryPolicy`] knobs and the restart
//!   ladder with look-ahead-depth backoff (`k → k/2 → … → standard CG`).
//!
//! ```
//! use std::sync::Arc;
//! use vr_cg::lookahead::LookaheadCg;
//! use vr_cg::resilience::fault::{FaultKind, SeededInjector};
//! use vr_cg::resilience::recovery::{solve_with_recovery, RecoveryPolicy};
//! use vr_cg::SolveOptions;
//! use vr_linalg::gen;
//!
//! let a = gen::poisson2d(10);
//! let b = gen::poisson2d_rhs(10);
//! let opts = SolveOptions::default()
//!     .with_tol(1e-8)
//!     .with_injector(Arc::new(SeededInjector::new(7, 1e-3, FaultKind::Nan)))
//!     .with_recovery(RecoveryPolicy::default());
//! let res = solve_with_recovery(&LookaheadCg::new(2), &a, &b, None, &opts);
//! assert!(res.converged, "{:?}", res.termination);
//! ```

pub mod checkpoint;
pub mod fault;
pub mod guard;
pub mod recovery;

pub use checkpoint::CheckpointRing;
pub use fault::{FaultKind, SeededInjector, SingleFault};
pub use guard::{GuardSignal, ResidualGuard};
pub use recovery::{solve_with_recovery, Recoverable, RecoveryPolicy};
