//! Whole-iteration sweep fusion: one cache-resident pass per CG epoch.
//!
//! Under [`Execution::WholeIteration`](crate::solver::Execution) an
//! eligible variant runs its *own* step — standard, Chronopoulos-Gear,
//! pipelined and overlap-k1 CG each write theirs once — with the step's
//! vector work grouped into a few barrier-separated team epochs on a
//! [`FusedIterationSweep`] engine instead of one kernel per operation (the
//! crate's execution handle picks the engine or the per-kernel helpers
//! once per solve). Every epoch walks the fixed 256-leaf chunk layout
//! once, staging operator rows into a cache-resident band and folding the
//! iteration's reductions in the same pass. Because each chunk is
//! processed by the identical leaf-kernel call sequence as the per-kernel
//! path (see `vr_linalg::sweep`), the produced bits — `x`, residual norms,
//! iteration counts, termination — are identical to
//! [`Execution::Fused`](crate::solver::Execution) at any staging tile,
//! SIMD lane width, and team width.
//!
//! # Epoch schedules
//!
//! Logical bytes per iteration (distinct 8-byte vector streams, rmw ×2;
//! the staging band is cache-resident and unstreamed), against the
//! per-kernel fused path:
//!
//! * standard — `(p, A·p)` without storing `A·p`; the `x`/`r` update with
//!   `A·p` recomputed in-band, carrying `(r, r)`; `p ← r + αp`: 72n vs
//!   104n;
//! * Chronopoulos-Gear — the four-way update carrying `ρ`; `w ← A·r`
//!   carrying `μ`: 88n vs 128n;
//! * pipelined — `q ← A·w`; the six-way update carrying `γ` and the next
//!   `δ`: 120n vs 168n;
//! * overlap-k1 — the four look-ahead dots fused with the `x` and `r`
//!   updates; `p ← r + αp`; `w ← A·p`; `v ← A·w`: 112n vs 176n.
//!
//! An epoch that runs work the per-kernel step defers past its
//! convergence test (the pipelined `w` update, overlap-k1's `r` axpy)
//! changes no observable bit: on every exit path the early-updated vector
//! is dead, overwritten, or unread. Its tally lands where the per-kernel
//! step runs the work.
//!
//! # Eligibility
//!
//! The sweep schedule replays the *fused tree* arithmetic, so the iteration
//! driver refuses — with [`Termination::Unsupported`], the same rejection
//! ineligible variants get — any configuration whose unfused bits it could
//! not reproduce (`eligible`):
//!
//! * `dot_mode != Tree` (the `Serial` order folds on the calling thread),
//! * fault injection, recovery policies, or checksum-guarded reductions
//!   (their retry/validation hooks interleave with the kernels),
//! * operators without a native sweep decomposition
//!   ([`LinearOperator::as_sweep`] returning `None`).
//!
//! # Operation accounting
//!
//! The sweep tallies the *logical* algorithm — the same
//! [`OpCounts`](crate::instrument::OpCounts) as the per-kernel path — even
//! though the standard-CG schedule physically evaluates the operator twice
//! per iteration (the `p·Ap` pass does not store `A·p`; the update pass
//! recomputes it in-band, trading a streamed store for cache-resident
//! flops). The physical traffic is what the per-shard
//! [`IterSweep`](vr_obs::SpanKind::IterSweep) spans record.

use crate::solver::SolveOptions;
use vr_linalg::kernels::DotMode;
use vr_linalg::sweep::FusedIterationSweep;
use vr_linalg::LinearOperator;
use vr_par::team::Team;

#[cfg(doc)]
use crate::solver::Termination;

/// Whether this (operator, options) pair can run the whole-iteration sweep
/// with bits identical to the per-kernel fused path.
pub(crate) fn eligible(a: &dyn LinearOperator, opts: &SolveOptions) -> bool {
    opts.dot_mode == DotMode::Tree
        && opts.injector.is_none()
        && opts.recovery.is_none()
        && !opts.checksum
        && a.as_sweep().is_some()
}

/// The epoch engine over `a`'s sweep decomposition, staged with the
/// `tile` of the solve's `Execution::WholeIteration` and its tracer.
pub(crate) fn engine<'a>(
    a: &'a dyn LinearOperator,
    opts: &SolveOptions,
    tile: Option<usize>,
    tm: Option<&Team>,
) -> FusedIterationSweep<'a> {
    FusedIterationSweep::new(
        a.as_sweep().expect("eligibility implies a sweep operator"),
        tm,
        tile,
        opts.tracer.clone(),
    )
}
