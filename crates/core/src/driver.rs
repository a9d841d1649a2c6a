//! The iteration driver: the loop protocol every solve loop shares,
//! written once.
//!
//! Van Rosendale's restructurings — like the later pipelined and
//! predict-and-recompute variants — differ from standard CG only in *when*
//! each iteration's inner products are computed. Everything around the
//! recurrence is one protocol, and it lives here:
//!
//! 1. **Dispatch** ([`twin`]): under `SweepPolicy::WholeIteration` a variant
//!    runs its declared whole-iteration sweep twin, under
//!    `Precision::Mixed` its declared mixed-precision twin ([`Twins`]); a
//!    variant without the twin, or a configuration the twin cannot
//!    reproduce, gets the one explicit [`reject`].
//! 2. **Set-up** ([`Driver::start`]): attach the tracer, form
//!    `r = b − A·x0` (tallying the warm-start matvec), the squared
//!    convergence threshold, a drain of stale checksum detections, and the
//!    policy-gated checkpoint ring.
//! 3. **Loop top** ([`Driver::top`]): the iteration mark, the progress
//!    callback and cancellation poll, then the checkpoint save of the
//!    variant's declared [`Checkpoint`] state. Loops with the plain CG
//!    shape hand the whole loop to [`Driver::iterate`] and keep only a
//!    step that reports a [`Step`].
//! 4. **Rollback** ([`Driver::rollback`]): restore the declared vectors and
//!    scalars from the newest snapshot, return the residual history to
//!    where it stood at the snapshot, and count the rollback.
//! 5. **Recording** ([`Driver::record`]): the per-iteration residual norm.
//!    The driver tracks the history's length and last norm
//!    ([`HistoryMark`]) even when `record_residuals` is off, so an
//!    unrecorded solve ends on exactly the norm a recorded one would.
//! 6. **Exit** ([`Driver::finish`]): `RecoveredConverged` after a rollback,
//!    the residual-guard and checksum folds, the final-norm rule (the
//!    history always ends with at least one norm — the last one recorded),
//!    and the [`SolveResult`].
//!
//! A variant keeps only its recurrence: it declares its twins and its
//! checkpoint state once and calls these hooks where its loop needs them.

use crate::instrument::{OpCounts, RecoveryStats};
use crate::resilience::checkpoint::{CheckpointRing, HistoryMark};
use crate::resilience::guard::ResidualGuard;
use crate::solver::{Precision, SolveOptions, SolveResult, SweepPolicy, Termination};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vr_linalg::{kernels, LinearOperator};
use vr_par::Team;

/// The protocol's tracing and service hooks. They are private to this
/// module, so no loop can mark, poll, or attach on its own.
impl SolveOptions {
    /// Attach the tracer (if any) to the calling thread as shard 0 — and to
    /// the solve's worker team, so every worker records its barrier-epoch
    /// busy window on its own shard — for the duration of the returned
    /// guard, so the TLS-instrumented layers (team epochs, reduction
    /// fan-ins, deferred waits) record alongside the solver-level spans.
    /// Size the tracer with [`vr_obs::Tracer::for_width`] to match
    /// [`SolveOptions::threads`]; out-of-range shards are silently dropped
    /// by the tracer, so a shard-0-only tracer simply skips the worker-side
    /// detail.
    fn trace_attach(&self) -> Option<TraceGuard> {
        self.tracer.as_ref().map(|tr| {
            let team = self.team();
            if let Some(t) = &team {
                t.set_tracer(Some(Arc::clone(tr)));
            }
            TraceGuard {
                // SAFETY: the tracer Arc lives in `self` for the whole solve
                // and the guard is held by the solve's `Driver`, which
                // borrows `self` — so the guard cannot outlive the tracer,
                // and it is dropped (not leaked) on every exit path. The
                // solve thread is shard 0 by convention.
                _tls: unsafe { vr_obs::tls::attach(tr, 0) },
                team,
            }
        })
    }

    /// Record an iteration-boundary marker (shard 0); the critical-path
    /// aggregator buckets spans into the windows between consecutive
    /// marks.
    #[inline]
    fn iter_mark(&self) {
        if let Some(tr) = self.tracer.as_deref() {
            tr.mark(0, vr_obs::SpanKind::IterMark);
        }
    }

    /// Service hook with the *squared* recursive residual norm the loop's
    /// convergence test is about to compare. Streams progress (as
    /// [`norm`]`(rr_sq)` — exactly how loops derive recorded norms from
    /// their squared recurrences) and polls the cancellation flag; returns
    /// `true` when the solve should stop with [`Termination::Cancelled`]
    /// instead of starting the iteration. The unattached path is two
    /// `None` branches — no atomics, no arithmetic.
    #[inline]
    fn service_poll(&self, iter: usize, rr_sq: f64) -> bool {
        if let Some(p) = &self.progress {
            p.call(iter, norm(rr_sq));
        }
        match &self.cancel {
            None => false,
            Some(flag) => flag.load(Ordering::Relaxed),
        }
    }
}

/// Guard returned by [`SolveOptions::trace_attach`]: detaches the calling
/// thread's shard-0 tracer and clears the worker team's tracer slot when
/// dropped, so spans from a later (possibly untraced) solve on the shared
/// team never leak into this solve's recorder.
struct TraceGuard {
    _tls: vr_obs::tls::AttachGuard,
    team: Option<Arc<Team>>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(t) = &self.team {
            t.set_tracer(None);
        }
    }
}

/// A twin loop of variant `V`: the same recurrence under another storage
/// or schedule (see [`Twins`]).
pub(crate) type Twin<V> =
    fn(&V, &dyn LinearOperator, &[f64], Option<&[f64]>, &SolveOptions) -> SolveResult;

/// A variant's declared twins. `CgVariant::mixed_eligible` and
/// `CgVariant::sweep_eligible` read the same declaration [`twin`]
/// dispatches on.
pub(crate) struct Twins<V> {
    /// The `f32`-storage loop run under `Precision::Mixed`.
    pub mixed: Option<Twin<V>>,
    /// The one-pass-per-iteration loop run under
    /// `SweepPolicy::WholeIteration`.
    pub sweep: Option<Twin<V>>,
}

impl<V> Twins<V> {
    /// No twins: mixed and sweep requests are rejected.
    pub const NONE: Self = Twins {
        mixed: None,
        sweep: None,
    };
}

/// The mixed/sweep dispatch at the top of every `solve`: `Some` when the
/// options select a twin (its result, or the explicit rejection), `None`
/// when the variant's own `f64` per-kernel loop should run.
#[must_use]
pub(crate) fn twin<V>(
    v: &V,
    twins: &Twins<V>,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> Option<SolveResult> {
    let run = if opts.sweep_policy == SweepPolicy::WholeIteration {
        twins.sweep.filter(|_| crate::sweep::eligible(a, opts))
    } else if opts.precision == Precision::Mixed {
        twins.mixed.filter(|_| crate::mixed::supported(a))
    } else {
        return None;
    };
    Some(match run {
        Some(f) => f(v, a, b, x0, opts),
        None => reject(a, b, x0, opts),
    })
}

/// Explicit rejection of a configuration the variant has no loop for: no
/// iterations, the starting point handed back unchanged with its honest
/// initial residual, and [`Termination::Unsupported`] — an explicit error
/// beats a silent fallback whose numbers the caller would misattribute.
#[must_use]
pub(crate) fn reject(
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);
    let rr = kernels::dot(opts.dot_mode, &r, &r);
    drv.counts.dots += 1;
    drv.record(rr);
    drv.finish(x, Termination::Unsupported, 0)
}

/// The residual norm of a squared recurrence value, as every loop records
/// it (a negative square — breakdown in flight — reads as 0, not NaN).
#[inline]
#[must_use]
pub(crate) fn norm(rr_sq: f64) -> f64 {
    rr_sq.max(0.0).sqrt()
}

/// Callback through which a [`Checkpoint`] hands out its state.
pub(crate) type Visit<'v> = &'v mut dyn FnMut(&mut [&mut [f64]], &mut [&mut f64]);

/// A variant's checkpointed loop state, declared once: the vectors and
/// recurrence scalars a snapshot copies and a rollback restores, in a
/// fixed order (DESIGN §13 lists each variant's choice).
pub(crate) trait Checkpoint {
    /// Hand the state to `f` as `(vectors, scalars)`. The default declares
    /// nothing: no snapshot is taken, so a failed guard ends the solve.
    fn state(&mut self, f: Visit<'_>) {
        let _ = f;
    }
}

/// What one iteration reports to [`Driver::iterate`].
pub(crate) enum Step {
    /// The iteration completed; go on to the next.
    Next,
    /// The iteration was not taken — the loop repaired its state — so run
    /// it again from the loop top.
    Retry,
    /// End the solve with this termination after this many iterations.
    End(Termination, usize),
    /// A guard failed after this many iterations: roll back to the newest
    /// checkpoint and resume there, or end with this termination.
    Fail(Termination, usize),
}

impl Step {
    /// The verdict at the end of iteration `it` on its squared residual
    /// `rr_sq`: converged at the threshold, failed when non-finite, else
    /// next.
    #[must_use]
    pub fn after(it: usize, rr_sq: f64, thresh_sq: f64) -> Step {
        if rr_sq <= thresh_sq {
            Step::End(Termination::Converged, it + 1)
        } else if rr_sq.is_finite() {
            Step::Next
        } else {
            Step::breakdown(it + 1)
        }
    }

    /// A failed guard after `n` iterations that ends in
    /// [`Termination::Breakdown`] when no rollback rescues it.
    #[must_use]
    pub fn breakdown(n: usize) -> Step {
        Step::Fail(Termination::Breakdown, n)
    }

    /// Whether the loop goes on to the next iteration.
    #[must_use]
    pub fn is_next(&self) -> bool {
        matches!(self, Step::Next)
    }
}

/// The per-solve protocol state: tallies, residual history, threshold,
/// checkpoint ring, residual guard, and the tracer attachment.
pub(crate) struct Driver<'a> {
    opts: &'a SolveOptions,
    /// Operation tallies.
    pub counts: OpCounts,
    /// Recovery counters.
    pub rstats: RecoveryStats,
    /// Residual-norm history (index 0 = initial), when recording.
    pub norms: Vec<f64>,
    /// Length and last norm of the history, recorded or not.
    mark: HistoryMark,
    /// Convergence threshold on the squared residual norm.
    pub thresh_sq: f64,
    /// In-loop true-residual monitor (see [`Driver::watch`]); its tallies
    /// fold into the result at [`Driver::finish`].
    pub guard: Option<ResidualGuard<'a>>,
    ring: Option<CheckpointRing>,
    _trace: Option<TraceGuard>,
}

impl<'a> Driver<'a> {
    /// Protocol state without a residual: the tracer attachment and the
    /// stale-checksum drain (block CG, which forms its own residual block).
    pub fn attach(opts: &'a SolveOptions) -> Self {
        let trace = opts.trace_attach();
        let _ = opts.drain_checksum_detections();
        Driver {
            opts,
            counts: OpCounts::default(),
            rstats: RecoveryStats::default(),
            norms: Vec::new(),
            mark: HistoryMark::default(),
            thresh_sq: f64::MIN_POSITIVE,
            guard: None,
            ring: opts.recovery.as_ref().and_then(CheckpointRing::from_policy),
            _trace: trace,
        }
    }

    /// Set-up for a single right-hand side: [`Driver::attach`], then
    /// `r = b − A·x0` (one matvec and one vector op tallied for a warm
    /// start) and the threshold `(tol·‖b‖)²`. Returns `(driver, x, r)`.
    pub fn start(
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &'a SolveOptions,
    ) -> (Self, Vec<f64>, Vec<f64>) {
        let mut drv = Driver::attach(opts);
        let (x, r, bnorm) = init_residual(a, b, x0);
        if x0.is_some() {
            drv.counts.matvecs += 1;
            drv.counts.vector_ops += 1;
        }
        drv.thresh_sq = threshold_sq(opts, bnorm);
        (drv, x, r)
    }

    /// Attach the policy-gated [`ResidualGuard`] (periodic true-residual
    /// checks, residual replacement, convergence confirmation) from the
    /// initial squared residual `rr0`.
    pub fn watch(&mut self, a: &'a dyn LinearOperator, b: &'a [f64], rr0: f64) {
        self.guard = self
            .opts
            .recovery
            .as_ref()
            .map(|policy| ResidualGuard::new(a, b, policy.clone(), rr0));
    }

    /// Loop top without a checkpoint: the iteration mark, then the
    /// progress callback with `rr_sq` and the cancellation poll. `true`
    /// means stop with [`Termination::Cancelled`] before iteration `it`.
    #[must_use]
    pub fn poll(&self, it: usize, rr_sq: f64) -> bool {
        self.opts.iter_mark();
        self.opts.service_poll(it, rr_sq)
    }

    /// The loop top: [`Driver::poll`], then (unless cancelled) the
    /// checkpoint save of `st` at iteration `it` ([`Driver::save`]).
    #[must_use]
    pub fn top(&mut self, it: usize, rr_sq: f64, st: &mut dyn Checkpoint) -> bool {
        if self.poll(it, rr_sq) {
            return true;
        }
        self.save(it, st);
        false
    }

    /// Snapshot `st` as the state at iteration `it` if a checkpoint is due
    /// there, remembering where the residual history stands.
    pub fn save(&mut self, it: usize, st: &mut dyn Checkpoint) {
        let opts = self.opts;
        let history = self.mark;
        if let Some(ring) = self.ring.as_mut().filter(|ring| ring.due(it)) {
            st.state(&mut |v, s| ring.save(opts, it, history, v, s));
        }
    }

    /// Restore `st` from the newest snapshot, return the residual history
    /// to where it stood then, and count the rollback. Returns the
    /// iteration to resume from; `None` when checkpointing is off or the
    /// rollback budget is spent (the failure then stands).
    pub fn rollback(&mut self, st: &mut dyn Checkpoint) -> Option<usize> {
        let opts = self.opts;
        let ring = self.ring.as_mut()?;
        let mut restored = None;
        st.state(&mut |v, s| restored = ring.rollback(opts, v, s));
        let (iter, history) = restored?;
        self.norms.truncate(history.len);
        self.mark = history;
        self.rstats.rollbacks += 1;
        Some(iter)
    }

    /// The loop itself, for loops with the plain CG shape: converged at
    /// once when `progress(st)` — the squared residual the convergence
    /// test compares — meets the threshold; else, for each iteration
    /// `it < max_iters`, the loop top ([`Driver::top`] with
    /// `progress(st)`) and then `step`, rolling back on [`Step::Fail`].
    /// Returns `(termination, iterations)`.
    pub fn iterate<S: Checkpoint>(
        &mut self,
        st: &mut S,
        progress: impl Fn(&S) -> f64,
        mut step: impl FnMut(&mut Self, &mut S, usize) -> Step,
    ) -> (Termination, usize) {
        if progress(st) <= self.thresh_sq {
            return (Termination::Converged, 0);
        }
        let mut it = 0;
        while it < self.opts.max_iters {
            if self.top(it, progress(st), st) {
                return (Termination::Cancelled, it);
            }
            match step(self, st, it) {
                Step::Next => it += 1,
                Step::Retry => {}
                Step::End(t, n) => return (t, n),
                Step::Fail(t, n) => match self.rollback(st) {
                    Some(c) => it = c,
                    None => return (t, n),
                },
            }
        }
        (Termination::MaxIterations, it)
    }

    /// Record the residual norm of the squared value `rr_sq`.
    pub fn record(&mut self, rr_sq: f64) {
        self.record_norm(norm(rr_sq));
    }

    /// Record a residual norm.
    pub fn record_norm(&mut self, v: f64) {
        self.mark = HistoryMark {
            len: self.mark.len + 1,
            last: v,
        };
        if self.opts.record_residuals {
            self.norms.push(v);
        }
    }

    /// Replace the last recorded norm (the recursive value) with a
    /// validated one for the same iterate; a no-op on an empty history.
    pub fn replace_last(&mut self, v: f64) {
        if self.mark.len > 0 {
            self.mark.last = v;
        }
        if let Some(last) = self.norms.last_mut() {
            *last = v;
        }
    }

    /// How many norms the history holds (counted even when they are not
    /// recorded).
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.mark.len
    }

    /// The exit: [`Termination::RecoveredConverged`] when a rollback
    /// preceded convergence, the residual-guard and checksum folds, and
    /// the final-norm rule — an unrecorded history ends with the norm a
    /// recorded one would end with, so `final_residual` never depends on
    /// `record_residuals`.
    #[must_use]
    pub fn finish(
        mut self,
        x: Vec<f64>,
        mut termination: Termination,
        iterations: usize,
    ) -> SolveResult {
        if termination == Termination::Converged && self.rstats.rollbacks > 0 {
            termination = Termination::RecoveredConverged;
        }
        if let Some(g) = self.guard.take() {
            self.rstats.faults_detected += g.stats.faults_detected;
            self.rstats.replacements += g.stats.replacements;
            self.counts.matvecs += g.extra_matvecs;
            self.counts.dots += g.extra_matvecs;
            self.counts.vector_ops += g.extra_matvecs;
        }
        // ABFT verdicts from checksum-guarded split-phase reductions
        self.rstats.faults_detected += self.opts.drain_checksum_detections();
        debug_assert!(self.mark.len > 0, "every loop records its initial norm");
        if self.norms.is_empty() {
            self.norms.push(self.mark.last);
        }
        result(
            x,
            termination,
            iterations,
            self.norms,
            self.counts,
            self.rstats,
        )
    }
}

/// Initial residual `r = b − A·x0` and starting point. Returns
/// `(x, r, ‖b‖)`.
fn init_residual(
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
) -> (Vec<f64>, Vec<f64>, f64) {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length != operator dim");
    let bnorm = kernels::norm2(b);
    match x0 {
        None => (vec![0.0; n], b.to_vec(), bnorm),
        Some(x0) => {
            assert_eq!(x0.len(), n, "x0 length != operator dim");
            // r ← A·x0, then r ← b − r in place: same bits as the
            // two-buffer `sub(b, ax, r)`, one allocation fewer.
            let mut r = vec![0.0; n];
            a.apply(x0, &mut r);
            for (ri, bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            (x0.to_vec(), r, bnorm)
        }
    }
}

/// Convergence threshold on the *squared* residual norm. Floored at the
/// smallest positive normal so a zero rhs still terminates.
fn threshold_sq(opts: &SolveOptions, bnorm: f64) -> f64 {
    let t = opts.tol * bnorm;
    (t * t).max(f64::MIN_POSITIVE)
}

/// Assemble a [`SolveResult`] — the one construction site, shared by
/// [`Driver::finish`] and the recovery ladder's multi-attempt exit.
#[must_use]
pub(crate) fn result(
    x: Vec<f64>,
    termination: Termination,
    iterations: usize,
    norms: Vec<f64>,
    counts: OpCounts,
    recovery: RecoveryStats,
) -> SolveResult {
    let mut res = SolveResult::new(x, termination, iterations, norms, counts);
    res.recovery = recovery;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::RecoveryPolicy;
    use vr_linalg::gen;

    /// A checkpoint state of any shape, for exercising the ring.
    struct Snap {
        vecs: Vec<Vec<f64>>,
        scalars: Vec<f64>,
    }

    impl Checkpoint for Snap {
        fn state(&mut self, f: Visit<'_>) {
            let mut v: Vec<&mut [f64]> = self.vecs.iter_mut().map(Vec::as_mut_slice).collect();
            let mut s: Vec<&mut f64> = self.scalars.iter_mut().collect();
            f(&mut v, &mut s);
        }
    }

    fn snap(vecs: &[&[f64]], scalars: &[f64]) -> Snap {
        Snap {
            vecs: vecs.iter().map(|v| v.to_vec()).collect(),
            scalars: scalars.to_vec(),
        }
    }

    fn ring_opts(period: usize, max_rollbacks: usize) -> SolveOptions {
        SolveOptions::default().with_recovery(
            RecoveryPolicy::default()
                .with_checkpoint_period(period)
                .with_max_rollbacks(max_rollbacks),
        )
    }

    #[test]
    fn save_and_rollback_round_trip() {
        let o = ring_opts(5, 4);
        let mut drv = Driver::attach(&o);
        let saved = snap(
            &[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]],
            &[0.25, 0.5],
        );
        drv.save(
            0,
            &mut snap(&[&saved.vecs[0], &saved.vecs[1]], &saved.scalars),
        );
        // not due at 3: state unchanged
        let mut st = snap(&[&[9.0; 4], &[9.0; 4]], &[9.0, 9.0]);
        drv.save(3, &mut st);
        assert_eq!(drv.rollback(&mut st), Some(0), "one valid snapshot");
        assert_eq!(st.vecs, saved.vecs);
        assert_eq!(st.scalars, saved.scalars);
        assert_eq!(drv.rstats.rollbacks, 1);
    }

    #[test]
    fn rollback_consumes_newest_then_falls_to_older() {
        let o = ring_opts(5, 4);
        let mut drv = Driver::attach(&o);
        drv.save(0, &mut snap(&[&[1.0, 1.0]], &[1.0]));
        drv.save(5, &mut snap(&[&[2.0, 2.0]], &[2.0]));
        let mut st = snap(&[&[0.0; 2]], &[0.0]);
        assert_eq!(drv.rollback(&mut st), Some(5));
        assert_eq!(st.scalars, [2.0]);
        // newest consumed: second rollback reaches the older snapshot
        assert_eq!(drv.rollback(&mut st), Some(0));
        assert_eq!(st.scalars, [1.0]);
        // ring empty now
        assert_eq!(drv.rollback(&mut st), None);
    }

    #[test]
    fn rollback_budget_is_enforced() {
        let o = ring_opts(5, 1);
        let mut drv = Driver::attach(&o);
        drv.save(0, &mut snap(&[&[1.0, 1.0]], &[]));
        drv.save(5, &mut snap(&[&[2.0, 2.0]], &[]));
        let mut st = snap(&[&[0.0; 2]], &[]);
        assert!(drv.rollback(&mut st).is_some());
        // budget of 1 spent: older snapshot still valid but unreachable
        assert!(drv.rollback(&mut st).is_none());
    }

    #[test]
    fn replay_resaves_into_consumed_slot() {
        let o = ring_opts(5, 8);
        let mut drv = Driver::attach(&o);
        drv.save(0, &mut snap(&[&[1.0, 1.0]], &[1.0]));
        drv.save(5, &mut snap(&[&[2.0, 2.0]], &[2.0]));
        let mut st = snap(&[&[0.0; 2]], &[0.0]);
        // corruption at iter 7 → roll back to 5, replay, re-save at 5
        assert_eq!(drv.rollback(&mut st), Some(5));
        drv.save(5, &mut st);
        // both snapshots valid again: newest is the re-saved iter 5
        assert_eq!(drv.rollback(&mut st), Some(5));
        assert_eq!(drv.rollback(&mut st), Some(0));
    }

    #[test]
    fn service_poll_streams_progress_and_polls_cancel() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        // unattached: free and never cancels
        let o = SolveOptions::default();
        assert!(!o.service_poll(0, 4.0));

        let seen: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let flag = Arc::new(AtomicBool::new(false));
        let o = SolveOptions::default()
            .with_cancel_flag(Arc::clone(&flag))
            .with_progress(move |it, res| seen2.lock().unwrap().push((it, res)));
        assert!(!o.service_poll(0, 4.0));
        flag.store(true, Ordering::Relaxed);
        assert!(o.service_poll(1, 1.0), "set flag must cancel");
        // progress streamed the sqrt of the squared residual, both times
        assert_eq!(*seen.lock().unwrap(), vec![(0, 2.0), (1, 1.0)]);
        // a negative squared residual (breakdown in flight) streams 0, not NaN
        let _ = o.service_poll(2, -1.0);
        assert_eq!(seen.lock().unwrap().last(), Some(&(2, 0.0)));
    }

    #[test]
    fn rollback_restores_declared_state_and_truncates_history() {
        let a = gen::poisson1d(4);
        let b = vec![1.0; 4];
        let opts = SolveOptions::default()
            .with_recovery(RecoveryPolicy::default().with_checkpoint_period(2));
        let (mut drv, _, _) = Driver::start(&a, &b, None, &opts);
        let mut st = snap(&[&[1.0, 2.0]], &[0.5]);
        drv.record(4.0);
        assert!(!drv.top(0, 4.0, &mut st)); // due: saved with history 1
        drv.record(1.0);
        st.vecs[0][0] = f64::NAN;
        st.scalars[0] = -1.0;
        assert!(!drv.top(1, 1.0, &mut st)); // not due
        drv.record(0.25);
        assert_eq!(drv.rollback(&mut st), Some(0));
        assert_eq!(st.vecs, vec![vec![1.0, 2.0]]);
        assert_eq!(st.scalars, vec![0.5]);
        assert_eq!(drv.norms, vec![2.0]);
        assert_eq!(drv.rstats.rollbacks, 1);
        // the consumed snapshot is gone
        assert_eq!(drv.rollback(&mut st), None);
    }

    #[test]
    fn unrecorded_history_ends_on_the_norm_a_recorded_one_would() {
        let a = gen::poisson1d(4);
        let b = vec![1.0; 4];
        // (rolled back before finishing?, expected final norm)
        for (roll, want) in [(false, 0.75), (true, 2.0)] {
            for record in [true, false] {
                let opts = SolveOptions {
                    record_residuals: record,
                    ..SolveOptions::default()
                        .with_recovery(RecoveryPolicy::default().with_checkpoint_period(2))
                };
                let (mut drv, x, _) = Driver::start(&a, &b, None, &opts);
                let mut st = snap(&[&[1.0]], &[]);
                drv.record(4.0);
                assert!(!drv.top(0, 4.0, &mut st)); // saved at history [2]
                drv.record(1.0);
                drv.replace_last(0.75);
                if roll {
                    assert_eq!(drv.rollback(&mut st), Some(0));
                }
                let res = drv.finish(x, Termination::MaxIterations, 1);
                let ctx = format!("record={record} roll={roll}");
                assert_eq!(res.final_residual, want, "{ctx}");
                let len = if record { 2 - usize::from(roll) } else { 1 };
                assert_eq!(res.residual_norms.len(), len, "{ctx}");
            }
        }
    }

    #[test]
    fn init_residual_zero_start_copies_b() {
        let a = gen::poisson1d(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let (x, r, bn) = init_residual(&a, &b, None);
        assert_eq!(x, vec![0.0; 4]);
        assert_eq!(r, b);
        assert!((bn - (30.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn init_residual_nonzero_start() {
        let a = gen::poisson1d(3);
        let x0 = vec![1.0, 1.0, 1.0];
        let b = vec![1.0, 0.0, 1.0];
        // A*x0 = [1, 0, 1] → r = 0
        let (_, r, _) = init_residual(&a, &b, Some(&x0));
        assert_eq!(r, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn threshold_handles_zero_rhs() {
        let o = SolveOptions::default();
        let t = threshold_sq(&o, 0.0);
        assert!(t > 0.0); // no divide-by-zero convergence trap
    }
}
