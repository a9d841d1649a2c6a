//! Common solver API shared by all CG variants.

use crate::instrument::{OpCounts, RecoveryStats};
use crate::resilience::recovery::RecoveryPolicy;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vr_linalg::kernels::{self, DotMode};
use vr_linalg::{fused, LinearOperator};
use vr_par::fault::{FaultInjector, FaultSite};
use vr_par::team::{self, Team};
use vr_par::{reduce, PendingScalar};

/// How one solve executes its recurrence's vector work and reductions.
///
/// Every value runs the same recurrence; they differ in how its kernels
/// and reductions are grouped and in the storage of the working vectors:
///
/// * `Reference` and `Fused` run the variant's own loop, one kernel per
///   operation. They compute *bit-identical* scalar sequences for a given
///   `(dot_mode, team width, injector)` configuration — the fused kernels
///   in [`vr_linalg::fused`] preserve the exact association order of their
///   two-pass compositions — and differ only in memory traffic: `Fused`
///   streams each vector through memory once where `Reference` makes
///   separate passes for the update and the reduction.
/// * `WholeIteration` runs the variant's step as whole-iteration sweep
///   epochs ([`crate::sweep`]), bit-identical to `Fused` for an eligible
///   configuration.
/// * `Mixed` runs the variant's `f32`-storage twin ([`crate::mixed`]).
///
/// A variant answers [`CgVariant::supports`] for each value; a value it
/// does not support, or a configuration the value cannot reproduce,
/// terminates with [`Termination::Unsupported`] after no iterations —
/// rejecting explicitly beats silently falling back and reporting numbers
/// the caller would misattribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Textbook composition: separate axpy/xpay passes followed by separate
    /// inner products. The formulation all op-count claims are stated in.
    Reference,
    /// Single-pass fused kernels (update + reduction in one sweep); on
    /// operators that support it, matvec+dot without materializing `A·p`.
    #[default]
    Fused,
    /// One cache-resident pass per CG epoch: matvec staging, the dot
    /// reductions, and the vector updates of an epoch run as one pass over
    /// chunk slices (the [`vr_linalg::sweep::FusedIterationSweep`] engine),
    /// so each vector element is loaded from DRAM once per epoch instead of
    /// once per kernel. It replays the fused kernels' arithmetic, so it
    /// requires `DotMode::Tree`, no fault injector, no recovery policy, no
    /// reduction checksum, and a sweepable operator
    /// ([`LinearOperator::as_sweep`]).
    WholeIteration {
        /// Staging-tile size in *elements* per staged sub-range; `None`
        /// uses the L1-derived heuristic from the [`vr_par::cache`] probe.
        /// Numerically inert — any tile size produces identical bits — so
        /// it exists for cache experiments and the differential tests'
        /// degenerate (1-element / whole-domain) coverage.
        tile: Option<usize>,
    },
    /// `f32` working vectors (`x`, `r`, `p`, and the variant's
    /// auxiliaries) — halving the bytes every sweep streams — while *all*
    /// safety-critical arithmetic stays in `f64`: reduction accumulation
    /// (the `f32` leaf kernels widen every product before summing), the
    /// scalar recurrences, periodic true-residual recomputation, residual
    /// replacement, and convergence confirmation. A mixed solve never
    /// reports convergence from the `f32` recurrence alone (see
    /// [`crate::mixed`]). Requires an operator with a native `f32` path
    /// ([`LinearOperator::apply_f32`]).
    Mixed,
}

/// Per-iteration progress callback: `(iteration, residual_norm)`.
///
/// Invoked by the iteration driver at the top of every
/// iteration of every variant, with the *recursive* residual norm the
/// variant is tracking (the square root of the same squared quantity its
/// convergence test compares — for variants that push per-iteration
/// entries into [`SolveResult::residual_norms`], the streamed value is
/// bit-identical to the recorded one). The callback runs on the solve
/// thread, so it must be cheap and must not block on the solve itself;
/// the solve daemon uses it to stream convergence events to clients.
#[derive(Clone)]
pub struct ProgressHook(Arc<dyn Fn(usize, f64) + Send + Sync>);

impl ProgressHook {
    /// Wrap a callback.
    pub fn new(f: impl Fn(usize, f64) + Send + Sync + 'static) -> Self {
        ProgressHook(Arc::new(f))
    }

    /// Invoke the callback.
    #[inline]
    pub fn call(&self, iter: usize, residual: f64) {
        (self.0)(iter, residual);
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// The host's available parallelism (1 if it cannot be determined).
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Options controlling a solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Relative residual tolerance: converge when
    /// `‖r‖₂ ≤ tol · ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Summation order for inner products.
    pub dot_mode: DotMode,
    /// Record the (recursive) residual norm at every iteration.
    pub record_residuals: bool,
    /// Fault injector threaded through the reduction path and scalar
    /// recurrences (None = fault-free). See [`crate::resilience::fault`].
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Breakdown-recovery policy (None = classic behavior: fail on the
    /// first suspicious scalar). See [`crate::resilience::recovery`].
    pub recovery: Option<RecoveryPolicy>,
    /// How the recurrence's kernels and reductions execute (see
    /// [`Execution`]).
    pub execution: Execution,
    /// Persistent worker team for vector kernels and reductions. `None`
    /// (the default) keeps everything on the calling thread; a team of
    /// width `>= 2` runs matvecs, vector updates and `DotMode::Tree`
    /// reductions on its long-lived workers (see [`vr_par::team`]), so
    /// solver hot loops never spawn threads. Attached by
    /// [`SolveOptions::with_threads`] (the process-shared team of that
    /// width) or [`SolveOptions::with_team`]; its width is
    /// [`SolveOptions::threads`]. Width never changes result bits:
    /// elementwise kernels and row-partitioned matvecs are exact, and
    /// `Tree` reductions use a fixed 256-leaf chunk layout at *every*
    /// width, including 1. `Serial`, an order-preserving sum, keeps its
    /// reductions on the calling thread (see [`SolveOptions::dot`]).
    pub team: Option<Arc<Team>>,
    /// Duplicate-leaf checksum guard on split-phase reductions
    /// ([`SolveOptions::dot2_deferred`]): when `true` under
    /// `DotMode::Tree`, every deferred dot computes its fixed-layout leaf
    /// partials twice and the consume point compares the copies bit-for-bit
    /// (see [`PendingScalar::checked_deferred`]), so injected corruption is
    /// detected — and where possible repaired — in the *same* iteration
    /// window instead of smearing forward through the recurrences. Costs
    /// one extra leaf sweep per guarded reduction; fault-free checked
    /// solves stay bit-identical to unchecked ones.
    pub checksum: bool,
    /// Corrupted-leaf detections from checksum-guarded reductions, counted
    /// at their consume points. Variants drain this into
    /// [`RecoveryStats::faults_detected`] (see
    /// [`SolveOptions::drain_checksum_detections`]).
    pub checksum_detected: Arc<AtomicU64>,
    /// Explicit matrix-powers tile size (rows/planes per tile for
    /// stencils, matrix rows for CSR) handed to every
    /// [`LinearOperator::matrix_powers`] call (s-step bases, look-ahead
    /// start-up, overlap-k1's `A·p`/`A²·p` pair). `None` uses the
    /// operator's L2 working-set heuristic. Numerically inert: every tile
    /// size produces identical bits. Operators without a tiled kernel
    /// (the trait default, [`vr_linalg::mpk::naive_powers`]) ignore it.
    pub mpk_tile: Option<usize>,
    /// Span tracer for critical-path profiling (None = untraced). When
    /// attached, solver helpers record [`vr_obs`] spans on shard 0 and the
    /// team/kernel layers add worker-side detail. Tracing never changes
    /// result bits — every instrumented call runs the exact same kernel
    /// sequence — and the untraced path is a single branch per helper.
    pub tracer: Option<Arc<vr_obs::Tracer>>,
    /// Cooperative cancellation flag (None = uncancellable). Checked at
    /// every iteration boundary by the iteration driver: when
    /// the flag is observed `true`, the variant stops *before* starting
    /// the iteration and returns [`Termination::Cancelled`] with the
    /// honest partial state (iterate, residual history, op counts) it had
    /// accumulated. Checking never changes result bits of uncancelled
    /// solves — it is a relaxed atomic load per iteration.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Per-iteration progress callback (None = silent). See
    /// [`ProgressHook`].
    pub progress: Option<ProgressHook>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-10,
            max_iters: 10_000,
            dot_mode: DotMode::Serial,
            record_residuals: true,
            injector: None,
            recovery: None,
            execution: Execution::default(),
            team: None,
            checksum: false,
            checksum_detected: Arc::new(AtomicU64::new(0)),
            mpk_tile: None,
            tracer: None,
            cancel: None,
            progress: None,
        }
    }
}

impl SolveOptions {
    /// Set the tolerance.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the iteration cap.
    #[must_use]
    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    /// Set the summation order.
    #[must_use]
    pub fn with_dot_mode(mut self, mode: DotMode) -> Self {
        self.dot_mode = mode;
        self
    }

    /// Attach a fault injector to the reduction path.
    #[must_use]
    pub fn with_injector(mut self, inj: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(inj);
        self
    }

    /// Attach a breakdown-recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Set how the solve executes (see [`Execution`]).
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Override the matrix-powers tile size (see [`SolveOptions::mpk_tile`]).
    #[must_use]
    pub fn with_mpk_tile(mut self, tile: Option<usize>) -> Self {
        self.mpk_tile = tile;
        self
    }

    /// Attach a span tracer (size it with [`vr_obs::Tracer::for_width`] to
    /// match [`SolveOptions::threads`] if worker-side detail is wanted).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<vr_obs::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a cooperative cancellation flag (see
    /// [`SolveOptions::cancel`]).
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Attach a per-iteration progress callback (see [`ProgressHook`]).
    #[must_use]
    pub fn with_progress(mut self, f: impl Fn(usize, f64) + Send + Sync + 'static) -> Self {
        self.progress = Some(ProgressHook::new(f));
        self
    }

    /// Run `f` under a shard-0 span of `kind` when traced; just run it
    /// when not. The untraced cost is this one branch.
    #[inline]
    pub(crate) fn span<R>(&self, kind: vr_obs::SpanKind, f: impl FnOnce() -> R) -> R {
        self.span_bytes(kind, 0, f)
    }

    /// [`SolveOptions::span`] carrying a logical-traffic byte tally: the
    /// vector elements the wrapped sweep accesses × their element width,
    /// read-modify-write streams counted twice (see
    /// [`vr_obs::Span::bytes`]). Untraced, `bytes` is dropped unevaluated
    /// work-free — callers pass a precomputed product, never a closure.
    #[inline]
    pub(crate) fn span_bytes<R>(
        &self,
        kind: vr_obs::SpanKind,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        match self.tracer.as_deref() {
            None => f(),
            Some(tr) => {
                let start = tr.now_ns();
                let out = f();
                tr.record_since_bytes(0, kind, start, bytes);
                out
            }
        }
    }

    /// Set the worker-thread count for kernels and reductions.
    ///
    /// The request is clamped to the host's available parallelism — a team
    /// wider than the machine only adds context-switch latency to every
    /// barrier epoch — and [`SolveOptions::threads`] reports the width
    /// granted. (Values are width-invariant, so clamping never changes
    /// result bits.) Callers that genuinely want an oversubscribed or
    /// fault-injected team attach one explicitly with
    /// [`SolveOptions::with_team`].
    ///
    /// For an effective width `>= 2` this attaches the process-shared
    /// persistent [`Team`] *now*, so the solve itself never spawns — hot
    /// loops step the long-lived workers through barrier-synchronized
    /// epochs instead.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        let granted = threads.max(1).min(host_cpus());
        self.team = (granted >= 2).then(|| team::shared_team(granted));
        self
    }

    /// Attach an explicit [`Team`] (no host-parallelism clamp — the caller
    /// owns the width choice). Used by failover experiments that need a
    /// team they can kill workers of, and by tests pinning multi-shard
    /// behavior on small hosts.
    #[must_use]
    pub fn with_team(mut self, team: Arc<Team>) -> Self {
        self.team = Some(team);
        self
    }

    /// Enable / disable the duplicate-leaf reduction checksum (see
    /// [`SolveOptions::checksum`]).
    #[must_use]
    pub fn with_reduction_checksum(mut self, on: bool) -> Self {
        self.checksum = on;
        self
    }

    /// Drain the checksum detection counter (returns the count since the
    /// last drain). Variants call this once at solve start (discarding
    /// leftovers from an aborted earlier consumer of a cloned option set)
    /// and once at solve end, folding the result into
    /// [`RecoveryStats::faults_detected`].
    #[must_use]
    pub fn drain_checksum_detections(&self) -> u64 {
        self.checksum_detected.swap(0, Ordering::Relaxed)
    }

    /// Worker width of this solve: the attached team's width, or 1 when
    /// none is attached.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.team.as_ref().map_or(1, |t| t.width())
    }

    /// The persistent team handle for this solve (`None` ⇒ single-threaded).
    ///
    /// The handle attached by [`SolveOptions::with_threads`] /
    /// [`SolveOptions::with_team`] — *unless it is poisoned*: a poisoned
    /// handle is never returned (the solve that poisoned it already
    /// surfaced its breakdown; later consumers must not inherit the dying
    /// team, which used to be a race when two solves observed the poison
    /// concurrently), and the process-shared team of the same width
    /// stands in for it. A *degraded* team (lost workers, failover active)
    /// is still returned: mid-solve worker loss keeps the solve on the
    /// surviving members, bit-identically.
    #[must_use]
    pub fn team(&self) -> Option<Arc<Team>> {
        match &self.team {
            Some(t) if !t.is_poisoned() => Some(Arc::clone(t)),
            Some(t) if t.width() >= 2 => Some(team::shared_team(t.width())),
            _ => None,
        }
    }

    /// Inner product through this solve's fault and threading path: the
    /// one path every inner product of a solver's recurrence takes (the
    /// fused helpers below are its single-sweep forms), so each one runs
    /// on the solve's team, records its `DotWait` span, and meets the
    /// injector.
    ///
    /// * **Injector attached** — the deterministic 256-leaf chunk tree with
    ///   per-partial and final-value corruption
    ///   ([`reduce::par_dot_with_in`]); bits are independent of the team
    ///   width because the partial layout is fixed by the chunk count, not
    ///   the thread count.
    /// * **`DotMode::Tree`** — the same fixed-layout chunk tree at *every*
    ///   width, including 1, so `Tree` solves are bit-identical for any
    ///   team size. It is the only `Tree` order in the workspace.
    /// * **`DotMode::Serial`** — an order-preserving left-to-right sum
    ///   that no partitioned reduction can reproduce bit-exactly, so it
    ///   stays on the calling thread even when a team is attached (the
    ///   team still parallelizes matvecs and elementwise updates, which
    ///   are exact per element). Requesting threads must never silently
    ///   change the summation order the user asked for.
    #[must_use]
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        // The caller consumes the scalar immediately, so the whole call —
        // leaf sweep plus fan-in — is dependency-gated (`DotWait`).
        self.span_bytes(
            vr_obs::SpanKind::DotWait,
            16 * x.len() as u64,
            || match &self.injector {
                Some(inj) => reduce::par_dot_with_in(self.team().as_deref(), x, y, inj.as_ref()),
                None => self.clean_dot(x, y),
            },
        )
    }

    /// [`SolveOptions::dot`] without the injector and the span: `dot_mode`'s
    /// order on the solve's team.
    fn clean_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        match self.dot_mode {
            DotMode::Tree => reduce::par_dot_in(self.team().as_deref(), x, y),
            DotMode::Serial => kernels::dot_serial(x, y),
        }
    }

    /// The true residual `r ← b − A·x` and its squared norm `‖r‖²`: the
    /// one reduction every check of a claim against the truth takes (the
    /// driver's certification ladder and exit measurement, the residual
    /// guard and the mixed twins' `f64` confirmation). It runs
    /// on the solve's team and in its `dot_mode` order but never through
    /// the injector, so a validation measures the iterate the recurrence
    /// produced rather than a fresh fault. Untallied and unspanned: each
    /// caller accounts for it in its own terms.
    pub(crate) fn true_rr_into(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) -> f64 {
        a.apply_team(self.team().as_deref(), x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        self.clean_dot(r, r)
    }

    /// Pass a scalar-recurrence result through this solve's fault path.
    #[must_use]
    pub fn scalar(&self, v: f64) -> f64 {
        if let Some(tr) = self.tracer.as_deref() {
            tr.mark(0, vr_obs::SpanKind::ScalarOp);
        }
        match &self.injector {
            None => v,
            Some(inj) => inj.corrupt(FaultSite::ScalarRecurrence, v),
        }
    }

    /// Whether this configuration executes fused kernels (every value
    /// but `Reference`; the mixed twins and the sweep engine do not call
    /// these helpers for the work they fuse themselves).
    fn fuse(&self) -> bool {
        self.execution != Execution::Reference
    }

    /// Fused `y ← A·x` + `(x, y)`, tallying one matvec and one dot
    /// (reference-equivalent logical counts, regardless of policy).
    ///
    /// The matvec itself always runs team-parallel when a team is attached
    /// (row partitions are exact). The dot follows [`SolveOptions::dot`]'s
    /// decision table; single-pass fusion (`apply_dot`, counted in
    /// `fused_ops`) additionally requires the fault-free `Serial` path on
    /// the calling thread, since an operator's fused sweep sums in row
    /// order there.
    #[must_use]
    pub fn matvec_dot(
        &self,
        a: &dyn LinearOperator,
        x: &[f64],
        y: &mut [f64],
        counts: &mut OpCounts,
    ) -> f64 {
        counts.matvecs += 1;
        counts.dots += 1;
        // Byte tallies cover the *vector* streams only (x read, y write =
        // 16n; the ride-along dot re-reads both = +16n) — operator-internal
        // data (CSR values/indices, stencil coefficients) is not counted,
        // matching `SolveOptions::matvec`.
        let mv_bytes = 16 * x.len() as u64;
        let t = self.team();
        if self.injector.is_some() {
            self.span_bytes(vr_obs::SpanKind::Matvec, mv_bytes, || {
                a.apply_team(t.as_deref(), x, y)
            });
            return self.dot(x, y);
        }
        match self.dot_mode {
            // Tree: matvec + fixed-layout chunk-tree dot at every width,
            // as two calls so the matvec sweep and the eager,
            // dependency-gated dot are attributed separately.
            DotMode::Tree => {
                let t = t.as_deref();
                self.span_bytes(vr_obs::SpanKind::Matvec, mv_bytes, || a.apply_team(t, x, y));
                self.span_bytes(vr_obs::SpanKind::DotWait, mv_bytes, || {
                    reduce::par_dot_in(t, x, y)
                })
            }
            DotMode::Serial => {
                if t.is_none() && self.fuse() {
                    counts.fused_ops += 1;
                    // Single fused sweep: the dot rides the matvec's memory
                    // traffic, so the whole pass is attributed as matvec.
                    self.span_bytes(vr_obs::SpanKind::Matvec, mv_bytes, || a.apply_dot(x, y))
                } else {
                    self.span_bytes(vr_obs::SpanKind::Matvec, mv_bytes, || {
                        a.apply_team(t.as_deref(), x, y)
                    });
                    self.span_bytes(vr_obs::SpanKind::DotWait, mv_bytes, || self.clean_dot(x, y))
                }
            }
        }
    }

    /// Fused CG update `x ← x + λp`, `r ← r − λw`, returning `(r, r)`;
    /// tallies two vector ops and one dot.
    #[must_use]
    pub fn update_xr(
        &self,
        lambda: f64,
        p: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        counts: &mut OpCounts,
    ) -> f64 {
        counts.vector_ops += 2;
        counts.dots += 1;
        // p, w read; x, r read-modify-write → 6 streams of f64.
        let up_bytes = 48 * p.len() as u64;
        let t = self.team();
        let t = t.as_deref();
        if !self.fuse() {
            self.span_bytes(vr_obs::SpanKind::VectorOp, up_bytes, || {
                team::par_axpy_in(t, lambda, p, x);
                team::par_axpy_in(t, -lambda, w, r);
            });
            return self.dot(r, r);
        }
        counts.fused_ops += 1;
        // One fused sweep: the update is the useful work and the folded dot
        // partials ride along, so the pass is `VectorOp`; only the fan-in
        // inside the kernel (recorded as `DotFanIn` at the combine choke
        // point) is dependency-gated.
        self.span_bytes(vr_obs::SpanKind::VectorOp, up_bytes, || {
            match &self.injector {
                Some(inj) => fused::par_update_xr_with_in(t, lambda, p, w, x, r, inj.as_ref()),
                None => match self.dot_mode {
                    DotMode::Tree => fused::par_update_xr_in(t, lambda, p, w, x, r),
                    DotMode::Serial => fused::update_xr(lambda, p, w, x, r),
                },
            }
        })
    }

    /// Fused `y ← y + a·x` + `(y, z)`; tallies one vector op and one dot.
    #[must_use]
    pub fn axpy_dot(
        &self,
        a: f64,
        x: &[f64],
        y: &mut [f64],
        z: &[f64],
        counts: &mut OpCounts,
    ) -> f64 {
        counts.vector_ops += 1;
        counts.dots += 1;
        // x read, y read-modify-write, z read by the folded dot → 4 streams.
        let op_bytes = 32 * x.len() as u64;
        let t = self.team();
        let t = t.as_deref();
        if !self.fuse() {
            self.span_bytes(vr_obs::SpanKind::VectorOp, 24 * x.len() as u64, || {
                team::par_axpy_in(t, a, x, y)
            });
            return self.dot(y, z);
        }
        counts.fused_ops += 1;
        self.span_bytes(vr_obs::SpanKind::VectorOp, op_bytes, || {
            match &self.injector {
                Some(inj) => fused::par_axpy_dot_with_in(t, a, x, y, z, inj.as_ref()),
                None => match self.dot_mode {
                    DotMode::Tree => fused::par_axpy_dot_in(t, a, x, y, z),
                    DotMode::Serial => fused::axpy_dot(a, x, y, z),
                },
            }
        })
    }

    /// Fused `y ← y + a·x` + `(y, y)`; tallies one vector op and one dot.
    #[must_use]
    pub fn axpy_norm2_sq(&self, a: f64, x: &[f64], y: &mut [f64], counts: &mut OpCounts) -> f64 {
        counts.vector_ops += 1;
        counts.dots += 1;
        // x read, y read-modify-write (the norm rides the update) → 3 streams.
        let op_bytes = 24 * x.len() as u64;
        let t = self.team();
        let t = t.as_deref();
        if !self.fuse() {
            self.span_bytes(vr_obs::SpanKind::VectorOp, op_bytes, || {
                team::par_axpy_in(t, a, x, y)
            });
            return self.dot(y, y);
        }
        counts.fused_ops += 1;
        self.span_bytes(vr_obs::SpanKind::VectorOp, op_bytes, || {
            match &self.injector {
                Some(inj) => fused::par_axpy_norm2_sq_with_in(t, a, x, y, inj.as_ref()),
                None => match self.dot_mode {
                    DotMode::Tree => fused::par_axpy_norm2_sq_in(t, a, x, y),
                    DotMode::Serial => fused::axpy_norm2_sq(a, x, y),
                },
            }
        })
    }

    /// Two inner products sharing the left vector, `((x,y), (x,z))`, in one
    /// sweep under `Fused`; tallies two dots.
    #[must_use]
    pub fn dot2(&self, x: &[f64], y: &[f64], z: &[f64], counts: &mut OpCounts) -> (f64, f64) {
        counts.dots += 2;
        if !self.fuse() {
            return (self.dot(x, y), self.dot(x, z));
        }
        counts.fused_ops += 1;
        let t = self.team();
        let t = t.as_deref();
        // Eager pair: the sweep produces only dot partials and the caller
        // consumes both scalars immediately — the whole call is gated.
        // x, y, z each read once in the shared sweep → 3 streams.
        self.span_bytes(
            vr_obs::SpanKind::DotWait,
            24 * x.len() as u64,
            || match &self.injector {
                Some(inj) => fused::par_dot2_with_in(t, x, y, z, inj.as_ref()),
                None => match self.dot_mode {
                    DotMode::Tree => fused::par_dot2_in(t, x, y, z),
                    DotMode::Serial => fused::dot2(x, y, z),
                },
            },
        )
    }

    /// Split-phase variant of [`SolveOptions::dot2`]: *launch* both
    /// reductions now, *consume* them later.
    ///
    /// Under `DotMode::Tree` without an injector the team folds the
    /// fixed-layout leaf partials during the sweep epoch and the handles
    /// defer the `tree_combine` fan-in to their consume point
    /// ([`PendingScalar::wait`]), so the combine overlaps whatever vector
    /// work the caller schedules in between — the paper's overlap of
    /// summation with iteration work, realized on a real team. The
    /// resolved values are bit-identical to [`SolveOptions::dot2`] for the
    /// same configuration. `DotMode::Serial` and injected-fault runs
    /// evaluate eagerly (the fault contract fixes the corruption-event
    /// order at launch time), returning ready handles.
    #[must_use]
    pub fn dot2_deferred(
        &self,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        counts: &mut OpCounts,
    ) -> (PendingScalar, PendingScalar) {
        if self.dot_mode != DotMode::Tree || (self.injector.is_some() && !self.checksum) {
            let (dy, dz) = self.dot2(x, y, z, counts);
            return (PendingScalar::ready(dy), PendingScalar::ready(dz));
        }
        if self.checksum {
            return self.dot2_checked_deferred(x, y, z, counts);
        }
        counts.dots += 2;
        let t = self.team();
        let t = t.as_deref();
        // Launch-only: the leaf sweeps fold partials but nothing consumes a
        // scalar here, so this is overlappable work (`DotLaunch`); only the
        // `PendingScalar::wait` consume points are gated (`DeferredWait`).
        if self.fuse() {
            counts.fused_ops += 1;
            // Shared sweep: x, y, z read once → 3 streams.
            let folded = self.span_bytes(vr_obs::SpanKind::DotLaunch, 24 * x.len() as u64, || {
                fused::par_dot2_partials_in(t, x, y, z)
            });
            match folded {
                Ok((py, pz)) => (PendingScalar::deferred(py), PendingScalar::deferred(pz)),
                Err(_) => (
                    PendingScalar::ready(f64::NAN),
                    PendingScalar::ready(f64::NAN),
                ),
            }
        } else {
            // Two separate sweeps, each reading two vectors → 4 streams.
            let (py, pz) =
                self.span_bytes(vr_obs::SpanKind::DotLaunch, 32 * x.len() as u64, || {
                    (
                        reduce::par_dot_partials_in(t, x, y),
                        reduce::par_dot_partials_in(t, x, z),
                    )
                });
            match (py, pz) {
                (Ok(py), Ok(pz)) => (PendingScalar::deferred(py), PendingScalar::deferred(pz)),
                _ => (
                    PendingScalar::ready(f64::NAN),
                    PendingScalar::ready(f64::NAN),
                ),
            }
        }
    }

    /// Split-phase single inner product `(x, y)`: *launch* the reduction
    /// now, *consume* it later.
    ///
    /// The one-reduction sibling of [`SolveOptions::dot2_deferred`], for
    /// schedules that keep an odd number of dots in flight (the depth-l
    /// pipeline launches `l + 1` Gram-column dots per iteration). Same
    /// decision table: `DotMode::Tree` defers the fan-in to the consume
    /// point (checksum-guarded when enabled), `DotMode::Serial` and
    /// injected-fault runs evaluate eagerly and return a ready handle.
    /// Resolved values are bit-identical to [`SolveOptions::dot`].
    #[must_use]
    pub fn dot_deferred(&self, x: &[f64], y: &[f64], counts: &mut OpCounts) -> PendingScalar {
        if self.dot_mode != DotMode::Tree || (self.injector.is_some() && !self.checksum) {
            counts.dots += 1;
            return PendingScalar::ready(self.dot(x, y));
        }
        counts.dots += 1;
        let t = self.team();
        let t = t.as_deref();
        if self.checksum {
            // Duplicate sweeps for the checksum: 2 × (x, y read).
            let launched =
                self.span_bytes(vr_obs::SpanKind::DotLaunch, 32 * x.len() as u64, || {
                    (
                        reduce::par_dot_partials_in(t, x, y),
                        reduce::par_dot_partials_in(t, x, y),
                    )
                });
            let (Ok(mut pa), Ok(mut pb)) = launched else {
                return PendingScalar::ready(f64::NAN);
            };
            if let Some(inj) = &self.injector {
                // Fixed serial corruption order (copy A then copy B),
                // matching the dot2 checked path's width-independent
                // fault determinism.
                for p in pa.iter_mut().chain(pb.iter_mut()) {
                    *p = inj.corrupt(FaultSite::DotPartial, *p);
                }
            }
            return PendingScalar::checked_deferred(pa, pb, Arc::clone(&self.checksum_detected));
        }
        let folded = self.span_bytes(vr_obs::SpanKind::DotLaunch, 16 * x.len() as u64, || {
            reduce::par_dot_partials_in(t, x, y)
        });
        match folded {
            Ok(p) => PendingScalar::deferred(p),
            Err(_) => PendingScalar::ready(f64::NAN),
        }
    }

    /// Checksum-guarded launch half of [`SolveOptions::dot2_deferred`]:
    /// each reduction's fixed-layout leaf partials are computed *twice*
    /// (independent sweeps of the same deterministic schedule), both copies
    /// pass through the fault injector as separate `DotPartial` event
    /// streams in a fixed program order, and the consume point verifies
    /// them against each other. This genuinely defers the fan-in even with
    /// an injector attached — the corruption surface moves to launch time,
    /// preserving the width-independent fault determinism contract.
    fn dot2_checked_deferred(
        &self,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        counts: &mut OpCounts,
    ) -> (PendingScalar, PendingScalar) {
        counts.dots += 2;
        let t = self.team();
        let t = t.as_deref();
        // Four sweeps (two per dot for the checksum), two reads each.
        let launched = self.span_bytes(vr_obs::SpanKind::DotLaunch, 64 * x.len() as u64, || {
            let ya = reduce::par_dot_partials_in(t, x, y);
            let za = reduce::par_dot_partials_in(t, x, z);
            let yb = reduce::par_dot_partials_in(t, x, y);
            let zb = reduce::par_dot_partials_in(t, x, z);
            (ya, za, yb, zb)
        });
        let (Ok(mut ya), Ok(mut za), Ok(mut yb), Ok(mut zb)) = launched else {
            return (
                PendingScalar::ready(f64::NAN),
                PendingScalar::ready(f64::NAN),
            );
        };
        if let Some(inj) = &self.injector {
            // Fixed serial corruption order (copy A of both dots, then
            // copy B) so a given seed reproduces the same fault pattern at
            // any team width, like the eager path.
            for p in ya
                .iter_mut()
                .chain(za.iter_mut())
                .chain(yb.iter_mut())
                .chain(zb.iter_mut())
            {
                *p = inj.corrupt(FaultSite::DotPartial, *p);
            }
        }
        let detected = &self.checksum_detected;
        (
            PendingScalar::checked_deferred(ya, yb, Arc::clone(detected)),
            PendingScalar::checked_deferred(za, zb, Arc::clone(detected)),
        )
    }

    /// Team-parallel `y ← A·x`; tallies one matvec. The matvec has no
    /// fault surface (faults inject on reductions and scalar recurrences),
    /// and row partitions are bit-exact at any width.
    ///
    /// Byte accounting covers the vector streams only (x read, y write);
    /// operator-internal data — CSR values/indices, stencil coefficients —
    /// is excluded, keeping the tally operator-shape-independent.
    pub fn matvec(&self, a: &dyn LinearOperator, x: &[f64], y: &mut [f64], counts: &mut OpCounts) {
        counts.matvecs += 1;
        let t = self.team();
        self.span_bytes(vr_obs::SpanKind::Matvec, 16 * x.len() as u64, || {
            a.apply_team(t.as_deref(), x, y)
        });
    }

    /// Team-parallel `y ← y + a·x` (exact per element at any width);
    /// tallies one vector op.
    pub fn axpy(&self, a: f64, x: &[f64], y: &mut [f64], counts: &mut OpCounts) {
        counts.vector_ops += 1;
        let t = self.team();
        // x read, y read-modify-write → 3 streams.
        self.span_bytes(vr_obs::SpanKind::VectorOp, 24 * x.len() as u64, || {
            team::par_axpy_in(t.as_deref(), a, x, y);
        });
    }

    /// Team-parallel `y ← x + a·y` (exact per element at any width);
    /// tallies one vector op.
    pub fn xpay(&self, x: &[f64], a: f64, y: &mut [f64], counts: &mut OpCounts) {
        counts.vector_ops += 1;
        let t = self.team();
        // x read, y read-modify-write → 3 streams.
        self.span_bytes(vr_obs::SpanKind::VectorOp, 24 * x.len() as u64, || {
            team::par_xpay_in(t.as_deref(), x, a, y);
        });
    }
}

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The residual tolerance was met.
    Converged,
    /// The residual tolerance was met, but only after ≥ 1 recovery restart
    /// (see [`crate::resilience::recovery`]). Counts as converged.
    RecoveredConverged,
    /// `max_iters` was exhausted.
    MaxIterations,
    /// A scalar recurrence produced a non-finite or non-positive quantity
    /// that must be positive for an SPD system (breakdown).
    Breakdown,
    /// The solve is pinned at its attainable floor: a recovery guard saw
    /// no residual progress over the policy's stagnation window, the
    /// mixed-precision shadow guard saw none across its confirmations, or
    /// the certification ladder refuted a convergence claim and the true
    /// residual had not fallen enough since the last warm restart to try
    /// another.
    Stagnated,
    /// The true residual grew beyond the policy's divergence factor
    /// (recovery-guarded solves only).
    Diverged,
    /// The requested configuration is not supported by this variant — e.g.
    /// [`Execution::Mixed`] on a variant without a mixed-precision path, or
    /// on an operator without [`LinearOperator::apply_f32`]. The solve
    /// performed no iterations; rejecting explicitly beats silently
    /// falling back to `f64` and reporting numbers the caller would
    /// misattribute.
    Unsupported,
    /// The caller's cancellation flag ([`SolveOptions::with_cancel_flag`])
    /// was observed set at an iteration boundary. The result carries the
    /// honest partial state — iterate, residual history, op counts — as of
    /// the last completed iteration; never counts as converged, even if
    /// the residual happened to be below tolerance when the flag landed
    /// (the convergence test for that iteration never ran).
    Cancelled,
}

impl Termination {
    /// Whether this termination means the tolerance was met.
    #[must_use]
    pub fn is_converged(self) -> bool {
        matches!(
            self,
            Termination::Converged | Termination::RecoveredConverged
        )
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Why the iteration stopped.
    pub termination: Termination,
    /// Iterations performed.
    pub iterations: usize,
    /// Residual norm per iteration (index 0 = initial), if recording was
    /// enabled; always contains at least the final value. Entries are the
    /// norms the algorithm tracks (recursive for the scalar-recurrence
    /// variants), except where the true residual was measured: at a
    /// certification and at the exit, whose measurement replaces the
    /// iteration's tracked value.
    pub residual_norms: Vec<f64>,
    /// Final residual norm: the *true* residual `‖b − A·x‖` of the
    /// returned `x`, measured at the exit (injector-free, on the solve's
    /// team and summation order), or the directly formed initial residual
    /// of an [`Termination::Unsupported`] rejection.
    ///
    /// Contract: this is always `residual_norms.last()` — every variant
    /// records at least one norm, even with residual recording disabled
    /// and even for the zero-iteration case. It is NaN only when the
    /// iterate itself is not finite.
    pub final_residual: f64,
    /// Operation counts.
    pub counts: OpCounts,
    /// Recovery counters (all zero for unguarded solves).
    pub recovery: RecoveryStats,
    /// Whether the tolerance was met ([`Termination::is_converged`]).
    pub converged: bool,
}

impl SolveResult {
    /// Construct from parts, deriving `converged` and `final_residual`.
    ///
    /// # Panics
    /// Panics if `residual_norms` is empty — every variant must record at
    /// least the final residual norm (see the `final_residual` contract).
    #[must_use]
    pub fn new(
        x: Vec<f64>,
        termination: Termination,
        iterations: usize,
        residual_norms: Vec<f64>,
        counts: OpCounts,
    ) -> Self {
        let final_residual = *residual_norms
            .last()
            .expect("SolveResult: every variant must record at least one residual norm");
        SolveResult {
            x,
            converged: termination.is_converged(),
            termination,
            iterations,
            residual_norms,
            final_residual,
            counts,
            recovery: RecoveryStats::default(),
        }
    }

    /// True residual norm `‖b − A·x‖₂`, recomputed from scratch.
    #[must_use]
    pub fn true_residual(&self, a: &dyn LinearOperator, b: &[f64]) -> f64 {
        let ax = a.apply_alloc(&self.x);
        let mut r = vec![0.0; b.len()];
        vr_linalg::kernels::sub(b, &ax, &mut r);
        vr_linalg::kernels::norm2(&r)
    }
}

/// A conjugate-gradient variant: anything that can solve `A·u = b` for SPD
/// `A`. Object safe so that experiment harnesses can sweep over
/// `Vec<Box<dyn CgVariant>>`.
pub trait CgVariant {
    /// Short name for reports ("standard-cg", "lookahead-cg(k=4)", ...).
    fn name(&self) -> String;

    /// Solve `A·u = b` starting from `x0` (zero if `None`).
    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult;

    /// The next rung of the recovery ladder: a strictly more robust
    /// configuration of this variant (halved look-ahead depth / block
    /// size), or standard CG at the bottom. `None` means there is nothing
    /// more robust to fall back to — the ladder retries this variant
    /// as-is.
    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        None
    }

    /// Look-ahead depth / block size for reporting (0 = none; used for
    /// [`RecoveryStats::final_k`]).
    fn depth(&self) -> usize {
        0
    }

    /// Whether this variant has a loop for `execution`. `Reference` and
    /// `Fused` run every variant's own loop; variants with a
    /// mixed-precision twin ([`crate::mixed`]) or a step that runs as
    /// whole-iteration sweep epochs ([`crate::sweep`]) override this to
    /// accept `Mixed` or `WholeIteration`. A solve under an unsupported
    /// value terminates with [`Termination::Unsupported`] instead of
    /// silently running another execution.
    fn supports(&self, execution: Execution) -> bool {
        matches!(execution, Execution::Reference | Execution::Fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders() {
        let o = SolveOptions::default()
            .with_tol(1e-6)
            .with_max_iters(42)
            .with_dot_mode(DotMode::Tree);
        assert_eq!(o.tol, 1e-6);
        assert_eq!(o.max_iters, 42);
        assert_eq!(o.dot_mode, DotMode::Tree);
    }

    #[test]
    fn result_derives_converged_and_final() {
        let r = SolveResult::new(
            vec![0.0],
            Termination::Converged,
            3,
            vec![1.0, 0.1, 0.01],
            OpCounts::default(),
        );
        assert!(r.converged);
        assert_eq!(r.final_residual, 0.01);
        let r = SolveResult::new(
            vec![0.0],
            Termination::MaxIterations,
            3,
            vec![1.0],
            OpCounts::default(),
        );
        assert!(!r.converged);
        assert_eq!(r.final_residual, 1.0);
        // recovered convergence counts as converged
        let r = SolveResult::new(
            vec![0.0],
            Termination::RecoveredConverged,
            3,
            vec![1.0, 1e-12],
            OpCounts::default(),
        );
        assert!(r.converged);
    }

    #[test]
    #[should_panic(expected = "at least one residual norm")]
    fn result_rejects_empty_residual_history() {
        // the silent unwrap_or(NAN) is gone: an empty history is a variant
        // bug, not a representable result
        let _ = SolveResult::new(
            vec![0.0],
            Termination::MaxIterations,
            3,
            vec![],
            OpCounts::default(),
        );
    }

    #[test]
    fn termination_convergence_classification() {
        assert!(Termination::Converged.is_converged());
        assert!(Termination::RecoveredConverged.is_converged());
        for t in [
            Termination::MaxIterations,
            Termination::Breakdown,
            Termination::Stagnated,
            Termination::Diverged,
            Termination::Unsupported,
            Termination::Cancelled,
        ] {
            assert!(!t.is_converged(), "{t:?}");
        }
    }

    #[test]
    fn options_fault_path_is_identity_without_injector() {
        let o = SolveOptions::default();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(o.dot(&x, &x), 14.0);
        assert_eq!(o.scalar(2.5), 2.5);
        assert!(o.injector.is_none() && o.recovery.is_none());
    }

    #[test]
    fn execution_default_is_fused() {
        assert_eq!(SolveOptions::default().execution, Execution::Fused);
        assert_eq!(SolveOptions::default().threads(), 1);
        let o = SolveOptions::default()
            .with_execution(Execution::Reference)
            .with_threads(0);
        assert_eq!(o.execution, Execution::Reference);
        assert_eq!(o.threads(), 1, "with_threads clamps to >= 1");
    }

    #[test]
    fn fused_helpers_bit_match_reference_and_tally_identical_logical_counts() {
        let a = vr_linalg::gen::poisson2d(7);
        let n = a.dim();
        let p = vr_linalg::gen::rand_vector(n, 3);
        let w0 = a.apply_alloc(&p);
        for mode in [DotMode::Serial, DotMode::Tree] {
            for threads in [1usize, 3] {
                // An explicit team bypasses the host-cpu clamp so the
                // multi-shard arm still exercises width 3 on 1-core hosts.
                let base = if threads > 1 {
                    SolveOptions::default()
                        .with_dot_mode(mode)
                        .with_team(team::shared_team(threads))
                } else {
                    SolveOptions::default().with_dot_mode(mode).with_threads(1)
                };
                let fo = base.clone().with_execution(Execution::Fused);
                let ro = base.with_execution(Execution::Reference);
                let (mut cf, mut cr) = (OpCounts::default(), OpCounts::default());

                let mut yf = vec![0.0; n];
                let mut yr = vec![0.0; n];
                let df = fo.matvec_dot(&a, &p, &mut yf, &mut cf);
                let dr = ro.matvec_dot(&a, &p, &mut yr, &mut cr);
                assert_eq!(yf, yr, "{mode:?} t={threads}");
                assert_eq!(df.to_bits(), dr.to_bits(), "{mode:?} t={threads}");

                let (mut xf, mut rf) = (vec![0.1; n], p.clone());
                let (mut xr, mut rr) = (vec![0.1; n], p.clone());
                let uf = fo.update_xr(0.25, &p, &w0, &mut xf, &mut rf, &mut cf);
                let ur = ro.update_xr(0.25, &p, &w0, &mut xr, &mut rr, &mut cr);
                assert_eq!((xf, rf), (xr, rr), "{mode:?} t={threads}");
                assert_eq!(uf.to_bits(), ur.to_bits(), "{mode:?} t={threads}");

                let af = fo.axpy_norm2_sq(-0.5, &p, &mut yf, &mut cf);
                let ar = ro.axpy_norm2_sq(-0.5, &p, &mut yr, &mut cr);
                assert_eq!(af.to_bits(), ar.to_bits(), "{mode:?} t={threads}");

                let bf = fo.axpy_dot(0.7, &w0, &mut yf, &p, &mut cf);
                let br = ro.axpy_dot(0.7, &w0, &mut yr, &p, &mut cr);
                assert_eq!(bf.to_bits(), br.to_bits(), "{mode:?} t={threads}");

                let pf = fo.dot2(&p, &yf, &w0, &mut cf);
                let pr = ro.dot2(&p, &yr, &w0, &mut cr);
                assert_eq!(pf.0.to_bits(), pr.0.to_bits(), "{mode:?} t={threads}");
                assert_eq!(pf.1.to_bits(), pr.1.to_bits(), "{mode:?} t={threads}");

                // logical tallies are policy-independent; only fused_ops differs
                assert_eq!(cf.matvecs, cr.matvecs);
                assert_eq!(cf.dots, cr.dots);
                assert_eq!(cf.vector_ops, cr.vector_ops);
                assert_eq!(cr.fused_ops, 0);
                // matvec_dot fuses (apply_dot) only on the Serial path:
                // Tree always takes the width-invariant apply_team +
                // par_dot_in pair, and an attached team parallelizes the
                // matvec instead of fusing. The four sweep kernels
                // (update_xr, axpy_norm2_sq, axpy_dot, dot2) fuse under
                // every fault-free configuration.
                let expected_fused = if threads == 1 && mode != DotMode::Tree {
                    5
                } else {
                    4
                };
                assert_eq!(cf.fused_ops, expected_fused, "{mode:?} t={threads}");
            }
        }
    }
}
