//! Persistent SPMD worker team with barrier-stepped epochs and worker
//! failover.
//!
//! Scoped-thread helpers that spawn OS threads on *every* call would let
//! the spawn/join cost dwarf the arithmetic of a CG iteration's handful of
//! vector sweeps, so `threads >= 2` would mostly measure thread creation —
//! the opposite of the paper's premise of an always-available
//! N-processor machine.
//!
//! A [`Team`] is that machine: `width − 1` long-lived workers plus the
//! caller (who participates as shard 0). Each kernel invocation is one
//! *epoch*: the caller publishes a job with a logical shard count, live
//! workers claim shards 1.. in slot order, every member runs its shard, and
//! the epoch barrier completes when all shards finish.
//!
//! ## Determinism
//!
//! The team never influences *values*. Reductions built on it keep the
//! fixed [`crate::reduce::CHUNKS`]-leaf layout and the deterministic
//! [`crate::reduce::tree_combine`] fan-in, so results are bit-identical
//! for any team width — **and for any set of surviving workers**; the team
//! only decides which thread computes which leaves. Elementwise kernels
//! (axpy and friends) are exact per element and therefore trivially
//! width-invariant. This is what makes failover (below) safe: re-sharding
//! work onto survivors cannot change a single bit of any result.
//!
//! ## Failure model
//!
//! Two failure classes are distinguished:
//!
//! * **Mid-shard panic** (a bug, or a corrupted input tripping an assert):
//!   the team is *poisoned*. The epoch still completes (the barrier counts
//!   panicked shards as done, so [`Team::try_run`] never hangs and never
//!   lets a borrowed job outlive the call), but the epoch and every later
//!   one report [`Poisoned`]. Kernel wrappers translate that into NaN
//!   outputs, which the solver's existing pivot/residual guards convert
//!   into an honest breakdown termination. A partially-run shard may have
//!   written arbitrary prefixes of non-idempotent updates, so nothing short
//!   of discarding the epoch's outputs is sound here.
//! * **Worker loss at an epoch boundary** (a departing or dead thread that
//!   has *not yet claimed* its shard): the team *fails over*. Each worker
//!   advances two heartbeat counters per epoch — `started` when it claims
//!   its shard under the state lock, `finished` when it completes it. The
//!   caller waits on the epoch barrier with a timeout; on each timeout tick
//!   it runs a health check ([`vr_obs::SpanKind::HealthCheck`]) over the
//!   heartbeats, declares dead any assigned worker that never claimed its
//!   shard and whose OS thread has exited (or, after a straggler budget,
//!   any unclaimed worker at all), and runs the orphaned shards itself
//!   under [`vr_obs::SpanKind::Reshard`]. Because a shard is claimed under
//!   the same mutex that declares workers dead, a shard runs *exactly
//!   once* — a slow-but-alive worker declared dead observes its demotion at
//!   claim time and exits without touching the shard, so a false positive
//!   costs a worker, never correctness. Later epochs deterministically
//!   re-shard over the survivors via [`Team::live_width`].
//!
//! [`kill_worker`](Team::kill_worker) (clean departure at the next epoch
//! boundary) and [`kill_worker_silent`](Team::kill_worker_silent) (thread
//! exits with no bookkeeping, exercising the heartbeat detector) are the
//! fault-injection hooks used by the failover tests and the `e20` bench.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Dispatch grain: minimum number of elements a worker must receive before
/// parallel dispatch is worth an epoch wake-up.
///
/// Measured on the development host: one `Team` epoch (publish + wake +
/// barrier) costs on the order of a few microseconds, while a worker sweeps
/// roughly 1–2 elements/ns on streaming kernels — so below a few thousand
/// elements per worker the wake-up dominates the arithmetic. 8192 elements
/// (64 KiB of f64, one worker's L1-resident slice) keeps the crossover
/// comfortably on the profitable side for every kernel in this workspace.
/// Shared by [`crate::reduce`] and the team path so the serial/parallel
/// cutover is consistent everywhere.
pub const GRAIN: usize = 8192;

/// Default epoch-barrier timeout tick in milliseconds. Each expiry triggers
/// one heartbeat health check; real worker death (thread exited) is caught
/// on the first tick after it happens.
const DEFAULT_TICK_MS: u64 = 25;

/// Default number of timeout ticks after which an assigned worker that has
/// not claimed its shard is failed over even though its thread still
/// exists (straggler demotion). 400 × 25 ms = 10 s — far beyond any
/// scheduling delay, so false positives are effectively impossible outside
/// tests that lower it deliberately.
const DEFAULT_STRAGGLER_TICKS: u64 = 400;

/// Clamp a requested execution width to the dispatch grain: at most one
/// worker per [`GRAIN`] elements, at least 1, and exactly 1 when the caller
/// asked for no parallelism.
///
/// This controls *execution width only* — never values. Reductions keep
/// their fixed chunk layout regardless of the width chosen here.
#[must_use]
pub fn dispatch_width(n: usize, requested: usize) -> usize {
    if requested <= 1 {
        1
    } else {
        requested.min(n / GRAIN).max(1)
    }
}

/// Error: a team member panicked during this or an earlier epoch.
///
/// The team is permanently disabled; kernel wrappers surface this as NaN
/// results so solver guards terminate with an honest breakdown instead of
/// hanging or silently computing garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker team poisoned by a panicked shard")
    }
}

impl std::error::Error for Poisoned {}

/// Raw pointer to the epoch's job, lifetime-erased so it can sit in the
/// shared state while workers run it.
///
/// Safety contract: [`Team::try_run`] does not return until every shard has
/// finished (the barrier counts panicked shards), so the pointee — a
/// closure borrowed from the caller's stack — outlives every dereference.
struct JobPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for JobPtr {}

struct State {
    /// Monotonic epoch counter; workers run one job per increment.
    epoch: u64,
    job: Option<JobPtr>,
    /// Non-caller shards of the current epoch not yet finished, whether
    /// worker-assigned or awaiting caller takeover.
    remaining: usize,
    /// Shard indices published this epoch that no live worker owns; the
    /// caller drains these (publish overflow, departures, failovers).
    unclaimed: Vec<usize>,
    /// Per worker slot (worker `idx` = slot `idx − 1`): the shard assigned
    /// to it this epoch, if any.
    assign: Vec<Option<usize>>,
    /// Heartbeat: last epoch each worker *claimed* a shard in.
    started: Vec<u64>,
    /// Heartbeat: last epoch each worker *completed* a shard in.
    finished: Vec<u64>,
    /// Whether each worker is still a team member. Cleared by clean
    /// departure ([`Team::kill_worker`]) or by the caller's health check.
    live: Vec<bool>,
    poisoned: bool,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when a new epoch (or shutdown, or a kill) is published.
    start: Condvar,
    /// Signalled when the last worker shard of an epoch finishes, and on
    /// clean worker departure (so the caller picks up the orphaned shard
    /// without waiting out a timeout tick).
    done: Condvar,
    /// Serializes whole epochs across concurrent callers sharing one team.
    run_lock: Mutex<()>,
    /// Members still on the team, caller included. Lock-free mirror of
    /// `State::live` for hot-path width decisions.
    live_count: AtomicUsize,
    /// Per-worker clean-kill request flags ([`Team::kill_worker`]).
    kill: Vec<AtomicBool>,
    /// Per-worker silent-kill request flags ([`Team::kill_worker_silent`]).
    kill_silent: Vec<AtomicBool>,
    /// Epoch-barrier timeout tick, milliseconds.
    tick_ms: AtomicU64,
    /// Ticks before an unclaimed-but-running worker is demoted as a
    /// straggler.
    straggler_ticks: AtomicU64,
    /// Per-solve span recorder shared with the workers
    /// ([`Team::set_tracer`]). Workers clone the `Arc` at claim time and
    /// record their own [`vr_obs::SpanKind::TeamEpoch`] busy window on
    /// their shard's slot, so cross-shard idle time is measurable (the
    /// caller's TLS recorder only ever sees shard 0).
    tracer: Mutex<Option<Arc<vr_obs::Tracer>>>,
}

/// A persistent SPMD worker team.
///
/// `Team::new(width)` spawns `width − 1` OS threads that live until the
/// team is dropped; the caller acts as shard 0 of every epoch. See the
/// [module docs](self) for the execution, failure, and failover model.
pub struct Team {
    width: usize,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("width", &self.width)
            .field("live_width", &self.live_width())
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

impl Team {
    /// Create a team of total width `width` (caller + `width − 1` workers).
    ///
    /// `width <= 1` creates a degenerate team with no workers; every epoch
    /// runs entirely on the caller.
    #[must_use]
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let nworkers = width - 1;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                unclaimed: Vec::with_capacity(width),
                assign: vec![None; nworkers],
                started: vec![0; nworkers],
                finished: vec![0; nworkers],
                live: vec![true; nworkers],
                poisoned: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            run_lock: Mutex::new(()),
            live_count: AtomicUsize::new(width),
            kill: (0..nworkers).map(|_| AtomicBool::new(false)).collect(),
            kill_silent: (0..nworkers).map(|_| AtomicBool::new(false)).collect(),
            tick_ms: AtomicU64::new(DEFAULT_TICK_MS),
            straggler_ticks: AtomicU64::new(DEFAULT_STRAGGLER_TICKS),
            tracer: Mutex::new(None),
        });
        let workers = (1..width)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vr-team-{idx}"))
                    .spawn(move || worker_loop(&inner, idx))
                    .expect("failed to spawn team worker")
            })
            .collect();
        Team {
            width,
            inner,
            workers,
        }
    }

    /// Nominal shard capacity (caller included) the team was created with.
    /// Stays constant across worker loss; see [`Team::live_width`] for the
    /// surviving width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Members still on the team, caller included: `width()` minus workers
    /// lost to departure or failover. Kernel wrappers size their dispatch
    /// by this, so epochs after a loss deterministically re-shard over the
    /// survivors.
    #[must_use]
    pub fn live_width(&self) -> usize {
        self.inner.live_count.load(Ordering::Relaxed)
    }

    /// Whether any worker has been lost (`live_width() < width()`).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.live_width() < self.width
    }

    /// Whether a previous epoch panicked and disabled the team.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.inner.state.lock().expect("team state lock").poisoned
    }

    /// Per-worker `(started, finished)` heartbeat epoch counters, in worker
    /// index order. Both advance every epoch the worker participates in;
    /// a gap between a worker's counter and the team epoch is what the
    /// health check acts on. Exposed for tests and diagnostics.
    #[must_use]
    pub fn heartbeats(&self) -> Vec<(u64, u64)> {
        let st = self.inner.state.lock().expect("team state lock");
        st.started
            .iter()
            .zip(&st.finished)
            .map(|(&s, &f)| (s, f))
            .collect()
    }

    /// Tune the failure detector: epoch-barrier timeout tick (milliseconds,
    /// min 1) and the number of ticks before an unresponsive-but-running
    /// worker is demoted as a straggler (min 1). Intended for tests and
    /// benches that need fast, deterministic detection.
    pub fn set_health_params(&self, tick_ms: u64, straggler_ticks: u64) {
        self.inner.tick_ms.store(tick_ms.max(1), Ordering::Relaxed);
        self.inner
            .straggler_ticks
            .store(straggler_ticks.max(1), Ordering::Relaxed);
    }

    /// Attach (or with `None`, detach) a span recorder that the team's
    /// *workers* record into: each worker wraps its shard of every epoch in
    /// a [`vr_obs::SpanKind::TeamEpoch`] span on its own shard slot, so a
    /// drained trace shows per-shard busy windows — the prerequisite for
    /// measuring cross-shard idle time. The caller's shard-0 spans still
    /// come from its thread-local recorder ([`vr_obs::tls`]); this slot
    /// only adds the worker side.
    ///
    /// The tracer should be sized for the team width
    /// ([`vr_obs::Tracer::for_width`]); records to out-of-range shards are
    /// silently dropped. On a process-shared team, concurrent solves share
    /// this slot — `TeamEpoch` is an auxiliary (phase-`None`) kind, so a
    /// stray epoch from another solve never perturbs critical-path
    /// attribution.
    pub fn set_tracer(&self, tracer: Option<Arc<vr_obs::Tracer>>) {
        *self.inner.tracer.lock().expect("team tracer lock") = tracer;
    }

    /// Request a *clean* departure of worker `idx ∈ 1..width` at its next
    /// epoch boundary: the worker marks itself dead, hands any unclaimed
    /// shard back for caller takeover, and exits. Fault-injection hook for
    /// failover tests and the `e20` bench; idempotent; out-of-range `idx`
    /// is ignored.
    pub fn kill_worker(&self, idx: usize) {
        if idx >= 1 && idx < self.width {
            self.inner.kill[idx - 1].store(true, Ordering::Release);
            // wake it if idle so the departure is prompt
            self.inner.start.notify_all();
        }
    }

    /// Request a *silent* death of worker `idx ∈ 1..width`: the thread
    /// exits with no bookkeeping at its next epoch boundary, as if killed
    /// by the OS. Only the caller's heartbeat health check can discover
    /// this. Fault-injection hook; idempotent; out-of-range `idx` ignored.
    pub fn kill_worker_silent(&self, idx: usize) {
        if idx >= 1 && idx < self.width {
            self.inner.kill_silent[idx - 1].store(true, Ordering::Release);
            self.inner.start.notify_all();
        }
    }

    /// Run one epoch: every shard `w ∈ 0..width` executes `job(w)`, the
    /// caller as shard 0 on its own thread.
    ///
    /// Blocks until *all* shards finish — including when a shard panics, so
    /// the borrowed `job` never outlives the call. Returns [`Poisoned`] if
    /// any shard of this or an earlier epoch panicked; outputs written by
    /// a partially-completed epoch are unspecified and the caller must
    /// discard them (the kernel wrappers overwrite them with NaN).
    pub fn try_run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), Poisoned> {
        self.try_run_shards(job, self.width)
    }

    /// Run one epoch over `shards` logical shards (clamped to
    /// `1..=width()`): every shard `s ∈ 0..shards` executes `job(s)`
    /// exactly once, the caller as shard 0. Shards 1.. are claimed by live
    /// workers in slot order; shards without a live owner — and shards
    /// orphaned by a worker lost mid-epoch — are run by the caller
    /// (failover; see the [module docs](self)).
    ///
    /// Kernels that computed a dispatch width below the team width pass it
    /// here so no-op shards don't wake workers.
    ///
    /// # Errors
    /// Returns [`Poisoned`] if any shard of this or an earlier epoch
    /// panicked; outputs of the failing epoch are unspecified.
    pub fn try_run_shards(
        &self,
        job: &(dyn Fn(usize) + Sync),
        shards: usize,
    ) -> Result<(), Poisoned> {
        let shards = shards.clamp(1, self.width);
        if self.width <= 1 || shards <= 1 {
            if self.is_poisoned() {
                return Err(Poisoned);
            }
            if catch_unwind(AssertUnwindSafe(|| job(0))).is_err() {
                self.inner.state.lock().expect("team state lock").poisoned = true;
                return Err(Poisoned);
            }
            return Ok(());
        }
        // One barrier epoch = one `team_epoch` span on the caller's shard
        // (auxiliary detail under whatever solver-level span is open).
        vr_obs::tls::with_span(vr_obs::SpanKind::TeamEpoch, || self.run_epoch(job, shards))
    }

    fn run_epoch(&self, job: &(dyn Fn(usize) + Sync), shards: usize) -> Result<(), Poisoned> {
        let _epoch_guard = self.inner.run_lock.lock().expect("team run lock");
        let epoch;
        {
            let mut st = self.inner.state.lock().expect("team state lock");
            if st.poisoned {
                return Err(Poisoned);
            }
            // Erase the borrow lifetime; sound because this function blocks
            // until `remaining == 0` below, on every path.
            let ptr: *const (dyn Fn(usize) + Sync) = job;
            st.job = Some(JobPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
            }));
            st.epoch += 1;
            epoch = st.epoch;
            st.unclaimed.clear();
            // Deterministic assignment: shards 1.. go to live workers in
            // slot order; any overflow (loss since the width was sized)
            // falls to the caller.
            let mut next = 1usize;
            for slot in 0..self.width - 1 {
                if next < shards && st.live[slot] {
                    st.assign[slot] = Some(next);
                    next += 1;
                } else {
                    st.assign[slot] = None;
                }
            }
            for s in next..shards {
                st.unclaimed.push(s);
            }
            st.remaining = shards - 1;
            self.inner.start.notify_all();
        }
        let mut panicked = catch_unwind(AssertUnwindSafe(|| job(0))).is_err();
        let tick = Duration::from_millis(self.inner.tick_ms.load(Ordering::Relaxed));
        let straggler_after = self.inner.straggler_ticks.load(Ordering::Relaxed);
        let mut ticks = 0u64;
        let mut st = self.inner.state.lock().expect("team state lock");
        loop {
            // Failover: run shards no live worker owns. The lock is
            // released while the shard runs so finishing workers can check
            // in; `remaining` is decremented only after the shard ran, so
            // the barrier below stays exact.
            while let Some(s) = st.unclaimed.pop() {
                drop(st);
                let ok = vr_obs::tls::with_span(vr_obs::SpanKind::Reshard, || {
                    catch_unwind(AssertUnwindSafe(|| job(s))).is_ok()
                });
                panicked |= !ok;
                st = self.inner.state.lock().expect("team state lock");
                st.remaining -= 1;
            }
            if st.remaining == 0 {
                break;
            }
            let (guard, timeout) = self
                .inner
                .done
                .wait_timeout(st, tick)
                .expect("team state lock");
            st = guard;
            if timeout.timed_out() {
                ticks += 1;
                st = self.health_check(st, epoch, ticks >= straggler_after);
            }
        }
        st.job = None;
        if panicked {
            st.poisoned = true;
        }
        if st.poisoned {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    /// One heartbeat sweep on barrier timeout: fail over every assigned
    /// worker that has not claimed its shard this epoch and whose thread
    /// has exited (or any such worker, once the straggler budget is
    /// spent). Sound against a concurrent claim because both the claim and
    /// this demotion happen under the state mutex: a demoted worker
    /// observes `live == false` at claim time and exits without running.
    fn health_check<'a>(
        &self,
        mut st: MutexGuard<'a, State>,
        epoch: u64,
        force: bool,
    ) -> MutexGuard<'a, State> {
        vr_obs::tls::with_span(vr_obs::SpanKind::HealthCheck, || {
            for slot in 0..self.width - 1 {
                if !st.live[slot] || st.started[slot] >= epoch {
                    continue; // gone already, or claimed (possibly mid-run)
                }
                let Some(shard) = st.assign[slot] else {
                    continue;
                };
                if force || self.workers[slot].is_finished() {
                    st.live[slot] = false;
                    st.assign[slot] = None;
                    st.unclaimed.push(shard);
                    self.inner.live_count.fetch_sub(1, Ordering::Relaxed);
                }
            }
        });
        st
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("team state lock");
            st.shutdown = true;
            self.inner.start.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, idx: usize) {
    let slot = idx - 1;
    let mut last_epoch = 0u64;
    loop {
        let (job, shard) = {
            let mut st = inner.state.lock().expect("team state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if inner.kill_silent[slot].load(Ordering::Acquire) {
                    // Simulated OS kill: vanish with no bookkeeping. Only
                    // the caller's heartbeat check can discover this.
                    return;
                }
                if inner.kill[slot].load(Ordering::Acquire) {
                    depart(inner, &mut st, slot);
                    return;
                }
                if !st.live[slot] {
                    // Demoted by the caller's health check (we were too
                    // slow to claim); our shard is already failed over.
                    return;
                }
                if st.epoch > last_epoch {
                    last_epoch = st.epoch;
                    if let Some(s) = st.assign[slot] {
                        // Claim: the heartbeat advance doubles as the
                        // exactly-once lock against caller takeover.
                        st.started[slot] = st.epoch;
                        let j = st.job.as_ref().expect("assigned epoch has a job");
                        break (JobPtr(j.0), s);
                    }
                    continue; // not assigned this epoch
                }
                st = inner.start.wait(st).expect("team state lock");
            }
        };
        // Clone the tracer Arc up front (never hold the slot lock while the
        // job runs) and bracket the shard's busy window with a TeamEpoch
        // span on this shard's own slot.
        let tracer = inner.tracer.lock().expect("team tracer lock").clone();
        let s0 = tracer.as_ref().map(|t| t.now_ns());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let f: &(dyn Fn(usize) + Sync) = unsafe { &*job.0 };
            f(shard);
        }))
        .is_err();
        if let (Some(t), Some(s0)) = (tracer.as_ref(), s0) {
            t.record_since(shard, vr_obs::SpanKind::TeamEpoch, s0);
        }
        let mut st = inner.state.lock().expect("team state lock");
        if panicked {
            st.poisoned = true;
        }
        st.finished[slot] = st.epoch;
        st.remaining -= 1;
        if st.remaining == 0 {
            inner.done.notify_all();
        }
    }
}

/// Clean departure ([`Team::kill_worker`]): mark the slot dead, hand an
/// unclaimed shard back to the caller, and wake it so takeover is prompt.
fn depart(inner: &Inner, st: &mut State, slot: usize) {
    st.live[slot] = false;
    inner.live_count.fetch_sub(1, Ordering::Relaxed);
    if let Some(s) = st.assign[slot].take() {
        if st.started[slot] < st.epoch {
            st.unclaimed.push(s);
        }
    }
    inner.done.notify_all();
}

/// Process-wide team cache: one long-lived team per width, shared by every
/// solve that asks for a width (`SolveOptions::with_threads` in `vr-cg`)
/// so nothing on the solver hot path spawns threads per call.
///
/// A cached team found poisoned (some earlier caller's job panicked) or
/// degraded (it lost workers to failover) is replaced with a fresh one, so
/// an unrelated failure cannot permanently disable or shrink parallelism
/// for the whole process. The check-and-replace happens under the cache
/// lock, so concurrent callers observing a dying team race to at most one
/// replacement each — none of them can receive the dying `Arc`.
#[must_use]
pub fn shared_team(width: usize) -> Arc<Team> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Team>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("team cache lock");
    match map.get(&width) {
        Some(t) if !t.is_poisoned() && !t.is_degraded() => Arc::clone(t),
        _ => {
            let t = Arc::new(Team::new(width));
            map.insert(width, Arc::clone(&t));
            t
        }
    }
}

/// Send/Sync wrapper for a raw element pointer handed to team shards.
///
/// Safety contract: every shard derived from one `SendPtr` writes a
/// disjoint index range, and the pointee outlives the epoch (guaranteed by
/// [`Team::try_run`] blocking until all shards finish).
pub struct SendPtr<T>(pub *mut T);

// manual impls: the derive would add an unwanted `T: Copy` bound
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes edition-2021 closures capture the Sync wrapper, not
    /// the raw non-Sync pointer field.
    #[must_use]
    pub fn get(self) -> *mut T {
        self.0
    }
}

/// Run `leaf` over every item of `work` on the team, writing the per-item
/// results in order into `out` (one slot per item).
///
/// `n` is the underlying element count, used only to pick the dispatch
/// width via [`dispatch_width`] over the team's *surviving* members; the
/// result layout is `work.len()` slots regardless of width, so reductions
/// stay bit-identical. Items are distributed in fixed contiguous blocks:
/// shard `w` owns items `[w·per, (w+1)·per)` with `per = ⌈m / width⌉`.
///
/// # Errors
/// Returns [`Poisoned`] if the team is or becomes poisoned; the results in
/// `out` are then unspecified and must be discarded.
///
/// # Panics
/// Panics if `out` and `work` differ in length.
pub(crate) fn run_leaves_team<T: Send, R: Send>(
    team: Option<&Team>,
    work: &mut [T],
    out: &mut [R],
    n: usize,
    leaf: &(dyn Fn(&mut T) -> R + Sync),
) -> Result<(), Poisoned> {
    let m = work.len();
    assert_eq!(out.len(), m, "run_leaves_team: one result slot per item");
    let width = dispatch_width(n, team.map_or(1, Team::live_width)).min(m.max(1));
    if width <= 1 {
        if let Some(t) = team {
            if t.is_poisoned() {
                return Err(Poisoned);
            }
        }
        for (item, slot) in work.iter_mut().zip(out.iter_mut()) {
            *slot = leaf(item);
        }
        return Ok(());
    }
    let team = team.expect("width > 1 implies a team");
    let per = m.div_ceil(width);
    let work_ptr = SendPtr(work.as_mut_ptr());
    let out_ptr = SendPtr(out.as_mut_ptr());
    team.try_run_shards(
        &move |w| {
            let lo = w * per;
            if lo >= m {
                return;
            }
            let hi = ((w + 1) * per).min(m);
            for i in lo..hi {
                // Safety: shards cover disjoint `[lo, hi)` ranges of both
                // buffers, and `try_run_shards` keeps the buffers alive
                // until every shard finishes.
                unsafe {
                    *out_ptr.get().add(i) = leaf(&mut *work_ptr.get().add(i));
                }
            }
        },
        width,
    )
}

/// Team-backed `y ← a·x + y`. Elementwise, hence exact (bit-identical) for
/// any team width. On a poisoned team `y` is filled with NaN so downstream
/// guards terminate honestly.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn par_axpy_in(team: Option<&Team>, a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy_in: length mismatch");
    elementwise_in(team, x, y, move |xs, ys| crate::simd::leaf_axpy(a, xs, ys));
}

/// Team-backed `y ← x + a·y` (the `xpay` update of the direction vector).
/// Elementwise, hence exact for any team width; NaN-fills `y` on poison.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn par_xpay_in(team: Option<&Team>, x: &[f64], a: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_xpay_in: length mismatch");
    elementwise_in(team, x, y, move |xs, ys| crate::simd::leaf_xpay(xs, a, ys));
}

/// Shard `y` (and the matching range of `x`) into contiguous blocks and run
/// `f(x_block, y_block)` on each — the sweep body is a [`crate::simd`] leaf
/// kernel, exact per element, so any sharding is bit-identical to serial.
fn elementwise_in(
    team: Option<&Team>,
    x: &[f64],
    y: &mut [f64],
    f: impl Fn(&[f64], &mut [f64]) + Sync,
) {
    let n = y.len();
    let width = dispatch_width(n, team.map_or(1, Team::live_width));
    if width <= 1 {
        f(x, y);
        return;
    }
    let team = team.expect("width > 1 implies a team");
    let per = n.div_ceil(width);
    let yp = SendPtr(y.as_mut_ptr());
    let res = team.try_run_shards(
        &move |w| {
            let lo = w * per;
            if lo >= n {
                return;
            }
            let hi = ((w + 1) * per).min(n);
            // Safety: disjoint ranges per shard; buffers outlive the epoch.
            let ys = unsafe { std::slice::from_raw_parts_mut(yp.get().add(lo), hi - lo) };
            f(&x[lo..hi], ys);
        },
        width,
    );
    if res.is_err() {
        y.fill(f64::NAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_cutoff_pins_threshold() {
        // Below one grain of work: serial no matter what was requested.
        assert_eq!(dispatch_width(GRAIN - 1, 8), 1);
        assert_eq!(dispatch_width(GRAIN, 8), 1);
        // Two grains justify two workers, no more.
        assert_eq!(dispatch_width(2 * GRAIN, 8), 2);
        // Plenty of work: the full request is honored.
        assert_eq!(dispatch_width(16 * GRAIN, 8), 8);
        // Requests of 0 or 1 never dispatch.
        assert_eq!(dispatch_width(usize::MAX, 1), 1);
        assert_eq!(dispatch_width(usize::MAX, 0), 1);
    }

    #[test]
    fn epochs_run_every_shard() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(4);
        let hits = AtomicUsize::new(0);
        for _ in 0..100 {
            team.try_run(&|w| {
                assert!(w < 4);
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn shard_subset_epochs_run_exactly_once_each() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(4);
        let hits: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            team.try_run_shards(
                &|w| {
                    hits[w].fetch_add(1, Ordering::Relaxed);
                },
                2,
            )
            .unwrap();
        }
        assert_eq!(hits[0].load(Ordering::Relaxed), 50);
        assert_eq!(hits[1].load(Ordering::Relaxed), 50);
    }

    #[test]
    fn degenerate_team_runs_caller_only() {
        let team = Team::new(1);
        let mut ran = false;
        team.try_run(&|w| assert_eq!(w, 0)).unwrap();
        // borrowed mutable state works through a fresh epoch too
        let cell = std::sync::Mutex::new(&mut ran);
        team.try_run(&|_| **cell.lock().unwrap() = true).unwrap();
        assert!(ran);
    }

    #[test]
    fn panic_poisons_and_returns_err_not_hang() {
        let team = Team::new(3);
        let r = team.try_run(&|w| {
            if w == 1 {
                panic!("injected shard panic");
            }
        });
        assert_eq!(r, Err(Poisoned));
        assert!(team.is_poisoned());
        // every later epoch fails fast
        assert_eq!(team.try_run(&|_| {}), Err(Poisoned));
    }

    #[test]
    fn caller_shard_panic_also_poisons() {
        let team = Team::new(2);
        let r = team.try_run(&|w| {
            if w == 0 {
                panic!("caller shard panic");
            }
        });
        assert_eq!(r, Err(Poisoned));
        assert!(team.is_poisoned());
    }

    #[test]
    fn heartbeats_advance_each_epoch() {
        let team = Team::new(3);
        for _ in 0..5 {
            team.try_run(&|_| {}).unwrap();
        }
        for &(started, finished) in &team.heartbeats() {
            assert_eq!(started, 5);
            assert_eq!(finished, 5);
        }
    }

    #[test]
    fn clean_kill_fails_over_and_degrades_width() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(4);
        team.try_run(&|_| {}).unwrap();
        assert_eq!(team.live_width(), 4);
        team.kill_worker(2);
        // Every epoch still runs all shards exactly once, on survivors.
        let hits = AtomicUsize::new(0);
        for _ in 0..20 {
            team.try_run(&|w| {
                assert!(w < 4);
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 80);
        assert_eq!(team.live_width(), 3);
        assert!(team.is_degraded());
        assert!(!team.is_poisoned());
    }

    #[test]
    fn silent_kill_detected_by_heartbeat_check() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(3);
        team.set_health_params(2, 10_000); // fast ticks, no straggler demote
        team.try_run(&|_| {}).unwrap();
        team.kill_worker_silent(1);
        // give the thread a moment to exit so is_finished() observes it
        std::thread::sleep(std::time::Duration::from_millis(20));
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            team.try_run(&|w| {
                assert!(w < 3);
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 30);
        assert_eq!(team.live_width(), 2);
        assert!(!team.is_poisoned());
    }

    #[test]
    fn all_workers_dead_still_completes_on_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(3);
        team.kill_worker(1);
        team.kill_worker(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            team.try_run(&|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 30);
        assert_eq!(team.live_width(), 1);
    }

    #[test]
    fn failover_keeps_elementwise_results_bit_identical() {
        let n = 4 * GRAIN;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut expect: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut got = expect.clone();
        for (yi, xi) in expect.iter_mut().zip(&x) {
            *yi += 2.5 * xi;
        }
        let team = Team::new(4);
        team.kill_worker(3);
        par_axpy_in(Some(&team), 2.5, &x, &mut got);
        assert_eq!(expect, got);
    }

    #[test]
    fn run_leaves_team_matches_serial() {
        let mut work: Vec<(usize, f64)> = (0..CHUNK_ITEMS).map(|i| (i, i as f64)).collect();
        let expect: Vec<f64> = work.iter().map(|&(i, v)| v * 2.0 + i as f64).collect();
        let team = Team::new(4);
        let mut got = vec![0.0; CHUNK_ITEMS];
        run_leaves_team(
            Some(&team),
            &mut work,
            &mut got,
            32 * GRAIN,
            &|&mut (i, v): &mut (usize, f64)| v * 2.0 + i as f64,
        )
        .unwrap();
        assert_eq!(got, expect);
        const CHUNK_ITEMS: usize = 257;
    }

    #[test]
    fn par_axpy_in_exact_any_width() {
        let n = 3 * GRAIN + 17;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut serial: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut pooled = serial.clone();
        for (yi, xi) in serial.iter_mut().zip(&x) {
            *yi += 2.5 * xi;
        }
        let team = Team::new(4);
        par_axpy_in(Some(&team), 2.5, &x, &mut pooled);
        assert_eq!(serial, pooled);
        let mut p2 = x.clone();
        let mut p1 = x.clone();
        par_xpay_in(Some(&team), &serial, -0.25, &mut p2);
        par_xpay_in(None, &serial, -0.25, &mut p1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn attached_tracer_records_worker_epochs_per_shard() {
        let team = Team::new(4);
        let tracer = Arc::new(vr_obs::Tracer::for_width(4));
        team.set_tracer(Some(Arc::clone(&tracer)));
        for _ in 0..5 {
            team.try_run(&|_| {}).unwrap();
        }
        team.set_tracer(None);
        // quiescence: try_run blocked until every shard finished
        let log = tracer.drain();
        for shard in 1..4 {
            let n = log
                .spans
                .iter()
                .filter(|(s, sp)| *s == shard && sp.kind == vr_obs::SpanKind::TeamEpoch)
                .count();
            assert_eq!(n, 5, "worker shard {shard} must record every epoch");
        }
        // detached again: no further records
        team.try_run(&|_| {}).unwrap();
        assert!(tracer.drain().spans.is_empty());
    }

    #[test]
    fn shared_team_caches_and_replaces_poisoned() {
        let a = shared_team(3);
        let b = shared_team(3);
        assert!(Arc::ptr_eq(&a, &b));
        let _ = a.try_run(&|_| panic!("poison the shared team"));
        assert!(a.is_poisoned());
        let c = shared_team(3);
        assert!(!Arc::ptr_eq(&a, &c), "poisoned team must be replaced");
        assert!(!c.is_poisoned());
        c.try_run(&|_| {}).unwrap();
    }

    #[test]
    fn shared_team_replaces_degraded() {
        let a = shared_team(5);
        a.kill_worker(1);
        // wait until the departure is visible
        while a.live_width() == 5 {
            std::thread::yield_now();
        }
        let b = shared_team(5);
        assert!(!Arc::ptr_eq(&a, &b), "degraded team must be replaced");
        assert_eq!(b.live_width(), 5);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for _ in 0..10 {
            let team = Team::new(4);
            team.try_run(&|_| {}).unwrap();
            drop(team); // must not hang or leak
        }
    }

    #[test]
    fn drop_joins_after_kills() {
        let team = Team::new(4);
        team.kill_worker(1);
        team.kill_worker_silent(2);
        team.try_run(&|_| {}).unwrap();
        drop(team); // exited threads must join without hanging
    }
}
