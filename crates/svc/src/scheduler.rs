//! The executor: one thread, one shared team, many tenants.
//!
//! The scheduler pops admitted jobs from the [`crate::queue`] (batch
//! formation happens inside the pop, under the queue lock), builds or
//! reuses the operator, and runs the solve on the **one** persistent
//! [`vr_par::team::Team`] the daemon owns — the whole point of the
//! service: tenants share the warm team instead of paying thread spawn
//! and cache warm-up per process.
//!
//! Scheduling decisions:
//!
//! - **Batching** — jobs are coalesced into one block-CG solve when they
//!   agree on operator fingerprint, tolerance bits, iteration budget,
//!   deadline class and rhs column count, all opted in (`batch: true`),
//!   and none pins a variant. One batched Gram reduction then serves
//!   every tenant in the batch (the paper's reduction-amortization,
//!   applied across tenants instead of iterations).
//! - **Routing** — singletons go to the variant the measured
//!   [`crate::routing::RoutingTable`] picks for their deadline class.
//! - **Determinism** — the daemon always solves with `DotMode::Tree`, so
//!   results are bit-identical at any live team width: a worker dying
//!   mid-job degrades throughput, never answers.
//!
//! Every solve runs under `catch_unwind`: a panicking job (singular
//! preconditioner, poisoned team) produces an error-terminated done
//! event; it never takes the daemon down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vr_cg::block::BlockCg;
use vr_cg::registry::variant_by_key;
use vr_cg::{RoutingMeta, SolveOptions, Termination};
use vr_linalg::kernels::DotMode;
use vr_linalg::{gen, CsrMatrix};
use vr_obs::{PhaseClass, Tracer};
use vr_par::team::Team;

use crate::proto::{Event, JobSpec, OperatorSpec, WireRouting, MAX_BATCH_WIDTH};
use crate::queue::AdmissionQueue;
use crate::routing::RoutingTable;

/// Stable lowercase name for a termination (the wire vocabulary).
#[must_use]
pub fn termination_name(t: Termination) -> &'static str {
    match t {
        Termination::Converged => "converged",
        Termination::RecoveredConverged => "recovered",
        Termination::MaxIterations => "max-iters",
        Termination::Breakdown => "breakdown",
        Termination::Stagnated => "stagnated",
        Termination::Diverged => "diverged",
        Termination::Unsupported => "unsupported",
        Termination::Cancelled => "cancelled",
    }
}

/// An admitted job: spec plus the plumbing the scheduler needs to reach
/// its tenant.
pub struct Job {
    /// Daemon-assigned id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Cooperative cancel flag (registered in the daemon's [`Ledger`]).
    pub cancel: Arc<AtomicBool>,
    /// Event sink of the submitting connection.
    pub events: Sender<Event>,
}

/// Service-wide job accounting, shared by the socket front-end and the
/// scheduler: the counters the stats op surfaces, and the cancel flag of
/// every admitted job that has no terminal event yet.
#[derive(Default)]
pub struct Ledger {
    /// Jobs admitted to the queue.
    pub admitted: AtomicU64,
    /// Jobs rejected at the door.
    pub rejected: AtomicU64,
    /// Jobs that reached a terminal event.
    pub completed: AtomicU64,
    /// Cancel flags of live jobs by id: registered at admission, removed
    /// by [`Ledger::finish`], so the map never outgrows the jobs in flight.
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl Ledger {
    fn cancels(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<AtomicBool>>> {
        self.cancels
            .lock()
            .expect("no thread panics while holding the cancel registry")
    }

    /// A fresh cancel flag for job `id`, registered until its terminal
    /// event (or [`Ledger::unregister`] if admission refuses the job).
    pub(crate) fn register(&self, id: u64) -> Arc<AtomicBool> {
        let flag = Arc::new(AtomicBool::new(false));
        self.cancels().insert(id, Arc::clone(&flag));
        flag
    }

    /// Forget job `id`'s cancel flag.
    pub(crate) fn unregister(&self, id: u64) {
        self.cancels().remove(&id);
    }

    /// Raise job `id`'s cancel flag; a no-op once the job has ended.
    pub(crate) fn cancel(&self, id: u64) {
        if let Some(flag) = self.cancels().get(&id) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Raise the cancel flag of every live job, queued or running.
    pub(crate) fn cancel_all(&self) {
        for flag in self.cancels().values() {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Number of admitted jobs still waiting for their terminal event.
    #[cfg(test)]
    pub(crate) fn live_jobs(&self) -> usize {
        self.cancels().len()
    }

    /// Produce `job`'s terminal event. The job is counted and unregistered
    /// *before* the event is sent, so a tenant that asks for stats after
    /// reading its `done` always finds the job in `completed`.
    pub(crate) fn finish(&self, job: &Job, done: Event) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.unregister(job.id);
        let _ = job.events.send(done);
    }
}

/// The executor state (owned by the scheduler thread).
pub struct Scheduler {
    queue: Arc<AdmissionQueue<Job>>,
    team: Arc<Team>,
    routing: RoutingTable,
    ledger: Arc<Ledger>,
    /// One tracer for every solve, drained around each job: a per-job
    /// tracer would allocate and fill its span rings (32 B × 65 536 per
    /// shard) for every job served.
    tracer: Arc<Tracer>,
    /// Operator cache keyed by fingerprint — batch members share one
    /// matrix, and tenants resubmitting the same operator skip the build.
    operators: HashMap<u64, Arc<CsrMatrix>>,
}

/// Two jobs may share a block solve only when every convergence-relevant
/// knob is identical (tolerance compared by bits: a batch has ONE
/// threshold per column, derived from the shared tol).
fn pairwise_compatible(a: &Job, b: &Job) -> bool {
    a.spec.batch
        && b.spec.batch
        && a.spec.variant.is_none()
        && b.spec.variant.is_none()
        && a.spec.operator.fingerprint() == b.spec.operator.fingerprint()
        && a.spec.tol.to_bits() == b.spec.tol.to_bits()
        && a.spec.max_iters == b.spec.max_iters
        && a.spec.class == b.spec.class
}

/// Batch admission rule for the queue's pop: pairwise-compatible with the
/// head AND the aggregate rhs-column count stays within
/// [`MAX_BATCH_WIDTH`].
fn batch_compatible(batch: &[Job], candidate: &Job) -> bool {
    let cols: usize = batch.iter().map(|j| j.spec.rhs.columns()).sum();
    pairwise_compatible(&batch[0], candidate)
        && cols + candidate.spec.rhs.columns() <= MAX_BATCH_WIDTH
}

impl Scheduler {
    /// Build an executor over the shared queue/team/ledger.
    #[must_use]
    pub fn new(
        queue: Arc<AdmissionQueue<Job>>,
        team: Arc<Team>,
        routing: RoutingTable,
        ledger: Arc<Ledger>,
    ) -> Self {
        let tracer = Arc::new(Tracer::for_width(team.width()));
        Scheduler {
            queue,
            team,
            routing,
            ledger,
            tracer,
            operators: HashMap::new(),
        }
    }

    /// Run until the queue drains; every admitted job gets exactly one
    /// terminal event, even across panics and dead clients.
    pub fn run(mut self) {
        while let Some(batch) = self.queue.pop_batch(batch_compatible) {
            self.execute(batch);
        }
    }

    fn operator(&mut self, spec: &OperatorSpec) -> Result<Arc<CsrMatrix>, String> {
        let fp = spec.fingerprint();
        if let Some(m) = self.operators.get(&fp) {
            return Ok(Arc::clone(m));
        }
        let built = match spec {
            OperatorSpec::Poisson2d { grid } => gen::poisson2d(*grid),
            OperatorSpec::Csr {
                n,
                indptr,
                indices,
                data,
            } => CsrMatrix::new(*n, *n, indptr.clone(), indices.clone(), data.clone())
                .map_err(|e| format!("invalid csr upload: {e:?}"))?,
        };
        // unbounded growth guard: uploads are tenant-controlled
        if self.operators.len() >= 32 {
            self.operators.clear();
        }
        let arc = Arc::new(built);
        self.operators.insert(fp, Arc::clone(&arc));
        Ok(arc)
    }

    /// Base options every daemon solve shares: Tree dots (width-invariant
    /// bits), the shared team, the job's budget.
    fn base_opts(&self, spec: &JobSpec) -> SolveOptions {
        SolveOptions::default()
            .with_tol(spec.tol)
            .with_max_iters(spec.max_iters)
            .with_dot_mode(DotMode::Tree)
            .with_team(Arc::clone(&self.team))
    }

    fn execute(&mut self, batch: Vec<Job>) {
        // drop jobs cancelled while queued — honest terminal event, no work
        let (cancelled, live): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.cancel.load(Ordering::Relaxed));
        for job in cancelled {
            self.ledger.finish(
                &job,
                unsolved_done(job.id, "cancelled", "cancelled while queued"),
            );
        }
        if live.is_empty() {
            return;
        }

        let a = match self.operator(&live[0].spec.operator) {
            Ok(a) => a,
            Err(detail) => {
                for job in &live {
                    let _ = job.events.send(Event::Error {
                        detail: format!("job {}: {detail}", job.id),
                    });
                    self.ledger
                        .finish(job, unsolved_done(job.id, "error", &detail));
                }
                return;
            }
        };

        // a panicked solve leaves its spans in the tracer; they must not
        // reach this job's phase shares
        drop(self.tracer.drain());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if live.len() > 1 || live[0].spec.rhs.columns() > 1 {
                self.solve_block(&a, &live);
            } else {
                self.solve_singleton(&a, &live[0]);
            }
        }));
        if outcome.is_err() {
            // the team survives a solver panic (it owns its workers); the
            // tenants still get terminal events and the daemon lives on
            for job in &live {
                let detail = format!("job {}: solver panicked", job.id);
                let _ = job.events.send(Event::Error { detail });
                self.ledger
                    .finish(job, unsolved_done(job.id, "error", "solver panicked"));
            }
        }
    }

    /// One tenant, one rhs column: route a variant and stream its loop.
    fn solve_singleton(&mut self, a: &CsrMatrix, job: &Job) {
        let spec = &job.spec;
        let (variant_key, reason) = match &spec.variant {
            Some(pin) => (pin.clone(), "explicit request".to_string()),
            None => self.routing.route(spec.class, spec.tol),
        };
        let Some(solver) = variant_by_key(&variant_key, a) else {
            let detail = format!("unknown variant {variant_key}");
            let _ = job.events.send(Event::Error {
                detail: format!("job {}: {detail}", job.id),
            });
            self.ledger
                .finish(job, unsolved_done(job.id, "error", &detail));
            return;
        };

        let b = &spec.rhs.expand(a.nrows())[0];
        let mut opts = self
            .base_opts(spec)
            .with_cancel_flag(Arc::clone(&job.cancel))
            .with_tracer(Arc::clone(&self.tracer));
        if spec.events_every > 0 {
            let every = spec.events_every;
            let sink = job.events.clone();
            let job_id = job.id;
            let cancel = Arc::clone(&job.cancel);
            opts = opts.with_progress(move |iter, residual| {
                if iter % every == 0
                    && sink
                        .send(Event::Progress {
                            job_id,
                            iter,
                            residual,
                        })
                        .is_err()
                {
                    // tenant hung up: stop paying for its iterations
                    cancel.store(true, Ordering::Relaxed);
                }
            });
        }

        let t0 = Instant::now();
        let res = solver.solve(a, b, None, &opts);
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shares = self.phase_shares();
        let routing = RoutingMeta {
            variant_key: variant_key.clone(),
            reason: reason.clone(),
            batched: false,
            batch_width: 1,
        };
        let res = res.with_routing(routing);
        self.ledger.finish(
            job,
            Event::Done {
                job_id: job.id,
                termination: termination_name(res.termination).into(),
                converged: res.converged,
                iterations: res.iterations,
                residuals: vec![res.final_residual],
                solve_ms,
                routing: WireRouting {
                    variant: variant_key,
                    reason,
                    batched: false,
                    batch_width: 1,
                },
                phase_shares: Some(shares),
            },
        );
    }

    /// Several tenants (or one multi-rhs tenant) on one operator: one
    /// block solve, one batched Gram reduction per iteration for all.
    fn solve_block(&mut self, a: &CsrMatrix, jobs: &[Job]) {
        let spec0 = &jobs[0].spec;
        let n = a.nrows();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        let mut owners: Vec<(usize, usize)> = Vec::new(); // (col_start, cols) per job
        for job in jobs {
            let cols = job.spec.rhs.expand(n);
            owners.push((columns.len(), cols.len()));
            columns.extend(cols);
        }
        let width = columns.len();

        // batch cancel: only when EVERY member cancels (one tenant must
        // not kill its co-batched neighbours); dead sinks count as
        // cancelled via the progress path below
        let member_flags: Vec<Arc<AtomicBool>> =
            jobs.iter().map(|j| Arc::clone(&j.cancel)).collect();
        let batch_cancel = Arc::new(AtomicBool::new(false));
        let mut opts = self
            .base_opts(spec0)
            .with_cancel_flag(Arc::clone(&batch_cancel))
            .with_tracer(Arc::clone(&self.tracer));
        {
            let sinks: Vec<(u64, Sender<Event>, usize, Arc<AtomicBool>)> = jobs
                .iter()
                .map(|j| {
                    (
                        j.id,
                        j.events.clone(),
                        j.spec.events_every,
                        Arc::clone(&j.cancel),
                    )
                })
                .collect();
            let member_flags = member_flags.clone();
            let batch_cancel = Arc::clone(&batch_cancel);
            opts = opts.with_progress(move |iter, residual| {
                for (job_id, sink, every, cancel) in &sinks {
                    if *every > 0
                        && iter % every == 0
                        && sink
                            .send(Event::Progress {
                                job_id: *job_id,
                                iter,
                                residual,
                            })
                            .is_err()
                    {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
                if member_flags.iter().all(|f| f.load(Ordering::Relaxed)) {
                    batch_cancel.store(true, Ordering::Relaxed);
                }
            });
        }

        let t0 = Instant::now();
        let res = BlockCg::new().solve(a, &columns, &opts);
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shares = self.phase_shares();
        let reason = format!("batched with {} compatible jobs", jobs.len());
        for (job, (start, cols)) in jobs.iter().zip(&owners) {
            let residuals: Vec<f64> = (*start..start + cols)
                .map(|c| {
                    res.residual_norms[c]
                        .last()
                        .copied()
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            self.ledger.finish(
                job,
                Event::Done {
                    job_id: job.id,
                    termination: termination_name(res.termination).into(),
                    converged: res.converged,
                    iterations: res.iterations,
                    residuals,
                    solve_ms,
                    routing: WireRouting {
                        variant: "block".into(),
                        reason: reason.clone(),
                        batched: true,
                        batch_width: width as i64,
                    },
                    phase_shares: Some(shares),
                },
            );
        }
    }

    /// Critical-path phase shares `[reduction_wait, matvec, vector,
    /// overhead]` of the solve just traced; drains the tracer.
    fn phase_shares(&self) -> [f64; 4] {
        let report = vr_obs::critpath::attribute(&self.tracer.drain());
        [
            report.totals.share(PhaseClass::ReductionWait),
            report.totals.share(PhaseClass::Matvec),
            report.totals.share(PhaseClass::Vector),
            report.totals.share(PhaseClass::Overhead),
        ]
    }
}

/// The terminal event of a job that ends without a solve: no iterations,
/// no residuals, routed nowhere, `reason` saying why.
pub(crate) fn unsolved_done(job_id: u64, termination: &str, reason: &str) -> Event {
    Event::Done {
        job_id,
        termination: termination.into(),
        converged: false,
        iterations: 0,
        residuals: Vec::new(),
        solve_ms: 0.0,
        routing: WireRouting {
            variant: "none".into(),
            reason: reason.into(),
            batched: false,
            batch_width: 1,
        },
        phase_shares: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RhsSpec;
    use std::sync::mpsc::channel;

    fn job(id: u64, spec: JobSpec, tx: Sender<Event>) -> Job {
        Job {
            id,
            spec,
            cancel: Arc::new(AtomicBool::new(false)),
            events: tx,
        }
    }

    fn scheduler() -> (Scheduler, Arc<Ledger>) {
        let ledger = Arc::new(Ledger::default());
        let sched = Scheduler::new(
            Arc::new(AdmissionQueue::new(4)),
            Arc::new(Team::new(1)),
            RoutingTable::default(),
            Arc::clone(&ledger),
        );
        (sched, ledger)
    }

    /// A structurally valid 2×2 CSR upload with a zero diagonal, which
    /// no Jacobi preconditioner can be built from.
    fn zero_diagonal_upload() -> JobSpec {
        JobSpec::new(
            OperatorSpec::Csr {
                n: 2,
                indptr: vec![0, 1, 2],
                indices: vec![1, 0],
                data: vec![1.0, 1.0],
            },
            RhsSpec::Seeded { seed: 1, count: 1 },
        )
    }

    fn poisson_spec(grid: usize) -> JobSpec {
        JobSpec::new(
            OperatorSpec::Poisson2d { grid },
            RhsSpec::Seeded { seed: 1, count: 1 },
        )
    }

    #[test]
    fn compatibility_requires_identical_knobs() {
        let (tx, _rx) = channel();
        let a = job(1, poisson_spec(8), tx.clone());
        let b = job(2, poisson_spec(8), tx.clone());
        assert!(pairwise_compatible(&a, &b));
        let mut tol = poisson_spec(8);
        tol.tol = 1e-6;
        assert!(!pairwise_compatible(&a, &job(3, tol, tx.clone())));
        let mut pinned = poisson_spec(8);
        pinned.variant = Some("standard".into());
        assert!(!pairwise_compatible(&a, &job(4, pinned, tx.clone())));
        let mut nobatch = poisson_spec(8);
        nobatch.batch = false;
        assert!(!pairwise_compatible(&a, &job(5, nobatch, tx.clone())));
        assert!(!pairwise_compatible(
            &a,
            &job(6, poisson_spec(9), tx.clone())
        ));
        // aggregate column cap: a 6-column batch refuses a 4-column joiner
        let wide = |id, count| {
            let mut s = poisson_spec(8);
            s.rhs = RhsSpec::Seeded { seed: 1, count };
            job(id, s, tx.clone())
        };
        let batch = [wide(7, 6)];
        assert!(!batch_compatible(&batch, &wide(8, 4)));
        assert!(batch_compatible(&batch, &wide(9, 2)));
    }

    #[test]
    fn singleton_solve_streams_and_completes() {
        let (mut sched, ledger) = scheduler();
        let (tx, rx) = channel();
        let mut spec = poisson_spec(8);
        spec.events_every = 1;
        spec.variant = Some("standard".into());
        sched.execute(vec![job(7, spec, tx)]);
        let events: Vec<Event> = rx.try_iter().collect();
        let done = events.last().expect("terminal event");
        let Event::Done {
            job_id,
            converged,
            routing,
            phase_shares,
            ..
        } = done
        else {
            panic!("last event must be done, got {done:?}")
        };
        assert_eq!(*job_id, 7);
        assert!(converged);
        assert_eq!(routing.variant, "standard");
        assert!(phase_shares.is_some());
        assert!(
            events
                .iter()
                .filter(|e| matches!(e, Event::Progress { .. }))
                .count()
                > 1,
            "events_every=1 must stream progress"
        );
        assert_eq!(ledger.completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_solve_fans_done_events_to_every_member() {
        let (mut sched, _) = scheduler();
        let (tx, rx) = channel();
        let jobs: Vec<Job> = (0..3)
            .map(|k| {
                let mut spec = poisson_spec(8);
                spec.rhs = RhsSpec::Seeded {
                    seed: 10 + k,
                    count: 1,
                };
                job(k, spec, tx.clone())
            })
            .collect();
        sched.execute(jobs);
        drop(tx);
        let dones: Vec<Event> = rx
            .try_iter()
            .filter(|e| matches!(e, Event::Done { .. }))
            .collect();
        assert_eq!(dones.len(), 3);
        for d in &dones {
            let Event::Done {
                converged, routing, ..
            } = d
            else {
                unreachable!()
            };
            assert!(converged);
            assert!(routing.batched);
            assert_eq!(routing.batch_width, 3);
            assert_eq!(routing.variant, "block");
        }
    }

    #[test]
    fn queued_cancellation_yields_cancelled_done_without_solving() {
        let (mut sched, _) = scheduler();
        let (tx, rx) = channel();
        let j = job(9, poisson_spec(8), tx);
        j.cancel.store(true, Ordering::Relaxed);
        sched.execute(vec![j]);
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(events.len(), 1);
        let Event::Done {
            termination,
            iterations,
            ..
        } = &events[0]
        else {
            panic!("expected done")
        };
        assert_eq!(termination, "cancelled");
        assert_eq!(*iterations, 0);
    }

    #[test]
    fn solver_panic_becomes_error_done_not_a_crash() {
        let (mut sched, _) = scheduler();
        let (tx, rx) = channel();
        // a zero-diagonal CSR upload panics the Jacobi variant's setup
        let mut spec = zero_diagonal_upload();
        spec.variant = Some("precond_jacobi".into());
        sched.execute(vec![job(11, spec, tx)]);
        let events: Vec<Event> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Done { termination, .. } if termination == "error")));
    }

    #[test]
    fn zero_diagonal_upload_pinned_to_standard_is_solved_not_errored() {
        // only the Jacobi variant needs a positive diagonal, and a job
        // builds only the variant it is routed to
        let (mut sched, _) = scheduler();
        let (tx, rx) = channel();
        let mut spec = zero_diagonal_upload();
        spec.variant = Some("standard".into());
        sched.execute(vec![job(12, spec, tx)]);
        let events: Vec<Event> = rx.try_iter().collect();
        assert!(
            !events.iter().any(|e| matches!(e, Event::Error { .. })),
            "{events:?}"
        );
        let Some(Event::Done { termination, .. }) = events.last() else {
            panic!("last event must be done, got {events:?}")
        };
        assert_ne!(termination, "error");
    }
}
