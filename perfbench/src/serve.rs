//! `serve-small`: one tenant, one connection and one job in flight, a
//! closed loop against the `vr-svc` daemon binary at its default width
//! over TCP loopback, its default transport, with routing from the
//! committed `BENCH_stability.json`.
//!
//! Every job sets `batch: false`, and one job is in flight at a time, so
//! routing and answer bits never depend on arrival timing; multi-column
//! jobs run block CG.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_obs::json::Json;
use vr_par::Team;
use vr_svc::{Client, Completed};

use crate::host::{self, Regime};
use crate::plan::{Plan, Template, ROUTING_TABLE};
use crate::probes::{library_solve, tree_opts, LibSolve};
use crate::stats::{self, median, tail, Spans};
use crate::{Args, Metric, Report};

/// Daemon set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

/// The `vr-svc` binary running as a child process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The ephemeral TCP address it bound, as [`Client::connect`] takes it.
    addr: String,
}

impl Daemon {
    fn spawn(args: &Args) -> Result<Daemon, String> {
        let mut child = Command::new(&args.daemon)
            .args(["--listen", "tcp:127.0.0.1:0", "--routing", ROUTING_TABLE])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.daemon.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        Ok(Daemon {
            child,
            stdout,
            addr,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One served job as the tenant saw it.
pub struct JobRecord {
    pub template: usize,
    pub cols: usize,
    /// Submit time from the run's origin.
    pub submit_ms: f64,
    /// Submit until the accepted event.
    pub rtt_ms: f64,
    /// Submit until the terminal event.
    pub latency_ms: f64,
    pub job_id: u64,
    pub done: Option<Completed>,
    pub failure: Option<String>,
}

/// A job's latency split at the client: `latency = rtt + solve + overhead`,
/// where solve is the daemon's `Done.solve_ms` and overhead the rest of
/// the time from accepted to done (the wire, queueing, the operator
/// build and the scheduler's own work). The sum holds by definition of
/// the overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    pub latency_ms: f64,
    pub rtt_ms: f64,
    pub solve_ms: f64,
    pub overhead_ms: f64,
}

/// Split one job's latency, checking that the parts fit the whole: the
/// accepted event must come between submit and done, and the daemon's
/// solve must fit in the client's latency.
pub fn reconcile(latency_ms: f64, rtt_ms: f64, solve_ms: f64) -> Result<Split, String> {
    let overhead_ms = latency_ms - rtt_ms - solve_ms;
    if !(0.0 <= rtt_ms && rtt_ms <= latency_ms) {
        Err(format!(
            "accepted after {rtt_ms} ms, outside the job's {latency_ms} ms"
        ))
    } else if !(0.0 <= solve_ms && solve_ms <= latency_ms) {
        Err(format!(
            "daemon solve {solve_ms} ms does not fit in the client's {latency_ms} ms"
        ))
    } else {
        Ok(Split {
            latency_ms,
            rtt_ms,
            solve_ms,
            overhead_ms,
        })
    }
}

impl JobRecord {
    /// The reconciled split of a served job.
    pub fn split(&self) -> Option<Split> {
        let d = self.done.as_ref()?;
        reconcile(self.latency_ms, self.rtt_ms, d.solve_ms).ok()
    }
}

/// A daemon with one connected tenant, and every job it served.
pub struct Session {
    daemon: Daemon,
    client: Client,
    pub records: Vec<JobRecord>,
    /// From spawning the daemon until its warm-up pass completed.
    pub setup_s: f64,
    /// The instant submit times count from.
    origin: Instant,
}

impl Session {
    /// Spawn the daemon, connect, and serve the warm-up pass.
    pub fn open(args: &Args, plan: &Plan, origin: Instant) -> Result<Session, String> {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(args)?;
        let client =
            Client::connect(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
        let mut s = Session {
            daemon,
            client,
            records: Vec::new(),
            setup_s: 0.0,
            origin,
        };
        let mut spans = Spans::new(origin, false);
        s.serve(plan, plan.warmup.iter().copied(), None, &mut spans);
        s.setup_s = t0.elapsed().as_secs_f64();
        Ok(s)
    }

    /// Serve `templates` in order, one job in flight, until they run out
    /// or the deadline passes. Returns the index of the first new record.
    pub fn serve(
        &mut self,
        plan: &Plan,
        templates: impl Iterator<Item = usize>,
        deadline: Option<Instant>,
        spans: &mut Spans,
    ) -> usize {
        let first = self.records.len();
        for template in templates {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let spec = plan.spec(template).clone();
            let tag = self.records.len() as u64;
            let mut rec = JobRecord {
                template,
                cols: spec.rhs.columns(),
                submit_ms: 0.0,
                rtt_ms: 0.0,
                latency_ms: 0.0,
                job_id: 0,
                done: None,
                failure: None,
            };
            let root = spans.begin("svc.job", None, Some(tag));
            let t0 = Instant::now();
            rec.submit_ms = 1e3 * t0.duration_since(self.origin).as_secs_f64();
            let submitted = spans.record("svc.client.submit", Some(root), Some(tag), || {
                self.client.submit(spec)
            });
            rec.rtt_ms = 1e3 * t0.elapsed().as_secs_f64();
            match submitted {
                Err(r) => {
                    rec.failure = Some(format!("rejected ({}): {}", r.reason, r.detail));
                }
                Ok(handle) => {
                    rec.job_id = handle.id;
                    let done =
                        spans.record("svc.client.wait", Some(root), Some(tag), || handle.wait());
                    rec.latency_ms = 1e3 * t0.elapsed().as_secs_f64();
                    rec.failure = check_done(&plan.templates[template], done.as_ref(), &rec);
                    rec.done = done;
                }
            }
            spans.end(root);
            self.records.push(rec);
        }
        first
    }

    /// Check the daemon's own accounting against what the tenant saw, read
    /// its peak memory, and drain-shut it down. Returns failures and the
    /// daemon's `VmHWM` in MiB.
    pub fn close(self) -> Result<(Vec<JobRecord>, Vec<String>, f64), String> {
        let Session {
            mut daemon,
            client,
            records,
            ..
        } = self;
        let failures = check_daemon(&client, &records)?;
        let rss = host::peak_rss_mib(&daemon.child.id().to_string())?;
        client
            .shutdown_daemon(true)
            .map_err(|e| format!("shutdown request: {e}"))?;
        drop(client);
        let mut rest = String::new();
        let _ = daemon.stdout.read_to_string(&mut rest);
        let status = daemon
            .child
            .wait()
            .map_err(|e| format!("reap daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok((records, failures, rss))
    }
}

/// What the job's terminal event and timings alone show is wrong with it.
fn check_done(tp: &Template, done: Option<&Completed>, rec: &JobRecord) -> Option<String> {
    let Some(d) = done else {
        return Some("connection closed before its terminal event".into());
    };
    if d.residuals.len() != rec.cols {
        Some(format!(
            "{} residuals for {} columns",
            d.residuals.len(),
            rec.cols
        ))
    } else if !d.converged {
        Some(format!("did not converge ({})", d.termination))
    } else if tp.variant.is_some_and(|pin| pin != d.routing.variant) {
        Some(format!(
            "pinned to {:?} but ran {}",
            tp.variant, d.routing.variant
        ))
    } else {
        reconcile(rec.latency_ms, rec.rtt_ms, d.solve_ms).err()
    }
}

/// The daemon's own accounting after the tenant's last job ended: every
/// admitted job produced exactly one terminal event and the queue is
/// empty.
fn check_daemon(client: &Client, records: &[JobRecord]) -> Result<Vec<String>, String> {
    // The scheduler counts a terminal event just after sending it, so the
    // tenant can see its last event a moment before the count moves.
    let mut stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    for _ in 0..50 {
        if stats.3 >= stats.1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    }
    let (queued, admitted, rejected, completed, ..) = stats;
    let accepted = records.iter().filter(|r| r.job_id != 0).count() as u64;
    let refused = records.len() as u64 - accepted;
    let mut failures = Vec::new();
    if queued != 0 {
        failures.push(format!(
            "daemon: {queued} jobs still queued after the tenant finished"
        ));
    }
    if admitted != accepted || rejected != refused {
        failures.push(format!(
            "daemon: admitted {admitted} and rejected {rejected}; the tenant saw {accepted} accepted and {refused} refused"
        ));
    }
    if completed != admitted {
        failures.push(format!(
            "daemon: {admitted} admitted jobs but {completed} terminal events"
        ));
    }
    Ok(failures)
}

/// Width-1 library solves of served jobs, keyed by (template, variant).
pub type Expected = HashMap<(usize, String), Result<LibSolve, String>>;

/// Check each served job against a width-1 Tree-dot library solve of the
/// same job, with the variant the daemon reports for singletons and
/// `BlockCg` for multi-column jobs: the same iteration count and
/// bit-identical residuals, and the library answer certified by its true
/// residual. Returns one failure per job.
pub fn verify(plan: &Plan, records: &[JobRecord], expected: &mut Expected) -> Vec<String> {
    let team = Arc::new(Team::new(1));
    let mut failures = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let (Some(done), None) = (&rec.done, &rec.failure) else {
            continue;
        };
        let tp = &plan.templates[rec.template];
        let variant = &done.routing.variant;
        let lib = expected
            .entry((rec.template, variant.clone()))
            .or_insert_with(|| {
                library_solve(
                    &plan.ops[tp.op],
                    variant,
                    &plan.columns(rec.template),
                    &tree_opts(tp.tol, plan.spec(rec.template).max_iters, &team),
                    None,
                )
            });
        let cause = match lib {
            Err(e) => Some(e.clone()),
            Ok(s) => s
                .uncertified()
                .map(|c| format!("library answer {c}"))
                .or_else(|| {
                    let same = s.iterations == done.iterations
                        && s.residuals.len() == done.residuals.len()
                        && s.residuals
                            .iter()
                            .zip(&done.residuals)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                    (!same).then(|| {
                        format!(
                            "served {} iterations, residuals {:?}; library {} iterations, residuals {:?}",
                            done.iterations, done.residuals, s.iterations, s.residuals
                        )
                    })
                }),
        };
        if let Some(c) = cause {
            failures.push(format!(
                "job {i} (template {}, {variant}): {c}",
                rec.template
            ));
        }
    }
    failures
}

/// The failures served jobs recorded themselves.
pub fn failures_of(records: &[JobRecord]) -> Vec<String> {
    records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let f = r.failure.as_ref()?;
            Some(format!("job {i} (template {}): {f}", r.template))
        })
        .collect()
}

/// Throughput and tail of each complete block of a window: blocks whose
/// successor block has started, so that each lasts from its first submit
/// to its successor's.
struct Blocks {
    size: usize,
    per_s: Vec<f64>,
    tails: Vec<f64>,
    /// The percentile each block's tail is at.
    pct: f64,
    /// Latencies of every served job of the complete blocks: whole
    /// cycles, so every distinct job weighs the same in their median.
    latencies: Vec<f64>,
}

/// Cut a window's records (one job after another) into blocks of whole
/// cycles.
fn blocks(plan: &Plan, records: &[JobRecord]) -> Result<Blocks, String> {
    let size = plan.block();
    let complete = records.len().saturating_sub(1) / size;
    if complete == 0 {
        return Err(format!(
            "window too short: {} jobs, fewer than one block of {size} and the next block's first job",
            records.len()
        ));
    }
    let mut b = Blocks {
        size,
        per_s: Vec::new(),
        tails: Vec::new(),
        pct: 0.0,
        latencies: Vec::new(),
    };
    for k in 0..complete {
        let jobs = &records[k * size..(k + 1) * size];
        let ok: Vec<&JobRecord> = jobs.iter().filter(|r| r.failure.is_none()).collect();
        let systems: usize = ok.iter().map(|r| r.cols).sum();
        let ms = records[(k + 1) * size].submit_ms - jobs[0].submit_ms;
        b.per_s.push(1e3 * systems as f64 / ms);
        let latencies: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
        if let Some((t, pct)) = tail(&latencies) {
            b.tails.push(t);
            b.pct = pct;
        }
        b.latencies.extend(latencies);
    }
    if b.tails.is_empty() {
        return Err("no block has eleven served jobs".into());
    }
    Ok(b)
}

/// Medians of the per-job latency split, as report lines.
pub fn split_metrics(records: &[JobRecord]) -> Vec<Metric> {
    let splits: Vec<Split> = records.iter().filter_map(JobRecord::split).collect();
    if splits.is_empty() {
        return Vec::new();
    }
    let n = splits.len();
    let med = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new(
            "svc.submit_rtt_ms",
            med(|s| s.rtt_ms),
            "ms",
            format!("(median, Client::submit until accepted, n={n})"),
        ),
        Metric::new(
            "svc.solve_ms",
            med(|s| s.solve_ms),
            "ms",
            format!("(median Done.solve_ms, n={n})"),
        ),
        Metric::new(
            "svc.done_overhead_ms",
            med(|s| s.overhead_ms),
            "ms",
            format!(
                "(median of accepted → done minus Done.solve_ms, n={n}; latency = rtt + solve + \
                 overhead per job, each part inside it; latency p50 {:.3} ms)",
                med(|s| s.latency_ms)
            ),
        ),
    ]
}

/// Submit, accepted and done times, `Done.solve_ms`, routed variant and
/// iterations of every served job.
pub fn write_jobs(path: &Path, records: &[JobRecord]) -> Result<(), String> {
    let rows = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let d = r.done.as_ref();
            vr_obs::json!({
                "job": i,
                "template": r.template,
                "columns": r.cols,
                "submit_ms": Json::Num(r.submit_ms),
                "accepted_ms": Json::Num(r.submit_ms + r.rtt_ms),
                "done_ms": Json::Num(r.submit_ms + r.latency_ms),
                "solve_ms": d.map_or(Json::Null, |d| Json::Num(d.solve_ms)),
                "variant": d.map_or(Json::Null, |d| Json::Str(d.routing.variant.clone())),
                "iterations": d.map_or(Json::Null, |d| Json::Int(d.iterations as i64)),
                "failure": r.failure.clone().map_or(Json::Null, Json::Str),
            })
        })
        .collect();
    stats::write_json(path, &Json::Arr(rows))
}

/// Untraced run: `SETUPS` daemon set-ups, then the window on the last.
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed)?;
    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    let mut served: Vec<JobRecord> = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(s) = session.take() {
            let (records, daemon_failures, _) = Session::close(s)?;
            failures.extend(daemon_failures);
            served.extend(records);
        }
        let s = Session::open(args, &plan, origin)?;
        setups.push(s.setup_s);
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up");
    let regime = Regime::start();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut spans = Spans::new(origin, false);
    let first = s.serve(
        &plan,
        (0..).map(|j| plan.template(j)),
        Some(deadline),
        &mut spans,
    );
    let mut context = regime.finish();
    let (records, daemon_failures, rss) = s.close()?;
    failures.extend(daemon_failures);
    let (last_daemon_jobs, window_start) = (records.len(), served.len() + first);
    served.extend(records);
    failures.extend(failures_of(&served));
    failures.extend(verify(&plan, &served, &mut Expected::new()));
    let window = &served[window_start..];

    let systems: usize = window
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| r.cols)
        .sum();
    let b = blocks(&plan, window).map_err(|e| format!("{e}; failures: {failures:?}"))?;
    let n = b.latencies.len();
    let wall_s =
        (window.last().map_or(0.0, |r| r.submit_ms + r.latency_ms) - window[0].submit_ms) / 1e3;
    context.extend(split_metrics(window));
    write_jobs(
        &args
            .out
            .join(format!("jobs-{}-{}.json", args.workload.name(), args.seed)),
        window,
    )?;
    Ok(Report {
        title: format!(
            "{} seed {}: 1 tenant, 1 connection, 1 job in flight, closed loop, TCP transport; \
             {} jobs ({systems} systems) in {wall_s:.2} s, cycle of {} distinct jobs",
            args.workload.name(),
            args.seed,
            window.len(),
            plan.cycle(),
        ),
        attempted: served.len(),
        failures,
        metrics: vec![
            Metric::new(
                "setup_s",
                median(&setups),
                "s",
                format!(
                    "(median of {SETUPS} spawns + {}-job warm-up passes: {setups:.3?})",
                    plan.warmup.len()
                ),
            ),
            Metric::new(
                "solves_per_s",
                median(&b.per_s),
                "1/s",
                format!(
                    "(median over {} blocks of {} jobs; {systems} systems in {wall_s:.2} s overall)",
                    b.per_s.len(),
                    b.size
                ),
            ),
            Metric::new(
                "latency_p50_ms",
                median(&b.latencies),
                "ms",
                format!(
                    "(n={n} jobs of the {} complete blocks, submit to done)",
                    b.per_s.len()
                ),
            ),
            Metric::new(
                "latency_tail_ms",
                median(&b.tails),
                "ms",
                format!(
                    "(median over {} blocks of {} jobs of each block's p{:.1}, 10 samples \
                     beyond: {:.2?})",
                    b.tails.len(),
                    b.size,
                    b.pct,
                    b.tails
                ),
            ),
            Metric::new(
                "peak_rss_mib",
                rss,
                "MiB",
                format!("(daemon VmHWM after {last_daemon_jobs} jobs)"),
            ),
        ],
        context,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_latency_reconciles_into_rtt_solve_and_overhead() {
        let s = reconcile(44.1, 0.3, 1.2).unwrap();
        assert!((s.overhead_ms - 42.6).abs() < 1e-9);
        assert_eq!((s.latency_ms, s.rtt_ms, s.solve_ms), (44.1, 0.3, 1.2));
        // The daemon may start solving before the accepted event reaches
        // the client, so the overhead can be slightly negative.
        assert!(reconcile(5.0, 2.0, 3.5).unwrap().overhead_ms < 0.0);
        assert!(reconcile(5.0, 6.0, 1.0).is_err(), "accepted after done");
        assert!(
            reconcile(5.0, 1.0, 5.5).is_err(),
            "solve longer than latency"
        );
        assert!(reconcile(5.0, -0.1, 1.0).is_err());
    }
}
