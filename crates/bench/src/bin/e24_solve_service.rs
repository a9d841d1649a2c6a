//! E24 — the solver as a service: multi-tenant daemon throughput,
//! admission backpressure, block-batched scheduling, and streamed
//! convergence with bit-identical answers.
//!
//! The paper restructures one CG iteration so its inner products stop
//! serializing one solve; `vr-svc` applies the same idea across solves —
//! compatible tenants share one block-CG Gram reduction instead of paying
//! one reduction fan-in each. This experiment stands up a real daemon on
//! a loopback socket and measures four claims:
//!
//! 1. **Tenancy + backpressure** (E24a): 8 concurrent tenant threads
//!    burst jobs through a capacity-4 admission queue. Overload is
//!    rejected *explicitly* (`queue-full`, visible to the tenant, who
//!    backs off and retries) — never buffered unboundedly, never dropped
//!    silently. Reports p50/p99 submit→done latency.
//! 2. **Batched vs unbatched throughput** (E24b): the same 12
//!    same-operator jobs run once with batching disabled (12 singleton
//!    solves) and once coalesced into block-CG batches. Aggregate
//!    jobs/sec must be strictly higher batched.
//! 3. **Streamed bit-identity** (E24c): a Tree-dot deterministic job
//!    streams per-iteration residuals; its final residual must equal a
//!    local library solve of the same system **bit for bit**, across the
//!    wire's JSON float round-trip.
//! 4. **Worker death mid-job** (E24d): a worker of the daemon's width-2
//!    team is killed mid-solve with two more jobs queued behind it. The
//!    in-flight job completes bit-identically to a width-1 solve, the
//!    queued jobs are served, and the daemon keeps answering pings.
//!
//! Headlines (asserted outside `--smoke`):
//! * ≥ 8 tenants, every burst job eventually completes, and ≥ 1 explicit
//!   queue-full rejection was observed under overload;
//! * batched aggregate jobs/sec strictly exceeds unbatched;
//! * daemon and library residuals are bit-identical for E24c and E24d.

use std::sync::Arc;
use std::time::Instant;

use vr_bench::{write_json, Table};
use vr_cg::registry;
use vr_cg::SolveOptions;
use vr_linalg::gen;
use vr_linalg::kernels::DotMode;
use vr_par::Team;
use vr_svc::{Client, JobSpec, Listen, OperatorSpec, RhsSpec, Server, ServerConfig, ShutdownMode};

vr_bench::jsonable! {
    struct TenantRow {
    tenant: usize,
    jobs: usize,
    rejections: usize,
    completed: usize,
    mean_ms: f64,
}
}

vr_bench::jsonable! {
    struct AdmissionRow {
    tenants: usize,
    queue_cap: usize,
    jobs_total: usize,
    completed: usize,
    rejections: usize,
    p50_ms: f64,
    p99_ms: f64,
}
}

vr_bench::jsonable! {
    struct BatchRow {
    arm: String,
    jobs: usize,
    batches_observed: usize,
    max_batch_width: i64,
    wall_ms: f64,
    jobs_per_sec: f64,
}
}

vr_bench::jsonable! {
    struct IdentityRow {
    grid: usize,
    variant: String,
    iterations: usize,
    progress_samples: usize,
    daemon_residual_bits: String,
    library_residual_bits: String,
    bit_identical: bool,
}
}

vr_bench::jsonable! {
    struct FailoverRow {
    width: usize,
    live_width_after: usize,
    killed_mid_job: bool,
    job_terminated: String,
    queued_jobs_served: usize,
    bit_identical_to_width1: bool,
    daemon_alive_after: bool,
}
}

fn start(queue_cap: usize, width: usize, team: Option<Arc<Team>>) -> Server {
    Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        width,
        team,
        queue_cap,
        routing: vr_svc::RoutingTable::default(),
    })
    .expect("daemon starts")
}

/// A job that spins until cancelled (tol 0 is unreachable): the blocker
/// the batching arms use to pile compatible jobs up in the queue.
fn blocker(grid: usize) -> JobSpec {
    let mut spec = JobSpec::new(
        OperatorSpec::Poisson2d { grid },
        RhsSpec::Seeded { seed: 99, count: 1 },
    );
    spec.tol = 0.0;
    spec.max_iters = 5_000_000;
    spec.events_every = 1;
    spec.batch = false;
    spec
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ---- E24a: tenants + bounded admission + explicit backpressure ----
    let tenants = if smoke { 4 } else { 8 };
    let jobs_per_tenant = if smoke { 2 } else { 4 };
    let grid_a = if smoke { 24 } else { 48 };
    let queue_cap = 4;

    let server = start(queue_cap, 2, None);
    let client = Arc::new(Client::connect(server.addr()).expect("connect"));
    let mut tenant_rows = Vec::new();
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut handles = Vec::new();
    for tenant in 0..tenants {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            let mut rejections = 0usize;
            let mut latencies = Vec::new();
            for j in 0..jobs_per_tenant {
                let mut spec = JobSpec::new(
                    OperatorSpec::Poisson2d { grid: grid_a },
                    RhsSpec::Seeded {
                        seed: (tenant * 100 + j) as u64,
                        count: 1,
                    },
                );
                spec.tol = 0.0; // run the full budget: uniform, load-heavy jobs
                spec.max_iters = if grid_a >= 48 { 400 } else { 120 };
                spec.batch = false; // singleton pressure is the point here
                let t0 = Instant::now();
                let handle = loop {
                    match client.submit(spec.clone()) {
                        Ok(h) => break h,
                        Err(r) => {
                            assert_eq!(r.reason, "queue-full", "unexpected reject: {r:?}");
                            rejections += 1;
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                };
                // tol 0 is unreachable, so the job runs its budget (or
                // exits early on a detected breakdown) — either way it is
                // uniform, load-heavy work with a terminal event.
                let done = handle.wait().expect("terminal event");
                assert!(!done.termination.is_empty());
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            (tenant, rejections, latencies)
        }));
    }
    for h in handles {
        let (tenant, rejections, latencies) = h.join().expect("tenant thread");
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        tenant_rows.push(TenantRow {
            tenant,
            jobs: jobs_per_tenant,
            rejections,
            completed: latencies.len(),
            mean_ms: mean,
        });
        all_latencies.extend(latencies);
    }
    tenant_rows.sort_by_key(|r| r.tenant);
    all_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rejections_total: usize = tenant_rows.iter().map(|r| r.rejections).sum();
    let admission = AdmissionRow {
        tenants,
        queue_cap,
        jobs_total: tenants * jobs_per_tenant,
        completed: tenant_rows.iter().map(|r| r.completed).sum(),
        rejections: rejections_total,
        p50_ms: percentile(&all_latencies, 0.50),
        p99_ms: percentile(&all_latencies, 0.99),
    };
    let mut ta = Table::new(&["tenant", "jobs", "rejections", "completed", "mean ms"]);
    for r in &tenant_rows {
        ta.row(&[
            r.tenant.to_string(),
            r.jobs.to_string(),
            r.rejections.to_string(),
            r.completed.to_string(),
            format!("{:.1}", r.mean_ms),
        ]);
    }
    println!(
        "E24a — {} tenants through a capacity-{} queue ({} jobs, {} explicit rejections, p50 {:.1} ms, p99 {:.1} ms)",
        tenants, queue_cap, admission.jobs_total, rejections_total, admission.p50_ms, admission.p99_ms
    );
    println!("{}", ta.render());
    if !smoke {
        assert!(tenants >= 8);
        assert_eq!(admission.completed, admission.jobs_total, "no job lost");
        assert!(
            rejections_total >= 1,
            "overload through a capacity-4 queue must surface explicit backpressure"
        );
    }
    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();

    // ---- E24b: batched vs unbatched aggregate throughput ----
    let grid_b = if smoke { 20 } else { 32 };
    let batch_jobs = if smoke { 6 } else { 24 };
    let mut batch_rows = Vec::new();
    for batched in [false, true] {
        let server = start(batch_jobs + 2, 2, None);
        let client = Client::connect(server.addr()).expect("connect");
        // hold the scheduler on a blocker so the whole arm queues up and
        // the batch arm can actually coalesce; no progress stream — the
        // timing window below must not be polluted by event backlog
        let mut blk_spec = blocker(grid_b + 1);
        blk_spec.events_every = 0;
        let blk = client.submit(blk_spec).expect("blocker admitted");
        // the scheduler has popped the blocker once the queue is empty
        loop {
            let (queued, ..) = client.stats().expect("stats");
            if queued == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let handles: Vec<_> = (0..batch_jobs)
            .map(|j| {
                let mut spec = JobSpec::new(
                    OperatorSpec::Poisson2d { grid: grid_b },
                    RhsSpec::Seeded {
                        seed: j as u64,
                        count: 1,
                    },
                );
                spec.tol = 1e-8;
                spec.max_iters = 4000;
                spec.batch = batched;
                client.submit(spec).expect("admitted")
            })
            .collect();
        // clock starts at the cancel: the window covers the blocker's
        // cooperative exit plus the whole arm's scheduling and solves —
        // identical bookends in both arms
        let t0 = Instant::now();
        client.cancel(blk.id).expect("cancel blocker");
        assert_eq!(blk.wait().unwrap().termination, "cancelled");
        let mut widths = Vec::new();
        for h in handles {
            let done = h.wait().expect("terminal event");
            assert_eq!(done.termination, "converged");
            assert_eq!(done.routing.batched, batched, "{:?}", done.routing);
            widths.push(done.routing.batch_width);
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        // each member of a width-w batch contributes 1/w of a batch
        let batches_observed = widths.iter().map(|w| 1.0 / *w as f64).sum::<f64>().round() as usize;
        batch_rows.push(BatchRow {
            arm: if batched { "batched" } else { "unbatched" }.into(),
            jobs: batch_jobs,
            batches_observed,
            max_batch_width: widths.iter().copied().max().unwrap_or(1),
            wall_ms,
            jobs_per_sec: batch_jobs as f64 / (wall_ms / 1e3),
        });
        drop(client);
        server.shutdown(ShutdownMode::Drain);
        server.join();
    }
    let mut tb = Table::new(&["arm", "jobs", "max width", "wall ms", "jobs/sec"]);
    for r in &batch_rows {
        tb.row(&[
            r.arm.clone(),
            r.jobs.to_string(),
            r.max_batch_width.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.jobs_per_sec),
        ]);
    }
    println!(
        "E24b — block-batched vs unbatched aggregate throughput, same {}-job workload",
        batch_rows[0].jobs
    );
    println!("{}", tb.render());
    if !smoke {
        assert!(
            batch_rows[1].max_batch_width > 1,
            "batch arm never coalesced"
        );
        assert!(
            batch_rows[1].jobs_per_sec > batch_rows[0].jobs_per_sec,
            "batched ({:.1} jobs/s) must beat unbatched ({:.1} jobs/s)",
            batch_rows[1].jobs_per_sec,
            batch_rows[0].jobs_per_sec
        );
    }

    // ---- E24c: streamed convergence, bit-identical to the library ----
    let grid_c = if smoke { 16 } else { 28 };
    let server = start(4, 2, None);
    let client = Client::connect(server.addr()).expect("connect");
    let mut spec = JobSpec::new(
        OperatorSpec::Poisson2d { grid: grid_c },
        RhsSpec::Seeded { seed: 42, count: 1 },
    );
    spec.tol = 1e-10;
    spec.max_iters = 4000;
    spec.events_every = 1;
    spec.variant = Some("standard".into());
    let done = client.submit(spec).expect("admitted").wait().unwrap();
    assert_eq!(done.termination, "converged");
    let a = gen::poisson2d(grid_c);
    let b = gen::rand_vector(a.nrows(), 42);
    let opts = SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(4000)
        .with_dot_mode(DotMode::Tree)
        .with_team(Arc::new(Team::new(1)));
    let solver = registry::variant_by_key("standard", &a).expect("standard registered");
    let local = solver.solve(&a, &b, None, &opts);
    let identity = IdentityRow {
        grid: grid_c,
        variant: "standard".into(),
        iterations: done.iterations,
        progress_samples: done.progress.len(),
        daemon_residual_bits: format!("{:016x}", done.residuals[0].to_bits()),
        library_residual_bits: format!("{:016x}", local.final_residual.to_bits()),
        bit_identical: done.residuals[0].to_bits() == local.final_residual.to_bits(),
    };
    println!(
        "E24c — streamed {} samples over {} iterations; daemon bits {} vs library {} ({})",
        identity.progress_samples,
        identity.iterations,
        identity.daemon_residual_bits,
        identity.library_residual_bits,
        if identity.bit_identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    assert!(!done.progress.is_empty());
    assert!(
        identity.bit_identical,
        "Tree-dot daemon solve must match the library bit for bit"
    );
    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();

    // ---- E24d: worker death mid-job ----
    let grid_d = if smoke { 20 } else { 36 };
    let team = Arc::new(Team::new(2));
    let server = start(8, 2, Some(Arc::clone(&team)));
    let client = Client::connect(server.addr()).expect("connect");
    let mut spec = JobSpec::new(
        OperatorSpec::Poisson2d { grid: grid_d },
        RhsSpec::Seeded { seed: 17, count: 1 },
    );
    spec.tol = 1e-10;
    spec.max_iters = 8000;
    spec.events_every = 1;
    spec.variant = Some("standard".into());
    let victim = client.submit(spec).expect("admitted");
    // two jobs queued behind the one that will lose a worker
    let queued: Vec<_> = (0..2)
        .map(|j| {
            client
                .submit(JobSpec::new(
                    OperatorSpec::Poisson2d { grid: 12 },
                    RhsSpec::Seeded { seed: j, count: 1 },
                ))
                .expect("admitted")
        })
        .collect();
    assert!(victim.next_event().is_some(), "victim running");
    team.kill_worker(1);
    let done = victim.wait().expect("terminal event despite worker death");
    let queued_served = queued
        .into_iter()
        .map(|h| h.wait().expect("queued job served"))
        .filter(|d| d.termination == "converged")
        .count();
    let a = gen::poisson2d(grid_d);
    let b = gen::rand_vector(a.nrows(), 17);
    let opts = SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(8000)
        .with_dot_mode(DotMode::Tree)
        .with_team(Arc::new(Team::new(1)));
    let solver = registry::variant_by_key("standard", &a).unwrap();
    let local = solver.solve(&a, &b, None, &opts);
    let alive = client.ping().is_ok();
    let failover = FailoverRow {
        width: 2,
        live_width_after: team.live_width(),
        killed_mid_job: true,
        job_terminated: done.termination.clone(),
        queued_jobs_served: queued_served,
        bit_identical_to_width1: done.residuals[0].to_bits() == local.final_residual.to_bits(),
        daemon_alive_after: alive,
    };
    println!(
        "E24d — killed worker 1 of 2 mid-job: job {}, {} queued jobs served, width-1 bits {}, daemon {}",
        failover.job_terminated,
        failover.queued_jobs_served,
        if failover.bit_identical_to_width1 {
            "identical"
        } else {
            "MISMATCH"
        },
        if failover.daemon_alive_after { "alive" } else { "DEAD" }
    );
    assert_eq!(failover.job_terminated, "converged");
    assert_eq!(
        failover.queued_jobs_served, 2,
        "queued jobs must not be lost"
    );
    assert_eq!(failover.live_width_after, 1);
    assert!(failover.daemon_alive_after);
    assert!(
        failover.bit_identical_to_width1,
        "degraded team must cost throughput, not bits"
    );
    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();

    write_json(
        "BENCH_svc",
        &vr_bench::json::envelope(
            "e24_solve_service",
            smoke,
            &[
                ("tenant_rows", vr_bench::json!(tenant_rows)),
                ("admission_rows", vr_bench::json!(vec![admission])),
                ("batch_rows", vr_bench::json!(batch_rows)),
                ("identity_rows", vr_bench::json!(vec![identity])),
                ("failover_rows", vr_bench::json!(vec![failover])),
            ],
        ),
    );
}
