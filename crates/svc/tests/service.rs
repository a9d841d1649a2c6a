//! End-to-end daemon tests: a real server on a real socket, a real
//! client, concurrent tenants, backpressure, batching, cancellation,
//! worker death, and drained shutdown with zero leaked threads.

use std::sync::Arc;
use std::time::Instant;

use vr_cg::registry;
use vr_linalg::gen;
use vr_linalg::kernels::DotMode;
use vr_par::team::Team;
use vr_svc::{
    Client, DeadlineClass, JobSpec, Listen, OperatorSpec, RhsSpec, Server, ServerConfig,
    ShutdownMode,
};

fn start_tcp(queue_cap: usize, width: usize) -> Server {
    Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        width,
        team: None,
        queue_cap,
        routing: vr_svc::RoutingTable::default(),
    })
    .expect("server starts")
}

/// A job that runs until cancelled: tol 0 can never be met, so it spins
/// through its iteration budget streaming progress — the synchronization
/// primitive the other tests hang queue pressure off.
fn blocker() -> JobSpec {
    let mut spec = JobSpec::new(
        OperatorSpec::Poisson2d { grid: 48 },
        RhsSpec::Seeded { seed: 7, count: 1 },
    );
    spec.tol = 0.0;
    spec.max_iters = 500_000;
    spec.events_every = 1;
    spec.batch = false;
    spec
}

fn small_job(grid: usize, seed: u64) -> JobSpec {
    JobSpec::new(
        OperatorSpec::Poisson2d { grid },
        RhsSpec::Seeded { seed, count: 1 },
    )
}

#[test]
fn solve_streams_progress_and_matches_library_bit_for_bit() {
    let server = start_tcp(8, 2);
    let client = Client::connect(server.addr()).unwrap();

    let mut spec = small_job(24, 3);
    spec.tol = 1e-10;
    spec.max_iters = 4000;
    spec.events_every = 1;
    spec.variant = Some("standard".into());
    let tol = spec.tol;
    let max_iters = spec.max_iters;
    let handle = client.submit(spec).expect("admitted");
    let done = handle.wait().expect("terminal event");

    assert_eq!(done.termination, "converged");
    assert!(done.converged);
    assert_eq!(done.routing.variant, "standard");
    assert!(!done.routing.batched);
    assert!(!done.progress.is_empty(), "events_every=1 must stream");
    assert_eq!(done.progress[0].0, 0, "stream starts at iteration 0");
    for window in done.progress.windows(2) {
        assert!(window[1].0 > window[0].0, "iterations strictly increase");
    }
    for (_, r) in &done.progress {
        assert!(r.is_finite() && *r >= 0.0);
    }
    let shares = done.phase_shares.expect("tracer attribution present");
    let total: f64 = shares.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "phase shares sum to 1: {total}");

    // Tree-dot determinism: the daemon's answer is bit-identical to a
    // local library solve, across the wire's JSON float round-trip.
    let a = gen::poisson2d(24);
    let b = gen::rand_vector(a.nrows(), 3);
    let opts = vr_cg::SolveOptions::default()
        .with_tol(tol)
        .with_max_iters(max_iters)
        .with_dot_mode(DotMode::Tree)
        .with_team(Arc::new(Team::new(1)));
    let solver = registry::variant_by_key("standard", &a).unwrap();
    let local = solver.solve(&a, &b, None, &opts);
    assert_eq!(local.iterations, done.iterations);
    assert_eq!(
        local.final_residual.to_bits(),
        done.residuals[0].to_bits(),
        "daemon residual must be bit-identical to the library solve"
    );

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn small_jobs_over_tcp_finish_well_inside_the_delayed_ack_timer() {
    // Linux delays an ACK by up to 40 ms. With Nagle on, the daemon's
    // `done` line waits for the client's ACK of `accepted`, so every
    // small job took ~44 ms; a grid-8 solve itself takes well under 1 ms.
    let server = start_tcp(8, 2);
    let client = Client::connect(server.addr()).unwrap();

    let mut latencies_ms: Vec<f64> = (0..15)
        .map(|seed| {
            let t0 = Instant::now();
            let done = client
                .submit(small_job(8, seed))
                .expect("admitted")
                .wait()
                .expect("terminal event");
            assert_eq!(done.termination, "converged");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let median = latencies_ms[latencies_ms.len() / 2];
    assert!(
        median < 20.0,
        "median submit→done {median:.2} ms is at least half the delayed-ACK \
         timer: {latencies_ms:.2?}"
    );

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn bounded_queue_rejects_with_explicit_backpressure() {
    let server = start_tcp(1, 2);
    let client = Client::connect(server.addr()).unwrap();

    let blk = client.submit(blocker()).expect("blocker admitted");
    // wait until the scheduler has actually popped and started it
    assert!(blk.next_event().is_some(), "blocker streams progress");

    let filler = client.submit(small_job(12, 1)).expect("one seat in queue");
    let rejection = match client.submit(small_job(12, 2)) {
        Ok(_) => panic!("queue full must reject"),
        Err(r) => r,
    };
    assert_eq!(rejection.reason, "queue-full");
    assert!(!rejection.detail.is_empty());

    client.cancel(blk.id).unwrap();
    let done = blk.wait().expect("blocker terminal event");
    assert_eq!(done.termination, "cancelled");
    assert!(!done.converged);

    let filler_done = filler.wait().expect("queued job still served");
    assert_eq!(filler_done.termination, "converged");

    let (_, admitted, rejected, completed, _, _) = client.stats().unwrap();
    assert_eq!(admitted, 2);
    assert_eq!(rejected, 1);
    assert_eq!(completed, 2);

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn compatible_jobs_coalesce_into_one_block_batch() {
    let server = start_tcp(8, 2);
    let client = Client::connect(server.addr()).unwrap();

    let blk = client.submit(blocker()).expect("blocker admitted");
    assert!(blk.next_event().is_some());

    // three same-operator batchable jobs pile up behind the blocker
    let handles: Vec<_> = (0..3)
        .map(|seed| client.submit(small_job(20, seed)).expect("admitted"))
        .collect();
    client.cancel(blk.id).unwrap();
    assert_eq!(blk.wait().unwrap().termination, "cancelled");

    for h in handles {
        let done = h.wait().expect("terminal event");
        assert_eq!(done.termination, "converged", "{:?}", done.routing);
        assert!(done.routing.batched, "job must have been batch-scheduled");
        assert_eq!(done.routing.variant, "block");
        assert_eq!(done.routing.batch_width, 3);
        assert_eq!(done.residuals.len(), 1);
        assert!(done.residuals[0].is_finite());
    }

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn queued_jobs_cancel_without_running() {
    let server = start_tcp(8, 2);
    let client = Client::connect(server.addr()).unwrap();

    let blk = client.submit(blocker()).expect("blocker admitted");
    assert!(blk.next_event().is_some());

    let queued = client.submit(small_job(16, 5)).expect("admitted");
    client.cancel(queued.id).unwrap();
    client.cancel(blk.id).unwrap();

    assert_eq!(blk.wait().unwrap().termination, "cancelled");
    let done = queued.wait().expect("terminal event");
    assert_eq!(done.termination, "cancelled");
    assert_eq!(done.iterations, 0, "cancelled before running");

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn drain_shutdown_finishes_queued_work_then_joins_every_thread() {
    let server = start_tcp(8, 2);
    let client = Client::connect(server.addr()).unwrap();

    let h1 = client.submit(small_job(16, 1)).expect("admitted");
    let h2 = client.submit(small_job(18, 2)).expect("admitted");
    client.shutdown_daemon(true).unwrap();

    // already-admitted jobs complete through the drain
    assert_eq!(h1.wait().unwrap().termination, "converged");
    assert_eq!(h2.wait().unwrap().termination, "converged");

    drop(client);
    // join returns ⇒ scheduler, acceptor, and every connection thread
    // exited — the zero-leaked-threads contract.
    server.join();
}

#[test]
fn worker_death_mid_job_degrades_team_but_answers_bit_identically() {
    let team = Arc::new(Team::new(2));
    let server = Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        width: 2,
        team: Some(Arc::clone(&team)),
        queue_cap: 8,
        routing: vr_svc::RoutingTable::default(),
    })
    .unwrap();
    let client = Client::connect(server.addr()).unwrap();

    let mut spec = small_job(32, 9);
    spec.tol = 1e-10;
    spec.max_iters = 8000;
    spec.events_every = 1;
    spec.variant = Some("standard".into());
    let handle = client.submit(spec).expect("admitted");
    assert!(handle.next_event().is_some(), "job is running");
    team.kill_worker(1);

    let done = handle.wait().expect("terminal event despite worker death");
    assert_eq!(done.termination, "converged");
    assert!(team.is_degraded());
    assert_eq!(team.live_width(), 1);

    // bit-identical to a width-1 library solve: degradation cost
    // throughput, not the answer
    let a = gen::poisson2d(32);
    let b = gen::rand_vector(a.nrows(), 9);
    let opts = vr_cg::SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(8000)
        .with_dot_mode(DotMode::Tree)
        .with_team(Arc::new(Team::new(1)));
    let solver = registry::variant_by_key("standard", &a).unwrap();
    let local = solver.solve(&a, &b, None, &opts);
    assert_eq!(local.final_residual.to_bits(), done.residuals[0].to_bits());

    // the daemon survives and keeps serving on the degraded team
    client.ping().unwrap();
    let after = client.submit(small_job(12, 4)).expect("still admitting");
    assert_eq!(after.wait().unwrap().termination, "converged");

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}

#[test]
fn unix_domain_socket_serves_csr_uploads() {
    let path = std::env::temp_dir().join(format!("vr-svc-test-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        listen: Listen::Uds(path.clone()),
        width: 2,
        team: None,
        queue_cap: 4,
        routing: vr_svc::RoutingTable::default(),
    })
    .unwrap();
    let client = Client::connect(&format!("uds:{}", path.display())).unwrap();
    client.ping().unwrap();

    // upload a small SPD tridiagonal system explicitly as CSR
    let n = 64usize;
    let mut indptr = vec![0usize];
    let mut indices = Vec::new();
    let mut data = Vec::new();
    for i in 0..n {
        if i > 0 {
            indices.push(i - 1);
            data.push(-1.0);
        }
        indices.push(i);
        data.push(2.5);
        if i + 1 < n {
            indices.push(i + 1);
            data.push(-1.0);
        }
        indptr.push(indices.len());
    }
    let spec = JobSpec::new(
        OperatorSpec::Csr {
            n,
            indptr,
            indices,
            data,
        },
        RhsSpec::Explicit(vec![vec![1.0; n]]),
    );
    let done = client.submit(spec).expect("admitted").wait().unwrap();
    assert_eq!(done.termination, "converged");
    assert!(done.residuals[0] <= 1e-8 * (n as f64).sqrt());

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
    assert!(!path.exists(), "socket file removed on join");
}

#[test]
fn deadline_classes_route_and_report_reasons() {
    // a routing table measured live on this host (cheap at grid 8)
    let table = vr_svc::RoutingTable::measure(8, 80);
    let server = Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        width: 2,
        team: None,
        queue_cap: 8,
        routing: table,
    })
    .unwrap();
    let client = Client::connect(server.addr()).unwrap();

    let mut spec = small_job(16, 11);
    spec.class = DeadlineClass::Accuracy;
    spec.batch = false;
    let done = client.submit(spec).expect("admitted").wait().unwrap();
    assert_eq!(done.termination, "converged");
    assert!(
        done.routing.reason.contains("accuracy"),
        "router must explain itself: {}",
        done.routing.reason
    );
    assert!(registry::variant_by_key(&done.routing.variant, &gen::poisson2d(4)).is_some());

    drop(client);
    server.shutdown(ShutdownMode::Drain);
    server.join();
}
