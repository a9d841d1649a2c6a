//! Integration: the deterministic parallel runtime in concert with the
//! solvers — the "real machine" half of the reproduction.

use cg_lookahead::cg::resilience::{FaultKind, SeededInjector};
use cg_lookahead::cg::standard::StandardCg;
use cg_lookahead::cg::{CgVariant, SolveOptions, Termination};
use cg_lookahead::linalg::kernels::DotMode;
use cg_lookahead::linalg::{gen, kernels, LinearOperator};
use cg_lookahead::par::{reduce, shared_team, team, PendingScalar, Team};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn parallel_spmv_matches_serial() {
    // the row-partitioned team matvec every solver runs
    let a = gen::poisson2d(40); // 1600 unknowns → parallel path engages
    let x = gen::rand_vector(1600, 3);
    let serial = a.spmv(&x);
    let team = Team::new(4);
    let mut par_y = vec![0.0; a.nrows()];
    a.apply_team(Some(&team), &x, &mut par_y);
    assert_eq!(serial, par_y, "row-partitioned parallel SpMV must be exact");

    // and CG runs unchanged with its matvecs on the team
    let b = gen::poisson2d_rhs(40);
    let o = SolveOptions::default()
        .with_tol(1e-8)
        .with_team(Arc::new(team));
    let res = StandardCg::new().solve(&a, &b, None, &o);
    assert!(res.converged);
    assert!(res.true_residual(&a, &b) < 1e-5);
}

#[test]
fn deterministic_reduction_equals_across_widths_on_cg_data() {
    // the vectors CG actually produces (smooth, decaying) must reduce
    // identically at any thread count
    let a = gen::poisson2d(32);
    let b = gen::poisson2d_rhs(32);
    let res = StandardCg::new().solve(&a, &b, None, &SolveOptions::default());
    let x = &res.x;
    let d1 = reduce::par_dot(x, x, 1);
    for t in [2usize, 4, 8] {
        assert_eq!(d1.to_bits(), reduce::par_dot(x, x, t).to_bits(), "t={t}");
    }
    // and matches the serial kernel to high accuracy
    let serial = kernels::dot_serial(x, x);
    assert!((d1 - serial).abs() <= 1e-10 * (1.0 + serial));
}

#[test]
fn pipelined_scalars_deliver_out_of_order_launches() {
    let team = Team::new(4);
    let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 + 1.0; 4096]).collect();
    // launch all (leaf partials folded on the team), consume in reverse
    // order — values must still be right
    let pending: Vec<PendingScalar> = xs
        .iter()
        .map(|x| {
            let partials = reduce::par_dot_partials_in(Some(&team), x, x).unwrap();
            PendingScalar::deferred(partials)
        })
        .collect();
    for (i, p) in pending.iter().enumerate().rev() {
        let v = (i as f64 + 1.0) * (i as f64 + 1.0) * 4096.0;
        assert!((p.wait() - v).abs() < 1e-6 * v);
    }
}

#[test]
fn overlapped_dot_during_spmv_equals_sequential() {
    // the §3 discipline on real threads: launch (r,r) while computing A·p
    let a = gen::poisson2d(48);
    let r = gen::rand_vector(a.nrows(), 77);
    let p = gen::rand_vector(a.nrows(), 78);

    let team = Team::new(2);
    let partials = reduce::par_dot_partials_in(Some(&team), &r, &r).unwrap();
    let pending_rr = PendingScalar::deferred(partials);
    let mut w = vec![0.0; a.nrows()];
    a.apply_team(Some(&team), &p, &mut w); // overlaps with the fan-in
    let rr = pending_rr.wait();

    let rr_seq = kernels::dot_serial(&r, &r);
    assert_eq!(rr.to_bits(), reduce::par_dot(&r, &r, 1).to_bits());
    assert!((rr - rr_seq).abs() <= 1e-10 * (1.0 + rr_seq));
    assert_eq!(w.len(), a.nrows());
}

#[test]
fn par_map_and_axpy_compose() {
    // elementwise team kernels compose exactly: y ← x + 1·y doubles x,
    // then y ← y − 2·x cancels it
    let team = Team::new(4);
    let x: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
    let mut y = x.clone();
    team::par_xpay_in(Some(&team), &x, 1.0, &mut y);
    team::par_axpy_in(Some(&team), -2.0, &x, &mut y);
    assert!(y.iter().all(|&v| v == 0.0));
}

// ---------- persistent team lifecycle ----------

#[test]
fn team_runs_many_epochs_and_drops_cleanly() {
    // A team is a long-lived machine: hundreds of barrier-stepped epochs on
    // the same workers, then `drop` joins every worker. The assertions are
    // the epoch count being exact (no lost or duplicated shards) and the
    // test completing at all (no deadlock on shutdown).
    let team = Team::new(4);
    let hits = AtomicUsize::new(0);
    for _ in 0..200 {
        team.try_run(&|_shard| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .expect("healthy team");
    }
    assert_eq!(hits.load(Ordering::Relaxed), 200 * 4);
    drop(team);
}

#[test]
fn worker_panic_poisons_team_and_later_solves_do_not_inherit_it() {
    let team = Arc::new(Team::new(4));
    // Poison: every worker shard panics during one epoch. The barrier
    // counts panicked shards, so the epoch completes (no hang) and the
    // team is permanently disabled.
    let r = team.try_run(&|shard| assert_eq!(shard, 0, "shard {shard} aborts"));
    assert!(r.is_err());
    assert!(team.is_poisoned());
    // later epochs refuse immediately
    assert!(team.try_run(&|_| {}).is_err());

    // A solve handed the poisoned handle must NOT inherit it: `team()`
    // refuses to return a poisoned Arc and re-resolves a fresh shared
    // team, so the solve completes normally instead of inheriting a dead
    // barrier (the solve that *caused* the poison already surfaced its
    // own breakdown — see the honest-NaN contract in vr_par::reduce).
    let a = gen::poisson2d(40);
    let b = gen::poisson2d_rhs(40);
    let opts = SolveOptions {
        team: Some(Arc::clone(&team)),
        threads: 4,
        ..SolveOptions::default().with_dot_mode(DotMode::Tree)
    };
    let resolved = opts.team().expect("threads=4 resolves a team");
    assert!(!Arc::ptr_eq(&resolved, &team), "poisoned Arc must not leak");
    assert!(!resolved.is_poisoned());
    let res = StandardCg::new().solve(&a, &b, None, &opts);
    assert!(res.converged, "{:?}", res.termination);
    assert_eq!(res.termination, Termination::Converged);
}

#[test]
fn team_backed_tree_solve_matches_single_thread_bits() {
    // 128² = 16384 unknowns: wide enough that a width-4 team dispatches
    // real multi-shard epochs, and the whole trace must still match the
    // single-threaded solve bit for bit.
    let a = gen::poisson2d(128);
    let b = gen::poisson2d_rhs(128);
    let base = SolveOptions::default()
        .with_tol(1e-9)
        .with_dot_mode(DotMode::Tree);
    // explicit team: `with_threads(4)` would clamp to the host width on
    // small CI machines and silently degrade this to a 1 vs 1 comparison
    let team = Arc::new(Team::new(4));
    let one = StandardCg::new().solve(&a, &b, None, &base.clone().with_threads(1));
    let four = StandardCg::new().solve(&a, &b, None, &base.clone().with_team(Arc::clone(&team)));
    assert!(one.converged && four.converged);
    assert_eq!(one.iterations, four.iterations);
    assert_eq!(one.x, four.x);
    assert_eq!(one.residual_norms, four.residual_norms);
    // the team survives for the next solve on the same width
    let again = StandardCg::new().solve(&a, &b, None, &base.with_team(team));
    assert_eq!(four.x, again.x);
}

#[test]
fn killed_worker_mid_solve_completes_bit_identically_on_survivors() {
    // The tentpole failover claim as a repo test: kill one worker of a
    // width-4 team partway through a Tree-mode solve and the survivors must
    // finish the job with *the same bits* as the full team (and as a
    // single thread), because the 256-leaf reduction layout is fixed and
    // re-sharding only changes who sums which leaves.
    let a = gen::poisson2d(182); // 33124 ≥ 4·GRAIN → all 4 shards engage
    let b = gen::poisson2d_rhs(182);
    let base = SolveOptions::default()
        .with_tol(1e-9)
        .with_dot_mode(DotMode::Tree);

    let reference = StandardCg::new().solve(&a, &b, None, &base.clone().with_threads(1));

    let team = Arc::new(Team::new(4));
    let killer = {
        let team = Arc::clone(&team);
        std::thread::spawn(move || {
            // let a few epochs run at full width first
            std::thread::sleep(std::time::Duration::from_millis(5));
            team.kill_worker(1);
        })
    };
    let survived = StandardCg::new().solve(&a, &b, None, &base.with_team(Arc::clone(&team)));
    killer.join().unwrap();

    assert!(survived.converged, "{:?}", survived.termination);
    assert_eq!(team.live_width(), 3, "worker 1 should be gone");
    assert!(!team.is_poisoned(), "failover is not poisoning");
    assert_eq!(reference.x, survived.x, "x bits must survive failover");
    assert_eq!(
        reference.residual_norms, survived.residual_norms,
        "trace bits must survive failover"
    );
}

#[test]
fn shared_team_replaces_poisoned_instance_race_free() {
    // Regression: a poisoned cached team must be replaced under the cache
    // lock — concurrent callers may race to at most one replacement each,
    // and none of them may ever receive the dead `Arc`. Width 5 is chosen
    // to be private to this test (other tests use 2/4).
    let first = shared_team(5);
    // poison it: one shard panics, the barrier completes, the team is dead
    let r = first.try_run(&|shard| assert!(shard > 100, "deliberate poison"));
    assert!(r.is_err() && first.is_poisoned());

    let replacements: Vec<Arc<Team>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(|| shared_team(5))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for t in &replacements {
        assert!(!t.is_poisoned(), "no caller may observe the dead team");
        assert!(!Arc::ptr_eq(t, &first), "dead Arc must not be handed out");
        // and the replacement is actually usable
        t.try_run(&|_| {}).expect("fresh team runs");
    }
}

#[test]
fn seeded_fault_injection_is_bit_reproducible_across_team_widths() {
    // Faults are seeded by global element index, so the same corruption
    // lands on the same iterate no matter how many shards computed it:
    // identical traces for widths 1, 2, and 4 (182² ≥ 4·GRAIN engages all
    // of them for real).
    let a = gen::poisson2d(182);
    let b = gen::poisson2d_rhs(182);
    let mk = |threads: usize| {
        let o = SolveOptions::default()
            .with_tol(1e-10)
            .with_max_iters(12)
            .with_dot_mode(DotMode::Tree)
            .with_injector(Arc::new(SeededInjector::new(
                0xFEED,
                0.02,
                FaultKind::Perturb(0.25),
            )));
        // explicit teams so the host-cpu clamp can't flatten the widths
        if threads > 1 {
            o.with_team(Arc::new(Team::new(threads)))
        } else {
            o.with_threads(1)
        }
    };
    let base = StandardCg::new().solve(&a, &b, None, &mk(1));
    for threads in [2usize, 4] {
        let res = StandardCg::new().solve(&a, &b, None, &mk(threads));
        assert_eq!(base.termination, res.termination, "threads {threads}");
        assert_eq!(base.iterations, res.iterations, "threads {threads}");
        assert_eq!(base.x, res.x, "threads {threads}: x bits");
        assert_eq!(
            base.residual_norms, res.residual_norms,
            "threads {threads}: trace bits"
        );
    }
}
