//! Option-path coverage across the whole solver family: every `SolveOptions`
//! combination must behave identically in outcome, differing only in what
//! gets recorded.

use cg_lookahead::cg::baselines::{
    ChebyshevIteration, ChronopoulosGearCg, ConjugateResidual, OverlapCr, PipelinedCg, ThreeTermCg,
};
use cg_lookahead::cg::lookahead::LookaheadCg;
use cg_lookahead::cg::overlap_k1::OverlapK1Cg;
use cg_lookahead::cg::registry::keyed_variants;
use cg_lookahead::cg::sstep::SStepCg;
use cg_lookahead::cg::standard::StandardCg;
use cg_lookahead::cg::{CgVariant, SolveOptions};
use cg_lookahead::linalg::gen;
use cg_lookahead::linalg::kernels::DotMode;

fn all_solvers() -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(StandardCg::new()),
        Box::new(ThreeTermCg::new()),
        Box::new(ChronopoulosGearCg::new()),
        Box::new(PipelinedCg::new()),
        Box::new(ConjugateResidual::new()),
        Box::new(OverlapCr::new()),
        Box::new(OverlapK1Cg::new().with_resync(20)),
        Box::new(LookaheadCg::new(2).with_resync(12)),
        Box::new(SStepCg::monomial(3)),
        Box::new(SStepCg::chebyshev(3)),
        Box::new(ChebyshevIteration::auto()),
    ]
}

#[test]
fn record_residuals_off_changes_history_not_solution() {
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    for s in all_solvers() {
        let on = SolveOptions::default().with_tol(1e-7);
        let off = SolveOptions {
            record_residuals: false,
            ..on.clone()
        };
        let r_on = s.solve(&a, &b, None, &on);
        let r_off = s.solve(&a, &b, None, &off);
        assert!(r_on.converged && r_off.converged, "{}", s.name());
        assert_eq!(r_on.iterations, r_off.iterations, "{}", s.name());
        assert!(r_on.residual_norms.len() > 1, "{}", s.name());
        assert_eq!(r_off.residual_norms.len(), 1, "{}", s.name());
        assert_eq!(r_on.x, r_off.x, "{}: deterministic solvers", s.name());
    }

    // Near the attainable floor (the E21 floor problem) several loops
    // replace their last recursive norm with a validated true residual at
    // the exit. An unrecorded solve must end on that same value, not on
    // the stale recursive one: recording changes the history, never the
    // answer.
    let a = gen::tridiag_toeplitz(2000, 2.0 + 4e-4, -1.0);
    let b = gen::rand_vector(2000, 5);
    let on = SolveOptions::default().with_tol(1e-8);
    let off = SolveOptions {
        record_residuals: false,
        ..on.clone()
    };
    let solvers = keyed_variants(&a)
        .into_iter()
        .map(|(_, v)| v)
        .chain(all_solvers());
    for s in solvers {
        let r_on = s.solve(&a, &b, None, &on);
        let r_off = s.solve(&a, &b, None, &off);
        let ctx = format!("{} (floor problem, tol 1e-8)", s.name());
        assert_eq!(r_on.termination, r_off.termination, "{ctx}: termination");
        assert_eq!(r_on.iterations, r_off.iterations, "{ctx}: iterations");
        assert_eq!(
            r_on.final_residual.to_bits(),
            r_off.final_residual.to_bits(),
            "{ctx}: final_residual {:e} recorded vs {:e} unrecorded",
            r_on.final_residual,
            r_off.final_residual
        );
        assert_eq!(
            r_on.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r_off.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: x bits"
        );
    }
}

#[test]
fn max_iters_zero_terminates_immediately() {
    let a = gen::poisson2d(8);
    let b = gen::poisson2d_rhs(8);
    let opts = SolveOptions::default().with_max_iters(0);
    for s in all_solvers() {
        let res = s.solve(&a, &b, None, &opts);
        assert!(!res.converged, "{}", s.name());
        assert_eq!(res.iterations, 0, "{}", s.name());
    }
}

#[test]
fn every_solver_reports_op_counts() {
    let a = gen::poisson2d(8);
    let b = gen::poisson2d_rhs(8);
    let opts = SolveOptions::default().with_tol(1e-6);
    for s in all_solvers() {
        let res = s.solve(&a, &b, None, &opts);
        assert!(res.converged, "{}", s.name());
        assert!(res.counts.matvecs > 0, "{}: matvecs", s.name());
        assert!(res.counts.vector_ops > 0, "{}: vector ops", s.name());
    }
}

#[test]
fn dot_modes_converge_for_every_solver() {
    let a = gen::poisson2d(8);
    let b = gen::poisson2d_rhs(8);
    for mode in [DotMode::Serial, DotMode::Tree] {
        let opts = SolveOptions::default().with_tol(1e-7).with_dot_mode(mode);
        for s in all_solvers() {
            let res = s.solve(&a, &b, None, &opts);
            assert!(res.converged, "{} with {mode:?}", s.name());
            assert!(
                res.true_residual(&a, &b) < 1e-4,
                "{} with {mode:?}",
                s.name()
            );
        }
    }
}

#[test]
fn loose_tolerance_means_fewer_iterations() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for s in all_solvers() {
        // 1e-6 is within every variant's attainable accuracy (see E9 for
        // why the recurrence-based solvers stagnate near √ε without resync)
        let tight = s.solve(&a, &b, None, &SolveOptions::default().with_tol(1e-6));
        let loose = s.solve(&a, &b, None, &SolveOptions::default().with_tol(1e-3));
        assert!(tight.converged && loose.converged, "{}", s.name());
        assert!(
            loose.iterations <= tight.iterations,
            "{}: loose {} > tight {}",
            s.name(),
            loose.iterations,
            tight.iterations
        );
    }
}

#[test]
fn matrix_free_operator_works_for_every_solver() {
    use cg_lookahead::linalg::stencil::Stencil2d;
    let op = Stencil2d::poisson(10);
    let csr = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    let opts = SolveOptions::default().with_tol(1e-7);
    for s in all_solvers() {
        let res = s.solve(&op, &b, None, &opts);
        assert!(res.converged, "{} matrix-free", s.name());
        assert!(res.true_residual(&csr, &b) < 1e-4, "{}", s.name());
    }
}

#[test]
fn serial_mode_is_thread_count_invariant() {
    // Regression for the `threads >= 2` dispatch bug: a requested Serial
    // summation order must never silently become the chunked tree when a
    // team is attached. The team may move work across shards, but the
    // reduction the caller asked for — and therefore every bit of the
    // trace — has to stay exactly what a single-threaded solve produces.
    let a = gen::poisson2d(24);
    let b = gen::poisson2d_rhs(24);
    let base = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(600)
        .with_dot_mode(DotMode::Serial);
    for s in all_solvers() {
        let one = s.solve(&a, &b, None, &base.clone().with_threads(1));
        let four = s.solve(&a, &b, None, &base.clone().with_threads(4));
        assert_eq!(one.iterations, four.iterations, "{}", s.name());
        assert_eq!(one.x, four.x, "{}: x bits", s.name());
        assert_eq!(
            one.residual_norms,
            four.residual_norms,
            "{}: trace bits",
            s.name()
        );
    }
}

#[test]
fn tree_mode_traces_are_bit_identical_across_team_widths() {
    // The tentpole determinism claim: with `DotMode::Tree` the fixed
    // 256-chunk leaf layout and deterministic tree fan-in make every
    // reduction — and therefore whole solver traces — bit-identical for
    // any team width. 182² = 33124 ≥ 4·GRAIN, so a width-4 team genuinely
    // dispatches multi-shard epochs instead of degenerating to the caller.
    let a = gen::poisson2d(182);
    let b = gen::poisson2d_rhs(182);
    let solvers: Vec<Box<dyn CgVariant>> = vec![
        Box::new(StandardCg::new()),
        Box::new(ChronopoulosGearCg::new()),
        Box::new(PipelinedCg::new()),
        Box::new(OverlapK1Cg::new().with_resync(20)),
        Box::new(LookaheadCg::new(2).with_resync(12)),
    ];
    let base = SolveOptions::default()
        .with_tol(0.0)
        .with_max_iters(20)
        .with_dot_mode(DotMode::Tree);
    for s in solvers {
        let reference = s.solve(&a, &b, None, &base.clone().with_threads(1));
        for threads in [2usize, 4, 8] {
            let res = s.solve(&a, &b, None, &base.clone().with_threads(threads));
            assert_eq!(
                reference.iterations,
                res.iterations,
                "{} threads={threads}",
                s.name()
            );
            assert_eq!(
                reference.residual_norms,
                res.residual_norms,
                "{} threads={threads}: trace bits",
                s.name()
            );
            assert_eq!(reference.x, res.x, "{} threads={threads}: x bits", s.name());
        }
    }
}

#[test]
fn with_threads_clamps_to_host_parallelism() {
    use cg_lookahead::cg::solver::host_cpus;
    use cg_lookahead::par::Team;
    use std::sync::Arc;

    let cpus = host_cpus();

    // An over-ask is clamped, never oversubscribed.
    let o = SolveOptions::default().with_threads(cpus + 7);
    assert_eq!(o.threads(), cpus);

    // A satisfiable request is granted as asked.
    assert_eq!(SolveOptions::default().with_threads(1).threads(), 1);
    // threads=0 is treated as 1
    assert_eq!(SolveOptions::default().with_threads(0).threads(), 1);

    // An explicit team bypasses the clamp entirely — the caller owns the
    // width choice (failover tests need widths the host doesn't have).
    let wide = o.with_team(Arc::new(Team::new(cpus + 3)));
    assert_eq!(wide.threads(), cpus + 3);
}

#[test]
fn solvers_are_deterministic_across_runs() {
    let a = gen::rand_spd(40, 4, 1.5, 5);
    let b = gen::rand_vector(40, 6);
    let opts = SolveOptions::default().with_tol(1e-9);
    for s in all_solvers() {
        let r1 = s.solve(&a, &b, None, &opts);
        let r2 = s.solve(&a, &b, None, &opts);
        assert_eq!(r1.iterations, r2.iterations, "{}", s.name());
        assert_eq!(r1.x, r2.x, "{}: bit-identical reruns", s.name());
    }
}
