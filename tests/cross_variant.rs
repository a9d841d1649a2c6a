//! Integration: every CG variant × every problem generator.
//!
//! The paper's restructurings are supposed to be *the same iteration* as
//! CG; these tests cross-check solutions between all variants and against
//! dense Cholesky on every problem family the workload generators produce.

use cg_lookahead::cg::baselines::PrecondCg;
use cg_lookahead::cg::lookahead::LookaheadCg;
use cg_lookahead::cg::registry::{self, VARIANT_COUNT};
use cg_lookahead::cg::standard::StandardCg;
use cg_lookahead::cg::{CgVariant, SolveOptions};
use cg_lookahead::linalg::kernels::norm2;
use cg_lookahead::linalg::precond::{Ic0, Ssor};
use cg_lookahead::linalg::{gen, CsrMatrix, DenseMatrix};

/// The registry's canonical list plus the extra parameterizations this
/// suite has always exercised (other look-ahead depths, SSOR-PCG). Deriving
/// from the registry means a newly registered variant is cross-checked here
/// automatically; the count assertion keeps the two from drifting apart.
fn solvers(a: &CsrMatrix) -> Vec<Box<dyn CgVariant>> {
    let mut list = registry::all_variants(a);
    assert_eq!(list.len(), VARIANT_COUNT, "registry drifted");
    list.push(Box::new(LookaheadCg::new(1).with_resync(15)));
    list.push(Box::new(LookaheadCg::new(3).with_resync(10)));
    list.push(Box::new(PrecondCg::new(
        Ssor::new(a, 1.1).expect("ssor"),
        "pcg-ssor",
    )));
    assert_eq!(list.len(), VARIANT_COUNT + 3);
    list
}

fn problems() -> Vec<(&'static str, CsrMatrix, Vec<f64>)> {
    vec![
        ("poisson1d", gen::poisson1d(60), gen::rand_vector(60, 10)),
        ("poisson2d", gen::poisson2d(12), gen::poisson2d_rhs(12)),
        ("poisson3d", gen::poisson3d(5), gen::rand_vector(125, 11)),
        (
            "anisotropic",
            gen::anisotropic2d(10, 0.1),
            gen::rand_vector(100, 12),
        ),
        (
            "random-spd",
            gen::rand_spd(80, 5, 1.5, 13),
            gen::rand_vector(80, 14),
        ),
        ("27-point", gen::poisson3d_27pt(4), gen::rand_vector(64, 15)),
    ]
}

#[test]
fn all_variants_converge_on_all_problems() {
    let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(5000);
    for (pname, a, b) in problems() {
        let bn = norm2(&b);
        for s in solvers(&a) {
            let res = s.solve(&a, &b, None, &opts);
            assert!(
                res.converged,
                "{} on {pname}: {:?} after {} iterations",
                s.name(),
                res.termination,
                res.iterations
            );
            let rel = res.true_residual(&a, &b) / bn;
            assert!(
                rel < 1e-6,
                "{} on {pname}: true relative residual {rel:.2e}",
                s.name()
            );
        }
    }
}

#[test]
fn all_variants_agree_with_cholesky_on_small_problems() {
    let a = gen::rand_spd(40, 4, 2.0, 99);
    let b = gen::rand_vector(40, 98);
    let dense = DenseMatrix::from_rows(&a.to_dense()).expect("dense");
    let exact = dense.solve_spd(&b).expect("cholesky");
    let opts = SolveOptions::default().with_tol(1e-11).with_max_iters(2000);
    for s in solvers(&a) {
        let res = s.solve(&a, &b, None, &opts);
        assert!(res.converged, "{}: {:?}", s.name(), res.termination);
        for (i, (xi, ei)) in res.x.iter().zip(&exact).enumerate() {
            assert!(
                (xi - ei).abs() < 1e-6 * (1.0 + ei.abs()),
                "{}: x[{i}] = {xi} vs exact {ei}",
                s.name()
            );
        }
    }
}

#[test]
fn variants_agree_pairwise_on_poisson2d() {
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    let opts = SolveOptions::default().with_tol(1e-10);
    let reference = StandardCg::new().solve(&a, &b, None, &opts);
    for s in solvers(&a) {
        let res = s.solve(&a, &b, None, &opts);
        let d = cg_lookahead::linalg::kernels::dist2(&res.x, &reference.x);
        assert!(
            d < 1e-6 * (1.0 + norm2(&reference.x)),
            "{}: ‖x − x_std‖ = {d:.2e}",
            s.name()
        );
    }
}

#[test]
fn ic0_preconditioned_cg_beats_plain_cg_on_anisotropic() {
    let a = gen::anisotropic2d(20, 0.02);
    let b = gen::rand_vector(400, 5);
    let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(5000);
    let plain = StandardCg::new().solve(&a, &b, None, &opts);
    let pcg = PrecondCg::new(Ic0::new(&a).expect("ic0"), "pcg-ic0").solve(&a, &b, None, &opts);
    assert!(plain.converged && pcg.converged);
    assert!(
        pcg.iterations * 2 < plain.iterations,
        "IC(0) {} vs plain {}",
        pcg.iterations,
        plain.iterations
    );
}

#[test]
fn warm_starts_work_across_variants() {
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    let opts = SolveOptions::default().with_tol(1e-9);
    let first = StandardCg::new().solve(&a, &b, None, &opts);
    for s in solvers(&a) {
        let warm = s.solve(&a, &b, Some(&first.x), &opts);
        assert!(
            warm.converged,
            "{} warm start: {:?}",
            s.name(),
            warm.termination
        );
        assert!(
            warm.iterations <= first.iterations / 2,
            "{} warm start took {} iterations (cold {})",
            s.name(),
            warm.iterations,
            first.iterations
        );
    }
}

#[test]
fn dot_mode_does_not_change_convergence_shape() {
    use cg_lookahead::linalg::kernels::DotMode;
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    for mode in [DotMode::Serial, DotMode::Tree] {
        let opts = SolveOptions::default().with_tol(1e-9).with_dot_mode(mode);
        let res = StandardCg::new().solve(&a, &b, None, &opts);
        assert!(res.converged, "{mode:?}");
        let la = LookaheadCg::new(2)
            .with_resync(15)
            .solve(&a, &b, None, &opts);
        assert!(la.converged, "lookahead with {mode:?}");
    }
}

#[test]
fn split_ic0_preconditioned_lookahead_and_sstep() {
    // The paper has no preconditioned formulation; the split operator
    // Â = L⁻¹AL⁻ᵀ gives one for free. The preconditioned look-ahead and
    // s-step solvers must converge in roughly PCG-IC(0)'s iteration count
    // and map back to the true solution.
    use cg_lookahead::cg::sstep::SStepCg;
    use cg_lookahead::linalg::precond::SplitIc0;

    let a = gen::anisotropic2d(16, 0.05);
    let b = gen::rand_vector(256, 21);
    let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(4000);

    let plain = StandardCg::new().solve(&a, &b, None, &opts);
    let pcg = PrecondCg::new(Ic0::new(&a).expect("ic0"), "pcg-ic0").solve(&a, &b, None, &opts);
    assert!(plain.converged && pcg.converged);

    let split = SplitIc0::new(&a).expect("ic0");
    let b_hat = split.split_rhs(&b);

    for solver in [
        Box::new(LookaheadCg::new(2).with_resync(12)) as Box<dyn CgVariant>,
        Box::new(SStepCg::chebyshev(4)),
        Box::new(StandardCg::new()),
    ] {
        let res = solver.solve(&split, &b_hat, None, &opts);
        assert!(res.converged, "{}: {:?}", solver.name(), res.termination);
        // preconditioning pays: far fewer iterations than plain CG
        assert!(
            res.iterations * 2 < plain.iterations,
            "{}: {} iterations vs plain {}",
            solver.name(),
            res.iterations,
            plain.iterations
        );
        // and the mapped-back solution solves the ORIGINAL system
        let x = split.unsplit_solution(&res.x);
        let ax = a.spmv(&x);
        let mut r = vec![0.0; 256];
        cg_lookahead::linalg::kernels::sub(&b, &ax, &mut r);
        assert!(
            norm2(&r) < 1e-6 * norm2(&b),
            "{}: residual {}",
            solver.name(),
            norm2(&r)
        );
    }
}
