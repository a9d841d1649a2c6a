//! Standard Hestenes-Stiefel conjugate gradient iteration (paper §2).
//!
//! This is the baseline the paper restructures. Per iteration: one SpMV,
//! two inner products **in serial dependency** (`(r,r)` gates `α` gates `p`
//! gates `Ap` gates `(p,Ap)` gates `λ`), three vector updates.

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::exec::Exec;
use crate::instrument::OpCounts;
use crate::resilience::guard::{self, GuardSignal, ResidualGuard};
use crate::solver::{CgVariant, Execution, SolveOptions, SolveResult, Termination};
use vr_linalg::LinearOperator;

/// Standard CG's twin, the `f32`-storage loop; its step also runs under
/// the whole-iteration sweep.
const TWINS: Twins<StandardCg> = Twins {
    mixed: Some(crate::mixed::solve_standard),
    sweep: true,
};

/// Loop-carried state; a checkpoint snapshots `[x, r, p]` and `[rr]`.
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    rr: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [&mut self.x, &mut self.r, &mut self.p],
            &mut [&mut self.rr],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The start-up, and a warm restart: the direction starts from `r`,
    /// whose squared norm is `rr`.
    fn start(&mut self, rr: f64, counts: &mut OpCounts) {
        self.p.copy_from_slice(&self.r);
        self.rr = rr;
        counts.vector_ops += 1;
    }
}

/// Standard CG solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardCg;

impl StandardCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        StandardCg
    }
}

impl CgVariant for StandardCg {
    fn name(&self) -> String {
        "standard-cg".into()
    }

    fn supports(&self, execution: Execution) -> bool {
        TWINS.supports(execution)
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        if let Some(res) = driver::twin(self, &TWINS, a, b, x0, opts) {
            return res;
        }
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let mut ex = Exec::new(a, opts);
        let n = a.dim();
        let mut st = State {
            x,
            r,
            p: vec![0.0; n],
            rr: 0.0,
        };
        // w = A·p (the sweep evaluates it in-band and leaves w untouched)
        let mut w = vec![0.0; n];
        let rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
        drv.counts.dots += 1;
        st.start(rr, &mut drv.counts);
        drv.guard = ResidualGuard::new(a, b, opts, st.rr);
        drv.record(st.rr);

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                // Under the fused policy this iteration runs in three
                // sweeps: matvec+(p,Ap) fused, then x/r updates+(r,r) fused,
                // then the direction xpay. Per kernel the solver keeps w
                // and fuses around it; the whole-iteration sweep trades the
                // w store for a second in-band operator evaluation.
                let pap = ex.matvec_dot(drv, &st.p, &mut w);
                if let Err(kind) = guard::check_pivot(pap) {
                    return Step::Fail(kind.termination(), it);
                }
                let lambda = opts.scalar(st.rr / pap);
                drv.counts.scalar_ops += 1;
                let mut rr_next = ex.update_xr(drv, lambda, &st.p, &w, &mut st.x, &mut st.r);

                // recovery hook: periodic true-residual check, residual
                // replacement, stagnation/divergence detection
                let mut replaced = false;
                match drv
                    .guard
                    .as_mut()
                    .map(|g| g.inspect(it + 1, &st.x, rr_next))
                {
                    None | Some(GuardSignal::Proceed) => {}
                    Some(GuardSignal::Replace { rr: rr_new }) => {
                        // residual replacement: adopt the true residual
                        // and restart the direction from it
                        if let Some(g) = drv.guard.as_mut() {
                            g.swap_residual(&mut st.r);
                        }
                        drv.counts.vector_ops += 1;
                        st.start(rr_new, &mut drv.counts);
                        rr_next = rr_new;
                        replaced = true;
                    }
                    Some(GuardSignal::Halt(t)) => {
                        drv.record(rr_next);
                        st.rr = rr_next;
                        // rollback can undo fault-driven divergence, but
                        // stagnation persists in the guard's window — a
                        // replay would halt again immediately
                        return if t == Termination::Stagnated {
                            Step::End(t, it + 1)
                        } else {
                            Step::Fail(t, it + 1)
                        };
                    }
                }

                // a claim (which a dropped partial can fake by shrinking
                // rr) is certified against the true residual by the driver
                drv.record(rr_next);
                let verdict = Step::after(it, rr_next, drv.thresh_sq);
                if verdict.is_next() && !replaced {
                    let alpha = opts.scalar(rr_next / st.rr);
                    drv.counts.scalar_ops += 1;
                    ex.xpay(drv, &st.r, alpha, &mut st.p);
                }
                st.rr = rr_next;
                verdict
            },
            |drv, st, rr| st.start(rr, &mut drv.counts),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_linalg::gen;
    use vr_linalg::DenseMatrix;

    fn solve_default(a: &vr_linalg::CsrMatrix, b: &[f64]) -> SolveResult {
        StandardCg::new().solve(a, b, None, &SolveOptions::default())
    }

    #[test]
    fn solves_poisson1d_exactly_in_n_iterations() {
        // CG converges in ≤ n iterations in exact arithmetic; for the 1-D
        // Laplacian with n distinct eigenvalues it takes exactly n (modulo
        // the rhs spectrum).
        let n = 20;
        let a = gen::poisson1d(n);
        let b = gen::rand_vector(n, 1);
        let res = solve_default(&a, &b);
        assert!(res.converged);
        assert!(res.iterations <= n + 1);
        assert!(res.true_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn matches_cholesky_on_small_spd() {
        let a = gen::rand_spd(25, 4, 2.0, 7);
        let b = gen::rand_vector(25, 8);
        let res = solve_default(&a, &b);
        assert!(res.converged);
        let dense = DenseMatrix::from_rows(&a.to_dense()).unwrap();
        let exact = dense.solve_spd(&b).unwrap();
        for (xi, ei) in res.x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-7, "{xi} vs {ei}");
        }
    }

    #[test]
    fn residuals_monotone_overall_on_poisson2d() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = solve_default(&a, &b);
        assert!(res.converged);
        // ‖r‖ in CG is not strictly monotone, but must shrink overall.
        let first = res.residual_norms[0];
        let last = *res.residual_norms.last().unwrap();
        assert!(last < 1e-9 * first.max(1.0));
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = gen::poisson1d(8);
        let b = vec![0.0; 8];
        let res = solve_default(&a, &b);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.x, vec![0.0; 8]);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let cold = solve_default(&a, &b);
        // warm start from the cold solution: should converge instantly
        let warm = StandardCg::new().solve(&a, &b, Some(&cold.x), &SolveOptions::default());
        assert!(warm.converged);
        assert!(warm.iterations <= 2, "warm iterations {}", warm.iterations);
    }

    #[test]
    fn op_counts_per_iteration_match_classic_cg() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = solve_default(&a, &b);
        let per = res.counts.per_iteration(res.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.1, "matvecs {}", per.matvecs);
        assert!((per.dots - 2.0).abs() < 0.2, "dots {}", per.dots);
        assert!(per.vector_ops <= 3.5, "vector ops {}", per.vector_ops);
    }

    #[test]
    fn indefinite_matrix_breaks_down() {
        let a = gen::tridiag_toeplitz(10, 0.5, -1.0); // indefinite
        let b = gen::rand_vector(10, 3);
        let res = solve_default(&a, &b);
        assert_eq!(res.termination, Termination::Breakdown);
    }

    #[test]
    fn max_iters_respected() {
        let a = gen::poisson2d(16);
        let b = gen::poisson2d_rhs(16);
        let res = StandardCg::new().solve(&a, &b, None, &SolveOptions::default().with_max_iters(3));
        assert_eq!(res.termination, Termination::MaxIterations);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn single_injected_fault_recovered_in_loop() {
        // one NaN strikes a reduction mid-solve; with a recovery policy the
        // guarded dot retries the reduction and the solve proceeds to the
        // fault-free answer — no restart ladder needed
        use crate::resilience::{FaultKind, RecoveryPolicy, SingleFault};
        use std::sync::Arc;
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let o = SolveOptions::default()
            .with_tol(1e-9)
            .with_injector(Arc::new(SingleFault::new(5000, FaultKind::Nan)))
            .with_recovery(RecoveryPolicy::default());
        let res = StandardCg::new().solve(&a, &b, None, &o);
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.recovery.faults_detected >= 1, "{:?}", res.recovery);
        assert!(res.true_residual(&a, &b) < 1e-7);
    }

    #[test]
    fn dropped_reductions_never_fake_convergence() {
        // a Drop fault shrinks rr toward 0, which *looks* like convergence;
        // the honesty property: whenever the solver claims convergence, the
        // true residual really is small — for any fault seed
        use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
        use std::sync::Arc;
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let bnorm = vr_linalg::kernels::norm2(&b);
        for seed in 0..6u64 {
            let o = SolveOptions::default()
                .with_tol(1e-8)
                .with_injector(Arc::new(SeededInjector::new(seed, 0.05, FaultKind::Drop)))
                .with_recovery(RecoveryPolicy::default());
            let res = StandardCg::new().solve(&a, &b, None, &o);
            if res.converged {
                let rel = res.true_residual(&a, &b) / bnorm;
                assert!(rel < 1e-6, "seed {seed}: claimed convergence at rel {rel}");
            }
        }
    }

    #[test]
    fn a_dropped_initial_reduction_never_fakes_convergence() {
        // a Drop on the very first reduction zeroes the initial (r, r),
        // which claims convergence before any iteration: that claim is
        // certified like any other, with or without a recovery policy
        use crate::resilience::{FaultKind, RecoveryPolicy, SingleFault};
        let (a, b) = (gen::poisson2d(10), gen::poisson2d_rhs(10));
        for recovery in [Some(RecoveryPolicy::default()), None] {
            let drop = std::sync::Arc::new(SingleFault::new(0, FaultKind::Drop));
            let opts = SolveOptions::default().with_tol(1e-8).with_injector(drop);
            let res = StandardCg::new().solve(&a, &b, None, &SolveOptions { recovery, ..opts });
            let (t, ctx) = (res.true_residual(&a, &b), format!("{:?}", res.termination));
            assert!(res.converged && res.iterations > 0, "{ctx}");
            assert!(t <= 1e-8 * vr_linalg::kernels::norm2(&b), "{ctx}: {t}");
            assert!((res.final_residual - t).abs() <= 1e-12 * t, "{ctx}");
        }
    }

    #[test]
    fn checkpoint_rollback_rescues_poisoned_iterate() {
        // a NaN in the scalar recurrence poisons x itself — beyond residual
        // replacement. With a checkpoint ring the solve rolls back ≤ C
        // iterations and replays (fresh injector draws), instead of
        // surfacing Breakdown to the restart ladder.
        use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
        use std::sync::Arc;
        use vr_par::fault::FaultSite;
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let mut total_rollbacks = 0usize;
        for seed in 0..10u64 {
            let inj = SeededInjector::new(seed, 0.02, FaultKind::Nan)
                .at_site(FaultSite::ScalarRecurrence);
            let o = SolveOptions::default()
                .with_tol(1e-9)
                .with_injector(Arc::new(inj))
                .with_recovery(RecoveryPolicy::default().with_checkpoint_period(8));
            let res = StandardCg::new().solve(&a, &b, None, &o);
            if res.recovery.rollbacks > 0 && res.converged {
                assert_eq!(
                    res.termination,
                    Termination::RecoveredConverged,
                    "seed {seed}"
                );
                assert!(res.true_residual(&a, &b) < 1e-7, "seed {seed}");
                total_rollbacks += res.recovery.rollbacks;
            }
        }
        assert!(total_rollbacks >= 1, "no seed exercised the rollback path");
    }

    #[test]
    fn rollback_disabled_by_default_keeps_breakdown_contract() {
        // checkpoint_period defaults to 0: a poisoned iterate still
        // surfaces Breakdown for the restart ladder, bit-for-bit as before
        use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
        use std::sync::Arc;
        use vr_par::fault::FaultSite;
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let inj =
            SeededInjector::new(11, 0.05, FaultKind::Nan).at_site(FaultSite::ScalarRecurrence);
        let o = SolveOptions::default()
            .with_tol(1e-9)
            .with_injector(Arc::new(inj))
            .with_recovery(RecoveryPolicy::default());
        let res = StandardCg::new().solve(&a, &b, None, &o);
        assert_eq!(res.recovery.rollbacks, 0);
        assert!(!res.converged || res.termination == Termination::Converged);
    }

    #[test]
    fn tree_dot_mode_converges_identically_shaped() {
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let serial = solve_default(&a, &b);
        let tree = StandardCg::new().solve(
            &a,
            &b,
            None,
            &SolveOptions::default().with_dot_mode(vr_linalg::kernels::DotMode::Tree),
        );
        assert!(tree.converged);
        // same iteration count up to ±2 (round-off differences only)
        assert!((tree.iterations as i64 - serial.iterations as i64).abs() <= 2);
    }
}
