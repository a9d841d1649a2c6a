//! Preconditioned CG.
//!
//! The paper (§1) notes CG "can be quite efficient when coupled with
//! various preconditioning techniques". `PrecondCg` wraps the standard
//! iteration with `z = M⁻¹·r`; the preconditioner choice also changes the
//! *parallel* profile (Jacobi is depth-1; SSOR/IC(0) serialize sweeps),
//! which E10 exploits.

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult};
use vr_linalg::precond::Preconditioner;
use vr_linalg::LinearOperator;

/// Preconditioned CG with an owned preconditioner.
pub struct PrecondCg<P: Preconditioner> {
    precond: P,
    label: String,
}

impl<P: Preconditioner> PrecondCg<P> {
    /// Construct with a label for reports (e.g. "pcg-jacobi").
    pub fn new(precond: P, label: impl Into<String>) -> Self {
        PrecondCg {
            precond,
            label: label.into(),
        }
    }

    /// Borrow the preconditioner.
    pub fn preconditioner(&self) -> &P {
        &self.precond
    }
}

impl<P: Preconditioner> CgVariant for PrecondCg<P> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The preconditioner application is an opaque second operator the
        // sweep engine cannot stage, and it has no f32 form.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let n = a.dim();
        assert_eq!(
            self.precond.dim(),
            n,
            "preconditioner dimension mismatches operator"
        );
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);

        let mut st = State {
            x,
            r,
            p: vec![0.0; n],
            z: vec![0.0; n],
            ..State::default()
        };
        // The start-up, and a warm restart, from `(x, r)`: `z = M⁻¹·r`,
        // `p = z`, `(r, z)` and `(r, r)`.
        let start = |drv: &mut Driver<'_>, st: &mut State| {
            self.precond.apply(&st.r, &mut st.z);
            drv.counts.precond_applies += 1;
            st.p.copy_from_slice(&st.z);
            drv.counts.vector_ops += 1;
            st.rz = guard::guarded_dot(opts, &st.r, &st.z, &mut drv.rstats);
            st.rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
            drv.counts.dots += 2;
        };
        start(&mut drv, &mut st);
        drv.record(st.rr);
        let mut w = vec![0.0; n];

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                if guard::check_pivot(st.rz).is_err() {
                    return Step::breakdown(it);
                }
                // matvec carries (p, A·p) in its sweep
                let (c, s) = (&mut drv.counts, &mut drv.rstats);
                let pap = guard::guarded_matvec_dot(opts, a, &st.p, &mut w, c, s);
                if guard::check_pivot(pap).is_err() {
                    return Step::breakdown(it);
                }
                let lambda = st.rz / pap;
                opts.axpy(lambda, &st.p, &mut st.x, &mut drv.counts);
                drv.counts.scalar_ops += 1;
                // r ← r − λ·w carries (r,r) in its sweep
                let rr = opts.axpy_norm2_sq(-lambda, &w, &mut st.r, &mut drv.counts);
                st.rr = guard::retry_reduction(opts, &st.r, &st.r, rr, &mut drv.rstats);

                self.precond.apply(&st.r, &mut st.z);
                drv.counts.precond_applies += 1;
                let rz_next = guard::guarded_dot(opts, &st.r, &st.z, &mut drv.rstats);
                drv.counts.dots += 1;

                drv.record(st.rr);
                let verdict = Step::after(it, st.rr, drv.thresh_sq);
                if verdict.is_next() {
                    let beta = rz_next / st.rz;
                    drv.counts.scalar_ops += 1;
                    opts.xpay(&st.z, beta, &mut st.p, &mut drv.counts);
                    st.rz = rz_next;
                }
                verdict
            },
            |drv, st, _| start(drv, st),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

/// Loop-carried state; at the loop top only `[x, r, p]` and the scalars
/// `[rz, rr]` are live — `z` is overwritten by the next preconditioner
/// apply before any read, and `w` by the matvec — so that is what a
/// checkpoint snapshots.
#[derive(Default)]
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    /// `M⁻¹·r`, dead at the loop top.
    z: Vec<f64>,
    /// `(r, z)` with `z = M⁻¹·r`.
    rz: f64,
    /// `(r, r)`.
    rr: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [&mut self.x, &mut self.r, &mut self.p],
            &mut [&mut self.rz, &mut self.rr],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;
    use vr_linalg::precond::{Ic0, IdentityPrecond, Jacobi, Ssor};

    #[test]
    fn guarded_recurrence_dots_ride_out_a_fault_storm() {
        // one NaN per thousand dot partials (E21c's cell): every eager
        // recurrence dot detects and retries its reduction, so the
        // checkpoint ring is left for the faults a retry cannot repair
        // and the solve converges with a backed residual
        use crate::resilience::{solve_with_recovery as heal, FaultKind, RecoveryPolicy};
        use vr_par::fault::FaultSite;
        let (a, b) = (gen::poisson2d(32), gen::poisson2d_rhs(32));
        let inj = crate::resilience::SeededInjector::new(0xE21, 1e-3, FaultKind::Nan);
        let policy = RecoveryPolicy::default().with_checkpoint_period(8);
        let opts = SolveOptions::default()
            .with_tol(1e-8)
            .with_dot_mode(vr_linalg::kernels::DotMode::Tree)
            .with_injector(std::sync::Arc::new(inj.at_site(FaultSite::DotPartial)))
            .with_recovery(policy.with_max_rollbacks(64).with_max_restarts(100));
        let pcg = PrecondCg::new(Jacobi::new(&a).unwrap(), "pcg-jacobi");
        let res = heal(&pcg, &a, &b, None, &opts.with_max_iters(20_000));
        assert!(res.converged, "{:?} {:?}", res.termination, res.recovery);
        let truth = res.true_residual(&a, &b);
        assert!(truth <= 1e-8 * vr_linalg::kernels::norm2(&b), "{truth:e}");
        assert!((res.final_residual - truth).abs() <= 1e-12 * truth);
    }

    #[test]
    fn identity_precond_equals_standard_cg() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let pcg = PrecondCg::new(IdentityPrecond::new(a.nrows()), "pcg-identity")
            .solve(&a, &b, None, &opts);
        assert!(pcg.converged);
        assert_eq!(std.iterations, pcg.iterations);
        for (s, o) in std.residual_norms.iter().zip(&pcg.residual_norms) {
            assert!((s - o).abs() <= 1e-9 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn stronger_preconditioners_need_fewer_iterations() {
        // Anisotropic problem: unpreconditioned CG struggles; IC(0) wins.
        let a = gen::anisotropic2d(16, 0.05);
        let b = gen::rand_vector(256, 3);
        let opts = SolveOptions::default().with_tol(1e-8);
        let plain = StandardCg::new().solve(&a, &b, None, &opts);
        let jac = PrecondCg::new(Jacobi::new(&a).unwrap(), "pcg-jacobi").solve(&a, &b, None, &opts);
        let ssor =
            PrecondCg::new(Ssor::new(&a, 1.2).unwrap(), "pcg-ssor").solve(&a, &b, None, &opts);
        let ic = PrecondCg::new(Ic0::new(&a).unwrap(), "pcg-ic0").solve(&a, &b, None, &opts);
        assert!(plain.converged && jac.converged && ssor.converged && ic.converged);
        assert!(
            ssor.iterations < plain.iterations,
            "ssor {} !< plain {}",
            ssor.iterations,
            plain.iterations
        );
        assert!(
            ic.iterations < plain.iterations,
            "ic0 {} !< plain {}",
            ic.iterations,
            plain.iterations
        );
        assert!(ic.true_residual(&a, &b) < 1e-5);
    }

    #[test]
    fn precond_applies_counted() {
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let res = PrecondCg::new(Jacobi::new(&a).unwrap(), "pcg-jacobi").solve(
            &a,
            &b,
            None,
            &SolveOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.counts.precond_applies, res.iterations + 1);
    }

    #[test]
    #[should_panic(expected = "preconditioner dimension")]
    fn dimension_mismatch_panics() {
        let a = gen::poisson1d(8);
        let res = PrecondCg::new(IdentityPrecond::new(4), "bad");
        let _ = res.solve(&a, &[1.0; 8], None, &SolveOptions::default());
    }

    #[test]
    fn name_is_label() {
        let p = PrecondCg::new(IdentityPrecond::new(4), "pcg-custom");
        assert_eq!(p.name(), "pcg-custom");
        assert_eq!(p.preconditioner().dim(), 4);
    }
}
