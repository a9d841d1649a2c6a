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

        let mut z = self.precond.apply_alloc(&r);
        drv.counts.precond_applies += 1;
        let p = z.clone();
        drv.counts.vector_ops += 1;
        let mut w = vec![0.0; n];

        let rz = opts.dot(&r, &z);
        let rr = opts.dot(&r, &r);
        drv.counts.dots += 2;
        drv.record(rr);
        let mut st = State { x, r, p, rz, rr };

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                if guard::check_pivot(st.rz).is_err() {
                    return Step::breakdown(it);
                }
                // matvec carries (p, A·p) in its sweep
                let pap = opts.matvec_dot(a, &st.p, &mut w, &mut drv.counts);
                if guard::check_pivot(pap).is_err() {
                    return Step::breakdown(it);
                }
                let lambda = st.rz / pap;
                opts.axpy(lambda, &st.p, &mut st.x, &mut drv.counts);
                drv.counts.scalar_ops += 1;
                // r ← r − λ·w carries (r,r) in its sweep
                st.rr = opts.axpy_norm2_sq(-lambda, &w, &mut st.r, &mut drv.counts);

                self.precond.apply(&st.r, &mut z);
                drv.counts.precond_applies += 1;
                let rz_next = opts.dot(&st.r, &z);
                drv.counts.dots += 1;

                drv.record(st.rr);
                let verdict = Step::after(it, st.rr, drv.thresh_sq);
                if verdict.is_next() {
                    let beta = rz_next / st.rz;
                    drv.counts.scalar_ops += 1;
                    opts.xpay(&z, beta, &mut st.p, &mut drv.counts);
                    st.rz = rz_next;
                }
                verdict
            },
        );
        drv.finish(st.x, termination, iterations)
    }
}

/// Loop-carried state; at the loop top only `[x, r, p]` and the scalars
/// `[rz, rr]` are live — `z` is overwritten by the next preconditioner
/// apply before any read, and `w` by the matvec — so that is what a
/// checkpoint snapshots.
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;
    use vr_linalg::precond::{Ic0, IdentityPrecond, Jacobi, Ssor};

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
