//! Conjugate Residual iteration — the "large class" demonstration.
//!
//! §4 of the paper notes its recurrence relations are "one of a large class
//! of such relations". CR is the nearest sibling of CG (minimizes `‖r‖₂`
//! instead of the A-norm error; needs `(r,Ar)` and `(Ap,Ap)` instead of
//! `(r,r)` and `(p,Ap)`), and the same restructuring applies: with
//! `r⁺ = r − λAp`,
//!
//! ```text
//! (r⁺,Ar⁺)   = (r,Ar) − 2λ(Ar,Ap)... — expressible in iteration-n
//! (Ap⁺,Ap⁺)  inner products exactly as in §3
//! ```
//!
//! [`ConjugateResidual`] is the textbook method; [`OverlapCr`] applies the
//! paper's one-step overlap to it, carrying `(r,Ar)` and `(Ap,Ap)` by
//! scalar recurrences — evidence that the restructuring is method-generic,
//! not CG-specific.

use crate::driver::{self, Checkpoint, Driver, Step, Twins};
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult};
use vr_linalg::LinearOperator;

/// Classical conjugate residual iteration.
///
/// Per iteration: one matvec `Ar`, two inner products `(r,Ar)`, `(Ap,Ap)`
/// (serialized like standard CG's), recurrence `Ap⁺ = Ar⁺ + β·Ap`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConjugateResidual;

impl ConjugateResidual {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        ConjugateResidual
    }
}

impl CgVariant for ConjugateResidual {
    fn name(&self) -> String {
        "conjugate-residual".into()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let mut st = State::new(x, r, false);
        st.start(a, opts, &mut drv);
        drv.record(st.rr);

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                let apap = guard::guarded_dot(opts, &st.ap, &st.ap, &mut drv.rstats);
                drv.counts.dots += 1;
                if guard::check_pivot(apap).is_err() || guard::check_pivot(st.rar).is_err() {
                    return Step::breakdown(it);
                }
                let lambda = st.rar / apap;
                opts.axpy(lambda, &st.p, &mut st.x, &mut drv.counts);
                opts.axpy(-lambda, &st.ap, &mut st.r, &mut drv.counts);
                drv.counts.scalar_ops += 1;

                opts.matvec(a, &st.r, &mut st.ar, &mut drv.counts);
                let rar_next = guard::guarded_dot(opts, &st.r, &st.ar, &mut drv.rstats);
                st.rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
                drv.counts.dots += 2;
                drv.record(st.rr);
                let verdict = Step::after(it, st.rr, drv.thresh_sq);
                if verdict.is_next() {
                    let beta = rar_next / st.rar;
                    drv.counts.scalar_ops += 1;
                    opts.xpay(&st.r, beta, &mut st.p, &mut drv.counts);
                    opts.xpay(&st.ar, beta, &mut st.ap, &mut drv.counts);
                    st.rar = rar_next;
                }
                verdict
            },
            |drv, st, _| st.start(a, opts, drv),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

/// Loop-carried state of both CR iterations. CR declares no checkpoint
/// state, so a failed guard ends the solve with `Breakdown`.
#[derive(Default)]
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    /// `A·r`.
    ar: Vec<f64>,
    /// `A·p`.
    ap: Vec<f64>,
    /// `A·(A·p)`, carried by the overlapped iteration only (empty in CR).
    v: Vec<f64>,
    /// `(r, r)`.
    rr: f64,
    /// `(r, A·r)`.
    rar: f64,
    /// `(A·p, A·p)`, carried by the overlapped iteration only.
    apap: f64,
}

impl Checkpoint for State {
    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The state at `(x, r)`, with `A·(A·p)` carried when `overlap`.
    fn new(x: Vec<f64>, r: Vec<f64>, overlap: bool) -> Self {
        let n = r.len();
        State {
            x,
            r,
            p: vec![0.0; n],
            ar: vec![0.0; n],
            ap: vec![0.0; n],
            v: vec![0.0; if overlap { n } else { 0 }],
            ..State::default()
        }
    }

    /// The start-up, and a warm restart, from `(x, r)`: `A·r`, `p = r`,
    /// `A·p = A·r`, `(r, A·r)` and `(r, r)`; the overlapped iteration also
    /// forms `v = A·(A·p)` and `(A·p, A·p)`.
    fn start(&mut self, a: &dyn LinearOperator, opts: &SolveOptions, drv: &mut Driver<'_>) {
        opts.matvec(a, &self.r, &mut self.ar, &mut drv.counts);
        self.p.copy_from_slice(&self.r);
        self.ap.copy_from_slice(&self.ar);
        drv.counts.vector_ops += 2;
        self.rar = guard::guarded_dot(opts, &self.r, &self.ar, &mut drv.rstats);
        self.rr = guard::guarded_dot(opts, &self.r, &self.r, &mut drv.rstats);
        drv.counts.dots += 2;
        if !self.v.is_empty() {
            opts.matvec(a, &self.ap, &mut self.v, &mut drv.counts);
            self.apap = guard::guarded_dot(opts, &self.ap, &self.ap, &mut drv.rstats);
            drv.counts.dots += 1;
        }
    }
}

/// CR with the paper's §3 one-step overlap applied.
///
/// The scalars `(r,Ar)` and `(Ap,Ap)` of iteration n are computed from
/// inner products of iteration n−1 vectors, so their fan-ins overlap a full
/// iteration of other work. Carried state: `rar = (r,Ar)`,
/// `apap = (Ap,Ap)`; per-iteration direct inner products (on current
/// vectors, launchable immediately): `(Ar,Ap), (Ap,Ap)', (Ar,Ar)` where
/// `Ar` is this iteration's matvec product.
///
/// Derivation (exact algebra, only symmetry of A):
///
/// ```text
/// r⁺ = r − λAp;  Ar⁺ = Ar − λA(Ap)         — needs v = A·Ap (2nd matvec)
/// (r⁺,Ar⁺)  = (r,Ar) − 2λ(Ar,Ap) + λ²(Ap,v)
/// p⁺ = r⁺ + βp;  Ap⁺ = Ar⁺ + βAp
/// (Ap⁺,Ap⁺) = (Ar⁺,Ar⁺) + 2β(Ar⁺,Ap) + β²(Ap,Ap)
/// (Ar⁺,Ar⁺) = (Ar,Ar) − 2λ(Ar,v) + λ²(v,v)
/// (Ar⁺,Ap)  = (Ar,Ap) − λ(v,Ap)
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapCr;

impl OverlapCr {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        OverlapCr
    }
}

impl CgVariant for OverlapCr {
    fn name(&self) -> String {
        "overlap-cr".into()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let mut st = State::new(x, r, true);
        st.start(a, opts, &mut drv);
        drv.record(st.rr);

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                if guard::check_pivot(st.apap).is_err() || guard::check_pivot(st.rar).is_err() {
                    // near convergence the drifted recursive scalars can
                    // cross zero just before the threshold trips: the
                    // driver's ladder validates and restarts
                    return Step::Suspect(it);
                }
                // overlappable inner products on CURRENT vectors
                let dot = |x: &[f64], y: &[f64], drv: &mut Driver<'_>| {
                    guard::guarded_dot(opts, x, y, &mut drv.rstats)
                };
                let arap = dot(&st.ar, &st.ap, drv);
                let apv = dot(&st.ap, &st.v, drv);
                let arar = dot(&st.ar, &st.ar, drv);
                let arv = dot(&st.ar, &st.v, drv);
                let vv = dot(&st.v, &st.v, drv);
                let rw = dot(&st.r, &st.ap, drv); // for ‖r⁺‖ tracking
                let (apap, ww) = (st.apap, st.apap);
                drv.counts.dots += 6;

                let (rr, rar) = (st.rr, st.rar);
                let lambda = rar / apap;
                opts.axpy(lambda, &st.p, &mut st.x, &mut drv.counts);

                // scalar recurrences
                let rr_next = rr - 2.0 * lambda * rw + lambda * lambda * ww;
                let rar_next = rar - 2.0 * lambda * arap + lambda * lambda * apv;
                let arar_next = arar - 2.0 * lambda * arv + lambda * lambda * vv;
                let beta = rar_next / rar;
                let arnext_ap = arap - lambda * apv;
                let apap_next = arar_next + 2.0 * beta * arnext_ap + beta * beta * apap;
                drv.counts.scalar_ops += 14;

                drv.record(rr_next);
                let verdict = Step::after(it, rr_next, drv.thresh_sq);
                if verdict.is_next() {
                    // vector updates
                    opts.axpy(-lambda, &st.ap, &mut st.r, &mut drv.counts);
                    opts.axpy(-lambda, &st.v, &mut st.ar, &mut drv.counts);
                    opts.xpay(&st.r, beta, &mut st.p, &mut drv.counts);
                    opts.xpay(&st.ar, beta, &mut st.ap, &mut drv.counts);
                    opts.matvec(a, &st.ap, &mut st.v, &mut drv.counts);

                    st.rr = rr_next;
                    st.rar = rar_next;
                    st.apap = apap_next;
                }
                verdict
            },
            |drv, st, _| st.start(a, opts, drv),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Termination;
    use vr_linalg::gen;

    fn opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-8)
    }

    #[test]
    fn cr_converges_on_poisson2d() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = ConjugateResidual::new().solve(&a, &b, None, &opts());
        assert!(res.converged, "{:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn cr_residual_norm_is_monotone() {
        // CR minimizes ‖r‖₂ over the Krylov space: the residual history is
        // monotonically non-increasing (unlike CG's).
        let a = gen::rand_spd(50, 4, 1.5, 31);
        let b = gen::rand_vector(50, 32);
        let res = ConjugateResidual::new().solve(&a, &b, None, &opts());
        assert!(res.converged);
        for w in res.residual_norms.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-10),
                "CR residual increased: {} → {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn overlap_cr_matches_cr_iterates() {
        let a = gen::poisson2d(9);
        let b = gen::poisson2d_rhs(9);
        let cr = ConjugateResidual::new().solve(&a, &b, None, &opts());
        let ocr = OverlapCr::new().solve(&a, &b, None, &opts());
        assert!(ocr.converged, "{:?}", ocr.termination);
        let m = cr.residual_norms.len().min(ocr.residual_norms.len());
        for i in 0..m.saturating_sub(3) {
            let (s, o) = (cr.residual_norms[i], ocr.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-5 * (1.0 + s.abs()),
                "iter {i}: cr {s} vs overlap {o}"
            );
        }
    }

    #[test]
    fn overlap_cr_op_counts() {
        // 1 matvec + 6 dots per iteration: v = A·Ap serves both the Ar
        // recurrence and the (·,v) moments
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = OverlapCr::new().solve(&a, &b, None, &opts());
        assert!(res.converged);
        let per = res.counts.per_iteration(res.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.3, "matvecs {}", per.matvecs);
        assert!((per.dots - 6.0).abs() < 0.7, "dots {}", per.dots);
    }

    #[test]
    fn cr_equals_cg_solution_on_spd() {
        use crate::standard::StandardCg;
        let a = gen::rand_spd(30, 4, 2.0, 77);
        let b = gen::rand_vector(30, 78);
        let o = SolveOptions::default().with_tol(1e-11);
        let cg = StandardCg::new().solve(&a, &b, None, &o);
        let cr = ConjugateResidual::new().solve(&a, &b, None, &o);
        assert!(cr.converged);
        for (xi, yi) in cg.x.iter().zip(&cr.x) {
            assert!((xi - yi).abs() < 1e-7, "{xi} vs {yi}");
        }
    }

    #[test]
    fn zero_rhs_and_breakdown() {
        let a = gen::poisson1d(5);
        let res = ConjugateResidual::new().solve(&a, &[0.0; 5], None, &opts());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        let res = OverlapCr::new().solve(&a, &[0.0; 5], None, &opts());
        assert!(res.converged);

        let ind = gen::tridiag_toeplitz(8, 0.2, -1.0);
        let b = gen::rand_vector(8, 3);
        let res = ConjugateResidual::new().solve(&ind, &b, None, &opts());
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
