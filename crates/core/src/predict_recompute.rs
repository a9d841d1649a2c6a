//! Predict-and-recompute CG (Chen & Carson, arXiv 1905.01549).
//!
//! Pipelined CG variants buy reduction overlap by replacing directly
//! computed quantities with recurrences, and the recurrences drift: the
//! attainable accuracy floor of Ghysels-Vanroose pipelined CG is orders of
//! magnitude above standard CG's. The predict-and-recompute idea restores
//! most of that floor while keeping the communication shape:
//!
//! * **predict** — the scalar needed *immediately* (the next β) is
//!   predicted from the quadratic identity
//!   `ν′ = (r−αs, r−αs) = ν − 2αδ + α²γ` using already-known dots, so the
//!   direction update never waits on a reduction;
//! * **recompute** — every inner product is then *recomputed from the
//!   actual vectors* in one batched split-phase reduction, and the
//!   recomputed values (not the predictions) drive the next iteration.
//!   Scalars therefore never compound recurrence error across iterations.
//!
//! Two variants:
//!
//! * [`PredictRecomputeCg`] (PR-CG): `s = A·p` is a true matvec each
//!   iteration — one matvec, one batched 4-dot reduction launched after it
//!   and consumed at the next loop top. Attainable accuracy ≈ standard CG.
//! * [`PipelinedPrCg`]: additionally maintains `w = A·r`, `u = A·s` by
//!   recurrences so the single matvec `c = A·w` overlaps the in-flight
//!   reduction batch (the Ghysels-Vanroose communication shape with the
//!   predict-and-recompute scalar schedule).
//!
//! Per iteration both launch the same four dots, as two shared-left
//! split-phase pairs ([`SolveOptions::dot2_deferred`]):
//! `(r,r), (r,s)` and `(s,s), (s,p)`.

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult};
use crate::standard::StandardCg;
use vr_linalg::LinearOperator;

/// PR-CG: predict-and-recompute CG with a true matvec `s = A·p` per
/// iteration (the non-pipelined variant of Chen & Carson 1905.01549).
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictRecomputeCg;

impl PredictRecomputeCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        PredictRecomputeCg
    }
}

/// Pipelined PR-CG: `s = A·p`, `w = A·r`, `u = A·s` maintained by
/// recurrences; the one matvec per iteration (`c = A·w`) overlaps the
/// batched reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelinedPrCg;

impl PipelinedPrCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        PipelinedPrCg
    }
}

impl CgVariant for PredictRecomputeCg {
    fn name(&self) -> String {
        "predict-recompute-cg".into()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The predicted/recomputed scalar pairs straddle the matvec — no
        // single-pass schedule exists — and there is no f32 form.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        solve_pr(a, b, x0, opts, false)
    }

    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        Some(Box::new(StandardCg::new()))
    }

    fn depth(&self) -> usize {
        1
    }
}

impl CgVariant for PipelinedPrCg {
    fn name(&self) -> String {
        "pipelined-pr-cg".into()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The predicted/recomputed scalar pairs straddle the matvec — no
        // single-pass schedule exists — and there is no f32 form.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        solve_pr(a, b, x0, opts, true)
    }

    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        Some(Box::new(PredictRecomputeCg::new()))
    }

    fn depth(&self) -> usize {
        1
    }
}

/// Loop-carried state; a checkpoint snapshots the full loop-top vector
/// state `[x, r, p, s, w, u]` plus the four recomputed dots
/// `[nu, mu, delta, gamma]`. `w` and `u` exist only in the pipelined
/// schedule (empty otherwise); `c` is recomputed.
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    s: Vec<f64>,
    w: Vec<f64>,
    u: Vec<f64>,
    /// `(r, r)`.
    nu: f64,
    /// `(s, p)`.
    mu: f64,
    /// `(r, s)`.
    delta: f64,
    /// `(s, s)`.
    gamma: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [
                &mut self.x,
                &mut self.r,
                &mut self.p,
                &mut self.s,
                &mut self.w,
                &mut self.u,
            ],
            &mut [&mut self.nu, &mut self.mu, &mut self.delta, &mut self.gamma],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The start-up, and a warm restart, from `(x, r)`: `p = r`,
    /// `s = A·p`; the pipelined schedule also sets `w = A·r` (= `s` here,
    /// but kept as its own buffer) and `u = A·s`. Then the four dots,
    /// through the split-phase launch the loop uses (consumed at once —
    /// there is nothing to overlap yet).
    fn start(&mut self, a: &dyn LinearOperator, opts: &SolveOptions, counts: &mut crate::OpCounts) {
        self.p.copy_from_slice(&self.r);
        opts.matvec(a, &self.p, &mut self.s, counts);
        if !self.w.is_empty() {
            self.w.copy_from_slice(&self.s);
            opts.matvec(a, &self.s, &mut self.u, counts);
        }
        self.recompute(opts, counts, |_, _| {});
    }

    /// The recompute batch: all four dots from the actual vectors, as two
    /// shared-left split-phase pairs `(r,r), (r,s)` and `(s,s), (s,p)`,
    /// consumed after `overlap` runs with the batch in flight.
    fn recompute(
        &mut self,
        opts: &SolveOptions,
        counts: &mut crate::OpCounts,
        overlap: impl FnOnce(&mut Self, &mut crate::OpCounts),
    ) {
        let (nu_p, delta_p) = opts.dot2_deferred(&self.r, &self.r, &self.s, counts);
        let (gamma_p, mu_p) = opts.dot2_deferred(&self.s, &self.s, &self.p, counts);
        overlap(self, counts);
        self.nu = nu_p.wait();
        self.delta = delta_p.wait();
        self.gamma = gamma_p.wait();
        self.mu = mu_p.wait();
    }
}

/// The shared predict-and-recompute loop. `pipelined` selects the vector
/// schedule: `false` recomputes `s = A·p` directly (PR-CG), `true`
/// maintains `s`, `w`, `u` by recurrences around the single matvec
/// `c = A·w` (pipelined PR-CG). The scalar schedule — predict `ν′`,
/// recompute all four dots — is identical.
fn solve_pr(
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    pipelined: bool,
) -> SolveResult {
    let n = a.dim();
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);

    let pipe = if pipelined { n } else { 0 };
    let mut c = vec![0.0; pipe];
    let mut st = State {
        x,
        r,
        p: vec![0.0; n],
        s: vec![0.0; n],
        w: vec![0.0; pipe],
        u: vec![0.0; pipe],
        nu: 0.0,
        mu: 0.0,
        delta: 0.0,
        gamma: 0.0,
    };
    st.start(a, opts, &mut drv.counts);
    drv.record(st.nu);

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.nu,
        |drv, st, it| {
            if guard::check_pivot(st.mu).is_err() || guard::check_pivot(st.nu).is_err() {
                return Step::breakdown(it);
            }
            let alpha = st.nu / st.mu;
            // Predict ν′ = (r − αs, r − αs) from the recomputed dots of
            // this loop top — β never waits on a reduction.
            let nu_pred = opts.scalar(st.nu - 2.0 * alpha * st.delta + alpha * alpha * st.gamma);
            let beta = nu_pred / st.nu;
            drv.counts.scalar_ops += 3;

            opts.axpy(alpha, &st.p, &mut st.x, &mut drv.counts);
            opts.axpy(-alpha, &st.s, &mut st.r, &mut drv.counts);
            if pipelined {
                // w = A·r maintained by recurrence: w ← w − α·u.
                opts.axpy(-alpha, &st.u, &mut st.w, &mut drv.counts);
            }
            opts.xpay(&st.r, beta, &mut st.p, &mut drv.counts);
            if pipelined {
                // s = A·p by recurrence, then recompute every dot from the
                // actual vectors; the matvec c = A·w runs with the batch
                // in flight and lands in u ← c + β·u.
                opts.xpay(&st.w, beta, &mut st.s, &mut drv.counts);
                st.recompute(opts, &mut drv.counts, |st, counts| {
                    opts.matvec(a, &st.w, &mut c, counts);
                    opts.xpay(&c, beta, &mut st.u, counts);
                });
            } else {
                // True matvec s = A·p, then the recompute batch. The four
                // dots launch split-phase and are consumed after the loop
                // tail bookkeeping — on the paper's machine they overlap
                // the next iteration's control flow.
                opts.matvec(a, &st.p, &mut st.s, &mut drv.counts);
                st.recompute(opts, &mut drv.counts, |_, _| {});
            }
            drv.record(st.nu);
            Step::after(it, st.nu, drv.thresh_sq)
        },
        |drv, st, _| st.start(a, opts, &mut drv.counts),
    );
    drv.finish(st.x, &mut st.r, termination, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;
    use vr_linalg::kernels::DotMode;

    #[test]
    fn pr_cg_converges_and_matches_standard() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let pr = PredictRecomputeCg::new().solve(&a, &b, None, &opts);
        assert!(pr.converged, "{:?}", pr.termination);
        let m = std.residual_norms.len().min(pr.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], pr.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-5 * (1.0 + s.abs()),
                "iter {i}: {s} vs {o}"
            );
        }
    }

    #[test]
    fn pipelined_pr_cg_converges_and_matches_standard() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let pr = PipelinedPrCg::new().solve(&a, &b, None, &opts);
        assert!(pr.converged, "{:?}", pr.termination);
        let m = std.residual_norms.len().min(pr.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], pr.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-4 * (1.0 + s.abs()),
                "iter {i}: {s} vs {o}"
            );
        }
    }

    #[test]
    fn operation_shape_per_iteration() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        // PR-CG: 1 matvec + 4 dots per iteration; pipelined PR-CG the same
        // (its startup costs one extra matvec for u = A·s).
        let pr = PredictRecomputeCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert!(pr.converged);
        let per = pr.counts.per_iteration(pr.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.2, "matvecs {}", per.matvecs);
        assert!((per.dots - 4.0).abs() < 0.4, "dots {}", per.dots);
        let pp = PipelinedPrCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert!(pp.converged);
        let per = pp.counts.per_iteration(pp.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.2, "matvecs {}", per.matvecs);
        assert!((per.dots - 4.0).abs() < 0.4, "dots {}", per.dots);
    }

    #[test]
    fn dot_modes_and_threads_converge() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        for mode in [DotMode::Serial, DotMode::Tree] {
            let opts = SolveOptions::default().with_tol(1e-9).with_dot_mode(mode);
            for v in [
                Box::new(PredictRecomputeCg::new()) as Box<dyn CgVariant>,
                Box::new(PipelinedPrCg::new()),
            ] {
                let res = v.solve(&a, &b, None, &opts);
                assert!(res.converged, "{} with {mode:?}", v.name());
                assert!(res.true_residual(&a, &b) < 1e-6);
            }
        }
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(5);
        for v in [
            Box::new(PredictRecomputeCg::new()) as Box<dyn CgVariant>,
            Box::new(PipelinedPrCg::new()),
        ] {
            let res = v.solve(&a, &[0.0; 5], None, &SolveOptions::default());
            assert!(res.converged, "{}", v.name());
            assert_eq!(res.iterations, 0, "{}", v.name());
        }
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(10, 0.2, -1.0);
        let b = gen::rand_vector(10, 4);
        for v in [
            Box::new(PredictRecomputeCg::new()) as Box<dyn CgVariant>,
            Box::new(PipelinedPrCg::new()),
        ] {
            let res = v.solve(&a, &b, None, &SolveOptions::default());
            assert!(
                !res.converged || res.true_residual(&a, &b) < 1e-6 * vr_linalg::kernels::norm2(&b),
                "{}: dishonest {:?}",
                v.name(),
                res.termination
            );
        }
    }

    #[test]
    fn backoff_ladder() {
        assert_eq!(
            PipelinedPrCg::new().backoff().unwrap().name(),
            "predict-recompute-cg"
        );
        assert_eq!(
            PredictRecomputeCg::new().backoff().unwrap().name(),
            "standard-cg"
        );
    }
}
