//! Chebyshev iteration — the zero-reduction comparator.
//!
//! The 1983-era alternative the paper is implicitly racing: Chebyshev
//! semi-iteration needs **no inner products at all** (its parameters come
//! from precomputed spectral bounds), so on the paper's machine its
//! per-iteration time is `log d + O(1)` — the floor the look-ahead
//! algorithm approaches. The price: it needs `[λ_min, λ_max]` up front,
//! converges slower than CG when the estimates are loose, and provides no
//! residual-norm feedback without paying for a reduction.
//!
//! Recurrence (standard three-term form on `[λ_min, λ_max]`):
//!
//! ```text
//! θ = (λ_max + λ_min)/2,  δ = (λ_max − λ_min)/2
//! x₁ = x₀ + r₀/θ
//! ρ₀ = 1/θ... with  σ = θ/δ:
//! ρ₁ = σ/(σ² − 1/2... (classical recursion below)
//! ```
//!
//! Implemented with the numerically standard recursion:
//! `α₀ = 1/θ`, `ρ₀ = 1/σ` where `σ = θ/δ`, then
//! `ρₖ = 1/(2σ − ρₖ₋₁)`, `αₖ = ρₖ·(2/δ)` — see Golub & Van Loan §10.1.5.

use crate::driver::{self, Checkpoint, Driver, Step, Twins};
use crate::solver::{CgVariant, SolveOptions, SolveResult};
use vr_linalg::eig;
use vr_linalg::LinearOperator;

/// Chebyshev iteration with spectral bounds supplied or Lanczos-estimated.
#[derive(Debug, Clone, Copy)]
pub struct ChebyshevIteration {
    /// Spectral interval, if known a priori (`None` = estimate by Lanczos).
    pub bounds: Option<(f64, f64)>,
    /// Check the true residual every `check_every` iterations (Chebyshev
    /// has no free residual estimate; this is its honest monitoring cost).
    pub check_every: usize,
}

impl ChebyshevIteration {
    /// Estimate the spectral interval with a short Lanczos run.
    #[must_use]
    pub fn auto() -> Self {
        ChebyshevIteration {
            bounds: None,
            check_every: 10,
        }
    }

    /// Use known spectral bounds.
    #[must_use]
    pub fn with_bounds(lambda_min: f64, lambda_max: f64) -> Self {
        ChebyshevIteration {
            bounds: Some((lambda_min, lambda_max)),
            check_every: 10,
        }
    }

    /// Set the residual-check period.
    #[must_use]
    pub fn check_every(mut self, every: usize) -> Self {
        self.check_every = every.max(1);
        self
    }
}

impl CgVariant for ChebyshevIteration {
    fn name(&self) -> String {
        match self.bounds {
            Some(_) => "chebyshev-iteration".into(),
            None => "chebyshev-iteration(auto)".into(),
        }
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
        let n = a.dim();
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let mut st = State {
            x,
            r,
            d: vec![0.0; n],
            rr: 0.0,
            rho: 0.0,
        };

        // spectral interval
        let (lo, hi) = match self.bounds {
            Some(be) => be,
            None => {
                let m = 30.min(n);
                let tri = eig::LanczosTridiagonal::run(a, m, 0xC4EB);
                drv.counts.matvecs += tri.steps();
                drv.counts.dots += 2 * tri.steps();
                let sb = tri.spectral_bounds();
                // widen: Ritz values approach from inside
                (sb.lambda_min * 0.9, sb.lambda_max * 1.05)
            }
        };
        assert!(
            lo > 0.0 && hi > lo,
            "Chebyshev needs a positive spectral interval, got [{lo}, {hi}]"
        );
        let theta = 0.5 * (hi + lo);
        let delta = 0.5 * (hi - lo);
        let sigma = theta / delta;

        // The start-up, and a warm restart, from `r` of squared norm `rr`:
        // the scaled update direction d = r/θ (x ← x + d) and ρ₀ = 1/σ.
        let start = |drv: &mut Driver<'_>, st: &mut State, rr: f64| {
            st.rr = rr;
            for (di, ri) in st.d.iter_mut().zip(&st.r) {
                *di = ri / theta;
            }
            drv.counts.vector_ops += 1;
            st.rho = 1.0 / sigma;
        };
        let rr = opts.dot(&st.r, &st.r);
        drv.counts.dots += 1;
        drv.record(rr);
        start(&mut drv, &mut st, rr);
        let mut w = vec![0.0; n];

        // `rr` is only refreshed every check_every iterations — the
        // streamed value is the latest *paid-for* residual, honest to this
        // method's reduction-avoidance contract
        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                opts.axpy(1.0, &st.d, &mut st.x, &mut drv.counts);
                // r ← r − A·d
                opts.matvec(a, &st.d, &mut w, &mut drv.counts);
                opts.axpy(-1.0, &w, &mut st.r, &mut drv.counts);

                // periodic (paid-for) residual check — the only reduction
                if (it + 1) % self.check_every == 0 || it + 1 == opts.max_iters {
                    st.rr = opts.dot(&st.r, &st.r);
                    drv.counts.dots += 1;
                    drv.record(st.rr);
                    let verdict = Step::after(it, st.rr, drv.thresh_sq);
                    if !verdict.is_next() {
                        return verdict;
                    }
                }

                // Chebyshev parameter recursion (no reductions)
                let rho_next = 1.0 / (2.0 * sigma - st.rho);
                let gamma = rho_next * st.rho; // = ρₖ·ρₖ₋₁
                drv.counts.scalar_ops += 2;
                // d ← ρₖ₊₁·(2/δ)·r + γ·d
                for (di, ri) in st.d.iter_mut().zip(&st.r) {
                    *di = rho_next * (2.0 / delta) * ri + gamma * *di;
                }
                drv.counts.vector_ops += 1;
                st.rho = rho_next;
                Step::Next
            },
            start,
        );

        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

/// The iterate, its recursively updated residual, the update direction
/// and the latest paid-for `(r, r)` and `ρ`. No checkpoint state is
/// declared.
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    d: Vec<f64>,
    rr: f64,
    rho: f64,
}

impl Checkpoint for State {
    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    fn opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-8).with_max_iters(5000)
    }

    #[test]
    fn converges_with_exact_bounds_on_poisson1d() {
        let n = 40;
        let a = gen::poisson1d(n);
        // exact spectrum of tridiag(−1,2,−1)
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let lo = 2.0 - 2.0 * h.cos();
        let hi = 2.0 + 2.0 * ((n as f64) * h).cos().abs();
        let b = gen::rand_vector(n, 5);
        let res = ChebyshevIteration::with_bounds(lo, hi).solve(&a, &b, None, &opts());
        assert!(res.converged, "{:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn auto_bounds_converge_on_poisson2d() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = ChebyshevIteration::auto().solve(&a, &b, None, &opts());
        assert!(res.converged, "{:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn needs_more_iterations_than_cg_but_fewer_dots() {
        let a = gen::poisson2d(14);
        let b = gen::poisson2d_rhs(14);
        let cg = StandardCg::new().solve(&a, &b, None, &opts());
        let ch = ChebyshevIteration::auto()
            .check_every(20)
            .solve(&a, &b, None, &opts());
        assert!(cg.converged && ch.converged);
        // CG is optimal in iterations; Chebyshev trades iterations for
        // reduction-freedom
        assert!(
            ch.iterations >= cg.iterations,
            "chebyshev {} < cg {}",
            ch.iterations,
            cg.iterations
        );
        let cg_dots_per_iter = cg.counts.dots as f64 / cg.iterations as f64;
        let ch_dots_per_iter = (ch.counts.dots as f64 - 60.0) / ch.iterations as f64; // minus Lanczos probe
        assert!(
            ch_dots_per_iter < 0.3 * cg_dots_per_iter,
            "chebyshev dots/iter {ch_dots_per_iter} vs cg {cg_dots_per_iter}"
        );
    }

    #[test]
    fn loose_bounds_slow_it_down() {
        let a = gen::poisson1d(30);
        let b = gen::rand_vector(30, 8);
        let h = std::f64::consts::PI / 31.0;
        let lo = 2.0 - 2.0 * h.cos();
        let hi = 4.0;
        let tight = ChebyshevIteration::with_bounds(lo, hi).solve(&a, &b, None, &opts());
        let loose =
            ChebyshevIteration::with_bounds(lo * 0.1, hi * 2.0).solve(&a, &b, None, &opts());
        assert!(tight.converged && loose.converged);
        assert!(
            loose.iterations > tight.iterations,
            "loose {} !> tight {}",
            loose.iterations,
            tight.iterations
        );
    }

    #[test]
    #[should_panic(expected = "positive spectral interval")]
    fn rejects_bad_interval() {
        let a = gen::poisson1d(8);
        let _ = ChebyshevIteration::with_bounds(2.0, 1.0).solve(&a, &[1.0; 8], None, &opts());
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(5);
        let res = ChebyshevIteration::with_bounds(0.1, 4.0).solve(&a, &[0.0; 5], None, &opts());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
