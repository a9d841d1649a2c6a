//! Chronopoulos-Gear CG: both inner products launched together.
//!
//! Per iteration: one SpMV `w = A·r`, two inner products `ρ = (r,r)`,
//! `μ = (r,w)` that depend only on `r` (so they launch simultaneously —
//! one serialized reduction instead of standard CG's two), and the scalar
//! identity
//!
//! ```text
//! (p,Ap) = (r,Ar) − β·(r,r)/λ_prev
//! ```
//!
//! (valid under CG orthogonality), giving `λ = ρ / (μ − β·ρ/λ_prev)`.
//! `Ap` is maintained by the recurrence `Ap ← w + β·Ap` — no extra matvec.

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::exec::Exec;
use crate::resilience::guard;
use crate::solver::{CgVariant, Execution, SolveOptions, SolveResult};
use vr_linalg::LinearOperator;

/// Chronopoulos-Gear CG has no mixed twin; its step also runs under the
/// whole-iteration sweep.
const TWINS: Twins<ChronopoulosGearCg> = Twins {
    mixed: None,
    sweep: true,
};

/// Loop-carried state; a checkpoint snapshots `[x, r, p, s, w]` and the
/// four carried scalars `[rho, mu, lambda_prev, rho_prev]` — `s = A·p`
/// and `w = A·r` are snapshotted rather than recomputed so a restore
/// costs zero matvecs.
#[derive(Default)]
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    s: Vec<f64>,
    w: Vec<f64>,
    /// `(r, r)`.
    rho: f64,
    /// `(r, A·r)`.
    mu: f64,
    lambda_prev: f64,
    rho_prev: f64,
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
            ],
            &mut [
                &mut self.rho,
                &mut self.mu,
                &mut self.lambda_prev,
                &mut self.rho_prev,
            ],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The start-up, and a warm restart, from `(x, r)`: `w = A·r`,
    /// `ρ = (r, r)` and `μ = (r, w)`, with no direction yet — `ρ_prev = 0`
    /// marks the step that takes `β = 0`.
    fn start(&mut self, drv: &mut Driver<'_>, a: &dyn LinearOperator, opts: &SolveOptions) {
        opts.matvec(a, &self.r, &mut self.w, &mut drv.counts);
        self.rho = guard::guarded_dot(opts, &self.r, &self.r, &mut drv.rstats);
        self.mu = guard::guarded_dot(opts, &self.r, &self.w, &mut drv.rstats);
        drv.counts.dots += 2;
        self.p.fill(0.0);
        self.s.fill(0.0);
        self.rho_prev = 0.0;
    }
}

/// Chronopoulos-Gear CG solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChronopoulosGearCg;

impl ChronopoulosGearCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        ChronopoulosGearCg
    }
}

impl CgVariant for ChronopoulosGearCg {
    fn name(&self) -> String {
        "chronopoulos-gear-cg".into()
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
        let n = a.dim();
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let mut ex = Exec::new(a, opts);

        let mut st = State {
            x,
            r,
            p: vec![0.0; n],
            s: vec![0.0; n], // s = A·p maintained by recurrence
            w: vec![0.0; n],
            ..State::default()
        };
        st.start(&mut drv, a, opts);
        drv.record(st.rho);

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rho,
            |drv, st, it| {
                let (beta, denom) = if st.rho_prev == 0.0 {
                    (0.0, st.mu)
                } else {
                    let beta = st.rho / st.rho_prev;
                    (beta, st.mu - beta * st.rho / st.lambda_prev)
                };
                drv.counts.scalar_ops += 3;
                if guard::check_pivot(denom).is_err() {
                    return Step::breakdown(it);
                }
                let lambda = st.rho / denom;

                st.rho_prev = st.rho;
                // p ← r + β·p ; s ← w + β·s (= A·p) ; x ← x + λ·p ;
                // r ← r − λ·s carrying ρ = (r,r); then the matvec
                // w = A·r carries μ = (r,w) in its sweep
                st.rho = ex.cg_update(
                    drv, beta, lambda, &mut st.r, &mut st.p, &st.w, &mut st.s, &mut st.x,
                );
                st.mu = ex.matvec_store_dot(drv, &st.r, &mut st.w);
                st.lambda_prev = lambda;
                drv.record(st.rho);
                Step::after(it, st.rho, drv.thresh_sq)
            },
            |drv, st, _| st.start(drv, a, opts),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Termination;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    #[test]
    fn converges_and_matches_standard_cg() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let cg2 = ChronopoulosGearCg::new().solve(&a, &b, None, &opts);
        assert!(cg2.converged, "{:?}", cg2.termination);
        let m = std.residual_norms.len().min(cg2.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], cg2.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-5 * (1.0 + s.abs()),
                "iter {i}: {s} vs {o}"
            );
        }
    }

    #[test]
    fn one_matvec_two_dots_per_iteration() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = ChronopoulosGearCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert!(res.converged);
        let per = res.counts.per_iteration(res.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.2, "matvecs {}", per.matvecs);
        assert!((per.dots - 2.0).abs() < 0.3, "dots {}", per.dots);
    }

    #[test]
    fn solves_random_spd_exactly() {
        let a = gen::rand_spd(30, 4, 2.0, 9);
        let b = gen::rand_vector(30, 2);
        let res =
            ChronopoulosGearCg::new().solve(&a, &b, None, &SolveOptions::default().with_tol(1e-11));
        assert!(res.converged);
        assert!(res.true_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(5);
        let res = ChronopoulosGearCg::new().solve(&a, &[0.0; 5], None, &SolveOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(10, 0.2, -1.0);
        let b = gen::rand_vector(10, 4);
        let res = ChronopoulosGearCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
