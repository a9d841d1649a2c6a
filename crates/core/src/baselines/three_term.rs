//! Three-term recurrence CG (Concus-Golub-O'Leary / Rutishauser form).
//!
//! Eliminates the direction vector `p` entirely:
//!
//! ```text
//! γ_n = (r_n, r_n) / (r_n, A·r_n)
//! ρ_0 = 1
//! ρ_n = 1 / (1 − (γ_n/γ_{n−1})·((r_n,r_n)/(r_{n−1},r_{n−1}))·(1/ρ_{n−1}))
//! u_{n+1} = ρ_n·(u_n + γ_n·r_n) + (1 − ρ_n)·u_{n−1}
//! r_{n+1} = ρ_n·(r_n − γ_n·A·r_n) + (1 − ρ_n)·r_{n−1}
//! ```
//!
//! Mathematically equivalent to CG; included because the paper's reference
//! \[3\] (Concus, Golub & O'Leary 1976) presents CG in this generalized form,
//! and because its dependency structure (two serialized reductions, like
//! standard CG) makes a useful control in the machine-model experiments.

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult};
use vr_linalg::LinearOperator;

/// Three-term recurrence CG solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeTermCg;

impl ThreeTermCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        ThreeTermCg
    }
}

impl CgVariant for ThreeTermCg {
    fn name(&self) -> String {
        "three-term-cg".into()
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The three-term recurrence reads both r and r_prev around its
        // mid-iteration reduction — no single-pass schedule exists.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let n = a.dim();
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);

        let mut st = State {
            x,
            r,
            x_prev: vec![0.0; n],
            r_prev: vec![0.0; n],
            ..State::default()
        };
        st.start(&mut drv, opts);
        drv.record(st.rr);
        let mut w = vec![0.0; n];
        // scratch for the next iterate/residual, rotated (never reallocated)
        let mut x_next = vec![0.0; n];
        let mut r_next = vec![0.0; n];

        let (termination, iterations) = drv.iterate(
            &mut st,
            |st| st.rr,
            |drv, st, it| {
                // matvec carries (r, A·r) in its sweep
                let (c, s) = (&mut drv.counts, &mut drv.rstats);
                let rar = guard::guarded_matvec_dot(opts, a, &st.r, &mut w, c, s);
                if guard::check_pivot(rar).is_err() {
                    return Step::breakdown(it);
                }
                let gamma = st.rr / rar;
                // ρ₀ = 1 at the start-up (r_prev = r there, so the (1 − ρ)
                // terms vanish)
                let rho = if st.rho_prev == 0.0 {
                    1.0
                } else {
                    1.0 / (1.0 - (gamma / st.gamma_prev) * (st.rr / st.rr_prev) / st.rho_prev)
                };
                drv.counts.scalar_ops += 4;
                if guard::check_finite(rho).is_err() {
                    return Step::breakdown(it);
                }

                // u_{n+1} = ρ(u + γ r) + (1−ρ) u_{n−1}
                for (((xn, xi), ri), xp) in x_next.iter_mut().zip(&st.x).zip(&st.r).zip(&st.x_prev)
                {
                    *xn = rho * (xi + gamma * ri) + (1.0 - rho) * xp;
                }
                // r_{n+1} = ρ(r − γ A r) + (1−ρ) r_{n−1}
                for (((rn, ri), wi), rp) in r_next.iter_mut().zip(&st.r).zip(&w).zip(&st.r_prev) {
                    *rn = rho * (ri - gamma * wi) + (1.0 - rho) * rp;
                }
                drv.counts.vector_ops += 2;

                // rotate: x_prev ← x, x ← x_next, scratch ← old x_prev
                std::mem::swap(&mut st.x, &mut x_next);
                std::mem::swap(&mut st.x_prev, &mut x_next);
                std::mem::swap(&mut st.r, &mut r_next);
                std::mem::swap(&mut st.r_prev, &mut r_next);
                st.rr_prev = st.rr;
                st.gamma_prev = gamma;
                st.rho_prev = rho;
                st.rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
                drv.counts.dots += 1;
                drv.record(st.rr);
                Step::after(it, st.rr, drv.thresh_sq)
            },
            |drv, st, _| st.start(drv, opts),
        );
        drv.finish(st.x, &mut st.r, termination, iterations)
    }
}

/// Loop-carried state; the three-term recurrence needs BOTH levels of its
/// history, so a checkpoint snapshots `[x, r, x_prev, r_prev]` plus the
/// four carried scalars `[rr, rr_prev, gamma_prev, rho_prev]` to replay
/// exactly.
#[derive(Default)]
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    x_prev: Vec<f64>,
    r_prev: Vec<f64>,
    rr: f64,
    rr_prev: f64,
    gamma_prev: f64,
    rho_prev: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [&mut self.x, &mut self.r, &mut self.x_prev, &mut self.r_prev],
            &mut [
                &mut self.rr,
                &mut self.rr_prev,
                &mut self.gamma_prev,
                &mut self.rho_prev,
            ],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The start-up, and a warm restart: both history levels start at the
    /// current `(x, r)`, `(r, r)` is reduced, and `ρ_prev = 0` marks the
    /// step that takes `ρ = 1`.
    fn start(&mut self, drv: &mut Driver<'_>, opts: &SolveOptions) {
        self.x_prev.copy_from_slice(&self.x);
        self.r_prev.copy_from_slice(&self.r);
        drv.counts.vector_ops += 2;
        self.rr = guard::guarded_dot(opts, &self.r, &self.r, &mut drv.rstats);
        drv.counts.dots += 1;
        self.rho_prev = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Termination;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    #[test]
    fn matches_standard_cg_residual_history() {
        let a = gen::poisson2d(9);
        let b = gen::poisson2d_rhs(9);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let tt = ThreeTermCg::new().solve(&a, &b, None, &opts);
        assert!(tt.converged, "{:?}", tt.termination);
        let m = std.residual_norms.len().min(tt.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], tt.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-4 * (1.0 + s.abs()),
                "iter {i}: {s} vs {o}"
            );
        }
    }

    #[test]
    fn solves_random_spd() {
        let a = gen::rand_spd(30, 4, 2.0, 21);
        let b = gen::rand_vector(30, 22);
        let res = ThreeTermCg::new().solve(&a, &b, None, &SolveOptions::default().with_tol(1e-11));
        assert!(res.converged);
        assert!(res.true_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(5);
        let res = ThreeTermCg::new().solve(&a, &[0.0; 5], None, &SolveOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(10, 0.2, -1.0);
        let b = gen::rand_vector(10, 4);
        let res = ThreeTermCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
