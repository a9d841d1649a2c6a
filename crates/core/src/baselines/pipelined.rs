//! Ghysels-Vanroose pipelined CG.
//!
//! The modern descendant of the 1983 idea: the single reduction of each
//! iteration (for `γ = (r,r)` and `δ = (w,r)`) is *overlapped with the
//! matvec* `q = A·w`. Auxiliary vectors `s = A·p`, `q`, `z = A·s` are
//! maintained by recurrences so no extra matvec is needed.
//!
//! Recurrences (unpreconditioned form of Ghysels & Vanroose 2014):
//!
//! ```text
//! γ = (r,r);  δ = (w,r);  q = A·w          (reduction ∥ matvec)
//! β = γ/γ_old (0 at start);  λ = γ / (δ − β·γ/λ_old)
//! p ← r + β·p;   s ← w + β·s;   z ← q + β·z
//! x ← x + λ·p;   r ← r − λ·s;   w ← w − λ·z
//! ```

use crate::driver::{self, Checkpoint, Driver, Step, Twins, Visit};
use crate::exec::Exec;
use crate::resilience::guard;
use crate::solver::{CgVariant, Execution, SolveOptions, SolveResult};
use vr_linalg::LinearOperator;

/// Pipelined CG's twin, the `f32`-storage loop; its step also runs under
/// the whole-iteration sweep.
const TWINS: Twins<PipelinedCg> = Twins {
    mixed: Some(crate::mixed::solve_pipelined),
    sweep: true,
};

/// Pipelined CG solver (Ghysels-Vanroose).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelinedCg;

impl PipelinedCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        PipelinedCg
    }
}

impl CgVariant for PipelinedCg {
    fn name(&self) -> String {
        "pipelined-cg".into()
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
        solve_gv(a, b, x0, opts)
    }
}

/// Loop-carried state; the pipelined recurrences maintain five live
/// vectors besides `x` — `q` alone is recomputed each iteration — so a
/// checkpoint snapshots `[x, r, p, s, z, w]` plus the carried scalar
/// chain `[gamma, gamma_old, lambda_old, delta_carried]`.
#[derive(Default)]
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    s: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
    /// `(r, r)`.
    gamma: f64,
    gamma_old: f64,
    lambda_old: f64,
    /// Next iteration's `δ = (w, r)`, carried by the fused w-update.
    delta_carried: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [
                &mut self.x,
                &mut self.r,
                &mut self.p,
                &mut self.s,
                &mut self.z,
                &mut self.w,
            ],
            &mut [
                &mut self.gamma,
                &mut self.gamma_old,
                &mut self.lambda_old,
                &mut self.delta_carried,
            ],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

impl State {
    /// The start-up, and a warm restart, from `(x, r)`: `w = A·r`,
    /// `γ = (r, r)` and no direction yet — `γ_old = 0` marks the step that
    /// takes `β = 0` and reduces its own `δ`.
    fn start(&mut self, drv: &mut Driver<'_>, a: &dyn LinearOperator, opts: &SolveOptions) {
        opts.matvec(a, &self.r, &mut self.w, &mut drv.counts);
        self.gamma = guard::guarded_dot(opts, &self.r, &self.r, &mut drv.rstats);
        drv.counts.dots += 1;
        self.p.fill(0.0);
        self.s.fill(0.0);
        self.z.fill(0.0);
        self.gamma_old = 0.0;
    }
}

/// The Ghysels-Vanroose iteration itself, shared between [`PipelinedCg`]
/// and the depth-1 configuration of
/// [`crate::pipelined_deep::DeepPipelinedCg`]: a depth-1 pipeline *is* the
/// GV recurrence, so both entry points must produce the same bits — the
/// differential suite in `tests/pipelined_differential.rs` pins that.
pub(crate) fn solve_gv(
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);
    let mut ex = Exec::new(a, opts);

    let mut q = vec![0.0; n];
    let mut st = State {
        x,
        r,
        p: vec![0.0; n],
        s: vec![0.0; n],
        z: vec![0.0; n],
        w: vec![0.0; n],
        ..State::default()
    };
    st.start(&mut drv, a, opts);
    drv.record(st.gamma);

    // Unless the kernels are the two-pass reference ones, the w-update
    // sweep of iteration `it` carries δ for iteration `it + 1`
    // (bit-identical association), so the loop top only pays a standalone
    // reduction at a start-up.
    let fused = opts.execution != Execution::Reference;
    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.gamma,
        |drv, st, it| {
            let first = st.gamma_old == 0.0;
            let delta = if fused && !first {
                st.delta_carried
            } else {
                drv.counts.dots += 1;
                guard::guarded_dot(opts, &st.w, &st.r, &mut drv.rstats)
            };
            // q = A·w — on the paper's machine this overlaps the two
            // reductions above; numerically it is just computed here.
            ex.matvec(drv, &st.w, &mut q);

            let (beta, denom) = if first {
                (0.0, delta)
            } else {
                let beta = st.gamma / st.gamma_old;
                (beta, delta - beta * st.gamma / st.lambda_old)
            };
            drv.counts.scalar_ops += 3;
            if guard::check_pivot(denom).is_err() {
                return Step::breakdown(it);
            }
            let lambda = st.gamma / denom;

            st.gamma_old = st.gamma;
            st.lambda_old = lambda;
            // p, s, z xpays and the x axpy; r ← r − λ·s carries γ = (r,r)
            // in its sweep
            st.gamma = ex.pipelined_update(
                drv, beta, lambda, &q, &mut st.r, &mut st.p, &mut st.w, &mut st.s, &mut st.z,
                &mut st.x,
            );
            drv.record(st.gamma);
            let verdict = Step::after(it, st.gamma, drv.thresh_sq);
            // w ← w − λ·z; fused, the same sweep yields next iteration's
            // δ = (w,r) (w is dead on exit, so skipping the update then
            // changes nothing)
            if verdict.is_next() {
                if let Some(d) = ex.pipelined_w_update(drv, lambda, &st.z, &mut st.w, &st.r) {
                    st.delta_carried = d;
                }
            }
            verdict
        },
        |drv, st, _| st.start(drv, a, opts),
    );
    drv.finish(st.x, &mut st.r, termination, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Termination;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    #[test]
    fn converges_and_matches_standard() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let gv = PipelinedCg::new().solve(&a, &b, None, &opts);
        assert!(gv.converged, "{:?}", gv.termination);
        let m = std.residual_norms.len().min(gv.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], gv.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-4 * (1.0 + s.abs()),
                "iter {i}: {s} vs {o}"
            );
        }
    }

    #[test]
    fn two_matvecs_per_iteration_counted() {
        // GV does one matvec per iteration *in its recurrence form*; our
        // unpreconditioned version computes q = A·w per iteration plus the
        // startup w = A·r — check 1 matvec/iter steady state.
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = PipelinedCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert!(res.converged);
        let per = res.counts.per_iteration(res.iterations);
        assert!((per.matvecs - 1.0).abs() < 0.2, "matvecs {}", per.matvecs);
        assert!((per.dots - 2.0).abs() < 0.3, "dots {}", per.dots);
    }

    #[test]
    fn solves_anisotropic_problem() {
        let a = gen::anisotropic2d(10, 0.1);
        let b = gen::rand_vector(100, 5);
        let res = PipelinedCg::new().solve(&a, &b, None, &SolveOptions::default().with_tol(1e-9));
        assert!(res.converged);
        assert!(res.true_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(5);
        let res = PipelinedCg::new().solve(&a, &[0.0; 5], None, &SolveOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(10, 0.2, -1.0);
        let b = gen::rand_vector(10, 4);
        let res = PipelinedCg::new().solve(&a, &b, None, &SolveOptions::default());
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
