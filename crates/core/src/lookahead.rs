//! General look-ahead CG (paper §4-5): the moment-window formulation.
//!
//! ## How the paper's scheme is realized
//!
//! The paper maintains, by recurrence, the vector families
//!
//! ```text
//! zᵢ = Aⁱ·r⁽ⁿ⁾  (i = 0..k)      wᵢ = Aⁱ·p⁽ⁿ⁾  (i = 0..k+1)
//! ```
//!
//! costing **one SpMV per iteration** (`w_{k+1} = A·w_k`; claim C4), and the
//! scalar *moment window*
//!
//! ```text
//! μᵢ = (r, Aⁱr)   i = 0..2k
//! νᵢ = (r, Aⁱp)   i = 0..2k+1
//! σᵢ = (p, Aⁱp)   i = 0..2k+2
//! ```
//!
//! updated by the recurrences (exact identities, using only symmetry of A;
//! `λ = λ_n`, `α = α_{n+1}`, `tᵢ = νᵢ − λ·σᵢ₊₁`):
//!
//! ```text
//! μᵢ' = μᵢ − 2λ·νᵢ₊₁ + λ²·σᵢ₊₂
//! νᵢ' = μᵢ' + α·tᵢ
//! σᵢ' = μᵢ' + 2α·tᵢ + α²·σᵢ
//! ```
//!
//! Each update consumes two extra orders of σ and one of ν, so the top
//! entries `ν_{2k+1}, σ_{2k+1}, σ_{2k+2}` are recomputed **directly** from
//! the vector families each iteration — **three** direct inner products
//! (the paper claims "only two"; our count is three because we do not
//! assume CG orthogonality in the recurrences — E4 reports this measured
//! discrepancy).
//!
//! ## Where the look-ahead is
//!
//! `λ_n = μ₀/σ₁` comes from the window through O(1)-depth scalar
//! recurrences. A directly computed dot enters the window at order `2k+2`
//! and trickles down two orders per iteration, reaching `σ₁` only after
//! ~`k` iterations — that is exactly the paper's k-iteration slack between
//! *launching* an inner-product fan-in and *consuming* it. On the machine
//! model this removes the `log N` fan-in from the per-iteration critical
//! path (see `vr_sim::builders::lookahead_cg`).
//!
//! ## Numerical behaviour
//!
//! The window recurrences are exact algebra but amplify round-off with
//! growing k (the moments span a power basis whose conditioning degrades
//! like κ(A)^k — the classical s-step stability problem this 1983 paper
//! predates). [`LookaheadCg::with_resync`] recomputes the whole window
//! directly every R iterations as mitigation; E9 maps the drift.

use crate::driver::{self, Checkpoint, Driver, Rung, Twins, Visit};
use crate::recurrence::moments::MomentWindow;
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult, Termination};
use vr_linalg::mpk::{MpkTransform, MpkWorkspace};
use vr_linalg::LinearOperator;

/// A pass whose recursive `‖r‖²` rises this far above its smallest value
/// (10⁴ in the norm) has diverged: drifted vector families make λ and α
/// steps that no longer reduce the residual, with every pivot positive.
/// Healthy passes peak far lower: the largest rise measured on converging
/// solves, anisotropic ones, was about 430 in the norm.
const DIVERGED_RISE: f64 = 1e8;

/// Loop-carried state: the iterate and the `z = Aⁱ·r` family. A
/// checkpoint snapshots `[x, z₀]` (`z₀` is the residual) — the rest of
/// the family and the moment window are rebuilt by the outer startup pass
/// on rollback, exactly like a warm restart but from a known-good
/// ≤ C-iterations-old state instead of the (possibly poisoned) current
/// iterate.
struct State {
    x: Vec<f64>,
    z: Vec<Vec<f64>>,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(&mut [&mut self.x, &mut self.z[0]], &mut []);
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.z[0])
    }
}

/// General look-ahead CG solver (paper §4-5).
#[derive(Debug, Clone, Copy)]
pub struct LookaheadCg {
    /// Look-ahead depth `k ≥ 1` (the paper suggests `k = log N`).
    pub k: usize,
    /// Recompute the full moment window directly every `resync` iterations
    /// (0 = never).
    pub resync: usize,
}

impl LookaheadCg {
    /// Construct with look-ahead `k` (clamped to ≥ 1) and no resync.
    #[must_use]
    pub fn new(k: usize) -> Self {
        LookaheadCg {
            k: k.max(1),
            resync: 0,
        }
    }

    /// Enable periodic direct recomputation of the moment window.
    #[must_use]
    pub fn with_resync(mut self, every: usize) -> Self {
        self.resync = every;
        self
    }
}

impl CgVariant for LookaheadCg {
    fn name(&self) -> String {
        if self.resync > 0 {
            format!("lookahead-cg(k={},resync={})", self.k, self.resync)
        } else {
            format!("lookahead-cg(k={})", self.k)
        }
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The k-deep moment window interleaves basis builds with the
        // deferred Gram reductions — no single-pass schedule exists.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let n = a.dim();
        let k = self.k;
        let m = 2 * k; // window order for μ
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let thresh_sq = drv.thresh_sq;

        let mut iterations = 0usize;

        // Buffers reused across restart passes and inner iterations, so
        // the whole solve is allocation-free after the first pass warms
        // them: the z/w vector families, the matrix-powers images and
        // workspace, and the moment window and its μ-step scratch. z₀
        // starts as the initial residual.
        let team = opts.team();
        let mut ws = MpkWorkspace::new();
        ws.set_tracer(opts.tracer.clone());
        let z = std::iter::once(r)
            .chain((1..=k).map(|_| vec![0.0; n]))
            .collect();
        let mut st = State { x, z };
        let mut avfam: Vec<Vec<f64>> = (0..=k).map(|_| vec![0.0; n]).collect();
        let mut w: Vec<Vec<f64>> = (0..=k + 1).map(|_| vec![0.0; n]).collect();
        let mut win = MomentWindow {
            mu: Vec::new(),
            nu: Vec::new(),
            sigma: Vec::new(),
        };
        let mut mu_scratch: Vec<f64> = Vec::with_capacity(m + 1);

        // Outer restart loop: each pass performs the paper's "initial start
        // up" (build vector families + moment window from the current
        // residual z₀) and then iterates on recurrences. When the drifted
        // window signals convergence, breaks down or diverges, the driver's
        // ladder validates the signal against the true residual (written
        // into z₀): it converges, rolls back, warm-restarts the next pass
        // from the current iterate, or ends the solve.
        let termination = 'outer: loop {
            // start-up: z[i] = A^i r, i ≤ k; w[i] = A^i p, i ≤ k+1 (p = r).
            // One monomial matrix-powers pass of depth k+1 yields the whole
            // z family plus its images; the top image A·z[k] IS the startup
            // w[k+1] = A^{k+1}·p (p = r), so no extra application is needed.
            // The operator's kernel computes every column through the exact
            // `apply` row arithmetic — bit-identical to the per-level
            // `mpk::naive_powers` oracle.
            let z = &mut st.z;
            opts.span(vr_obs::SpanKind::MpkBuild, || {
                a.matrix_powers(
                    &MpkTransform::Monomial,
                    z,
                    &mut avfam,
                    team.as_deref(),
                    opts.mpk_tile,
                    &mut ws,
                );
            });
            drv.counts.matvecs += k + 1;
            for (wi, zi) in w.iter_mut().zip(st.z.iter()) {
                wi.copy_from_slice(zi);
            }
            w[k + 1].copy_from_slice(&avfam[k]);
            drv.counts.vector_ops += k + 1;

            let spent = win.direct_in(&st.z, &w, m, |x, y| {
                guard::guarded_dot(opts, x, y, &mut drv.rstats)
            });
            drv.counts.dots += spent;

            if drv.history_len() == 0 {
                drv.record(win.mu[0]);
            }
            // The signal that ends a pass: `Some(fail)` for the ladder,
            // `None` when the iteration budget is spent.
            // A claim on a fresh window is certified too: its moments are
            // reductions, and a rolled-back z₀ is recursive.
            let mut signal = (win.mu[0] <= thresh_sq).then_some(Termination::Stagnated);

            // inner recurrence loop
            let mut best_mu0 = win.mu[0];
            while signal.is_none() && iterations < opts.max_iters {
                if drv.poll(iterations, win.mu[0]) {
                    break 'outer Termination::Cancelled;
                }
                let (mu0, sigma1) = (win.mu[0], win.sigma[1]);
                if guard::check_pivot(sigma1).is_err() || guard::check_pivot(mu0).is_err() {
                    signal = Some(Termination::Breakdown);
                    break;
                }
                drv.save(iterations, &mut st);
                let lambda = opts.scalar(mu0 / sigma1);
                opts.axpy(lambda, &w[0], &mut st.x, &mut drv.counts);
                drv.counts.scalar_ops += 1;

                // scalar window step (in place — no per-iteration allocs)
                win.mu_step_into(lambda, &mut mu_scratch);
                let alpha = opts.scalar(mu_scratch[0] / mu0);
                drv.counts.scalar_ops += win.step_scalar_ops() + 1;

                drv.record(mu_scratch[0]);
                iterations += 1;
                if mu_scratch[0] <= thresh_sq {
                    signal = Some(Termination::Stagnated);
                    break;
                }
                if guard::check_finite(mu_scratch[0]).is_err()
                    || mu_scratch[0] > DIVERGED_RISE * best_mu0
                {
                    signal = Some(Termination::Breakdown);
                    break;
                }
                best_mu0 = best_mu0.min(mu_scratch[0]);
                win.finish_step_in_place(&mut mu_scratch, lambda, alpha);

                // vector family updates: z_i ← z_i − λ·w_{i+1} (old w)
                for (zi, wi) in st.z.iter_mut().zip(&w[1..]) {
                    opts.axpy(-lambda, wi, zi, &mut drv.counts);
                }
                // w_i ← z_i + α·w_i, i ≤ k
                for (wi, zi) in w.iter_mut().zip(&st.z) {
                    opts.xpay(zi, alpha, wi, &mut drv.counts);
                }
                // one matvec: w_{k+1} = A·w_k
                if self.resync > 0 && iterations.is_multiple_of(self.resync) {
                    let (head, tail) = w.split_at_mut(k + 1);
                    opts.matvec(a, &head[k], &mut tail[0], &mut drv.counts);
                    // periodic drift correction: rebuild the window in place
                    let spent = win.direct_in(&st.z, &w, m, |x, y| {
                        guard::guarded_dot(opts, x, y, &mut drv.rstats)
                    });
                    drv.counts.dots += spent;
                } else {
                    // three direct top-of-window inner products — these
                    // are the reductions with k iterations of slack, i.e.
                    // the fault surface the paper's restructuring creates.
                    // Fused: the matvec sweep carries the (w_k, w_{k+1})
                    // moment and the other two share one pass over w_{k+1}
                    // (per-element products are commutative, so the scalars
                    // are bit-identical to the unfused formulation).
                    let (head, tail) = w.split_at_mut(k + 1);
                    win.sigma[m + 1] = guard::guarded_matvec_dot(
                        opts,
                        a,
                        &head[k],
                        &mut tail[0],
                        &mut drv.counts,
                        &mut drv.rstats,
                    );
                    let (top, zk) = (&tail[0], &st.z[k]);
                    let (nu_top, sigma_top) = opts.dot2(top, zk, top, &mut drv.counts);
                    win.nu[m + 1] = guard::retry_reduction(opts, top, zk, nu_top, &mut drv.rstats);
                    win.sigma[m + 2] =
                        guard::retry_reduction(opts, top, top, sigma_top, &mut drv.rstats);
                }
            }

            let Some(fail) = signal else {
                break 'outer Termination::MaxIterations;
            };
            // the next pass's start-up rebuilds the families and window
            // from the restored (rollback) or true (restart) residual
            match drv.certify(&mut st, iterations, fail) {
                Rung::Rollback(c) => iterations = c,
                Rung::Restart(_) => {}
                Rung::End(t) => break 'outer t,
            }
        };

        drv.rstats.final_k = k;
        drv.finish(st.x, &mut st.z[0], termination, iterations)
    }

    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        if self.k > 1 {
            Some(Box::new(LookaheadCg {
                k: self.k / 2,
                resync: self.resync,
            }))
        } else {
            Some(Box::new(crate::standard::StandardCg::new()))
        }
    }

    fn depth(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    fn opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-9)
    }

    #[test]
    fn k1_converges_on_poisson2d() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = LookaheadCg::new(1)
            .with_resync(20)
            .solve(&a, &b, None, &opts());
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-7);
    }

    #[test]
    fn k1_converges_to_moderate_tolerance_without_resync() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = LookaheadCg::new(1).solve(&a, &b, None, &SolveOptions::default().with_tol(1e-6));
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-4);
    }

    #[test]
    fn small_k_matches_standard_cg_residual_history() {
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let std = StandardCg::new().solve(&a, &b, None, &opts());
        for k in [1usize, 2, 3] {
            let la = LookaheadCg::new(k).solve(&a, &b, None, &opts());
            assert!(la.converged, "k={k}: {:?}", la.termination);
            let m = std.residual_norms.len().min(la.residual_norms.len());
            for i in 0..m.saturating_sub(3) {
                let (s, o) = (std.residual_norms[i], la.residual_norms[i]);
                assert!(
                    (s - o).abs() <= 1e-4 * (1.0 + s.abs()),
                    "k={k} iter {i}: std {s} vs lookahead {o}"
                );
            }
        }
    }

    #[test]
    fn one_matvec_three_dots_per_iteration_in_steady_state() {
        let a = gen::poisson2d(16);
        let b = gen::poisson2d_rhs(16);
        let k = 3;
        // moderate tolerance so the run finishes in one pass (no restarts)
        let res = LookaheadCg::new(k).solve(&a, &b, None, &SolveOptions::default().with_tol(1e-6));
        assert!(res.converged, "{:?}", res.termination);
        let iters = res.iterations as f64;
        // Each pass (initial + one per restart) costs k+1 startup matvecs,
        // 3(2k+2) startup dots, and 1 matvec + 1 dot for validation.
        // Steady state: 1 matvec + 3 direct dots per iteration (claim C4).
        // (The final iteration of each pass breaks before its family matvec
        // and top dots, hence the `− passes` corrections.)
        let passes = (res.counts.restarts + 1) as f64;
        let expect_mv = iters - passes + passes * (k + 1 + 1) as f64;
        assert!(
            (res.counts.matvecs as f64 - expect_mv).abs() < 0.5,
            "matvecs {} vs expected {expect_mv}",
            res.counts.matvecs
        );
        let expect_dots = 3.0 * (iters - passes) + passes * (3 * (2 * k + 2) + 1) as f64;
        assert!(
            (res.counts.dots as f64 - expect_dots).abs() < 0.5,
            "dots {} vs expected {expect_dots}",
            res.counts.dots
        );
    }

    #[test]
    fn larger_k_still_converges_with_resync() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        for k in [4usize, 6] {
            let res = LookaheadCg::new(k).with_resync(8).solve(
                &a,
                &b,
                None,
                &SolveOptions::default().with_tol(1e-7),
            );
            assert!(
                res.converged,
                "k={k} with resync should converge: {:?}",
                res.termination
            );
            assert!(res.true_residual(&a, &b) < 1e-4, "k={k}");
        }
    }

    #[test]
    fn true_residual_tracks_recursive_residual_for_small_k() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = LookaheadCg::new(2)
            .with_resync(15)
            .solve(&a, &b, None, &opts());
        assert!(res.converged);
        let true_r = res.true_residual(&a, &b);
        // recursive residual may drift from the true one; for k=2 on a
        // well-conditioned problem they stay within a few orders
        assert!(
            true_r < 1e-5,
            "true residual {true_r} vs recursive {}",
            res.final_residual
        );
    }

    #[test]
    fn name_reflects_parameters() {
        assert_eq!(LookaheadCg::new(4).name(), "lookahead-cg(k=4)");
        assert_eq!(
            LookaheadCg::new(4).with_resync(10).name(),
            "lookahead-cg(k=4,resync=10)"
        );
        // k clamps to 1
        assert_eq!(LookaheadCg::new(0).k, 1);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(6);
        let res = LookaheadCg::new(2).solve(&a, &[0.0; 6], None, &opts());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn breakdown_detected_on_indefinite() {
        let a = gen::tridiag_toeplitz(12, 0.5, -1.0);
        let b = gen::rand_vector(12, 3);
        let res = LookaheadCg::new(2).solve(&a, &b, None, &opts());
        assert_eq!(res.termination, Termination::Breakdown);
    }

    #[test]
    fn matches_cholesky_solution_k2() {
        let a = gen::rand_spd(30, 4, 2.0, 5);
        let b = gen::rand_vector(30, 6);
        let res = LookaheadCg::new(2).solve(&a, &b, None, &opts());
        assert!(res.converged);
        let dense = vr_linalg::DenseMatrix::from_rows(&a.to_dense()).unwrap();
        let exact = dense.solve_spd(&b).unwrap();
        for (xi, ei) in res.x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-6, "{xi} vs {ei}");
        }
    }

    #[test]
    fn checkpoint_rollback_survives_moderate_faults() {
        // with the ring active, a corrupted λ that poisons x no longer
        // forces Breakdown: the solve restores a ≤ C-old [x, r] snapshot
        // and rebuilds the window from it via the outer startup pass
        use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
        use std::sync::Arc;
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let mut total_rollbacks = 0usize;
        for seed in 0..10u64 {
            let o = SolveOptions::default()
                .with_tol(1e-7)
                .with_max_iters(600)
                .with_injector(Arc::new(SeededInjector::new(seed, 2e-3, FaultKind::Nan)))
                .with_recovery(
                    RecoveryPolicy::default()
                        .with_checkpoint_period(10)
                        .with_max_rollbacks(16),
                );
            let res = LookaheadCg::new(4).with_resync(10).solve(&a, &b, None, &o);
            if res.recovery.rollbacks > 0 && res.converged {
                assert_eq!(
                    res.termination,
                    Termination::RecoveredConverged,
                    "seed {seed}"
                );
                assert!(res.true_residual(&a, &b) < 1e-4, "seed {seed}");
                total_rollbacks += res.recovery.rollbacks;
            }
        }
        assert!(total_rollbacks >= 1, "no seed exercised the rollback path");
    }

    #[test]
    fn diverging_recurrence_restarts_instead_of_running_out() {
        // On this grid, in chunk-tree order, the recursive residual of the
        // registry's k = 2, resync 12 configuration bottoms out near
        // iteration 517 and then climbs without a pivot turning
        // non-positive; the progress rule restarts it from the true
        // residual instead of spending the whole iteration budget
        use vr_linalg::kernels::{norm2, DotMode};
        let a = gen::poisson2d(182);
        let b = gen::poisson2d_rhs(182);
        let o = opts().with_dot_mode(DotMode::Tree).with_max_iters(4000);
        let res = LookaheadCg::new(2).with_resync(12).solve(&a, &b, None, &o);
        assert_eq!(res.termination, Termination::Converged);
        assert!(res.counts.restarts >= 1, "{:?}", res.counts);
        assert!(res.true_residual(&a, &b) <= 1e-9 * norm2(&b));
    }

    #[test]
    fn heavy_nan_faults_terminate_instead_of_looping() {
        // regression: a corrupted λ (ScalarRecurrence fault, fired after
        // the pivot check) poisons x, making the validation residual NaN.
        // NaN fails every comparison, so the old no-progress test
        // `rr_true >= 0.25·last` let the solver warm-restart from a NaN
        // residual forever. It must break down instead.
        use crate::resilience::{FaultKind, SeededInjector};
        use std::sync::Arc;
        let a = gen::poisson2d(20);
        let b = gen::poisson2d_rhs(20);
        let o = SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(2000)
            .with_injector(Arc::new(SeededInjector::new(
                0xE15 + 22,
                1e-2,
                FaultKind::Nan,
            )));
        let res = LookaheadCg::new(4).solve(&a, &b, None, &o);
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
