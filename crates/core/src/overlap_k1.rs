//! The paper's §3 one-step overlapped CG.
//!
//! The observation: with `r⁽ⁿ⁾ = r⁽ⁿ⁻¹⁾ − λ_{n−1}·A·p⁽ⁿ⁻¹⁾`,
//!
//! ```text
//! (r⁽ⁿ⁾,r⁽ⁿ⁾) = (r,r) − 2λ(r,Ap) + λ²(Ap,Ap)
//! ```
//!
//! — every inner product on the right involves only iteration-(n−1)
//! vectors, so their summation fan-ins can be *launched a full iteration
//! before their results are needed*, roughly doubling parallel speed
//! (claim C2). (The paper's printed formula drops two of these terms by
//! exploiting CG orthogonality and loses a sign to OCR; we use the fully
//! general identity, valid without orthogonality assumptions — see
//! [`crate::recurrence::identities`] for both forms.)
//!
//! The analogous relation for `(p⁽ⁿ⁾,Ap⁽ⁿ⁾)` requires the carried scalar
//! `(r,Ar)` and the vector `v = A²p`:
//!
//! ```text
//! (r⁽ⁿ⁾,Ar⁽ⁿ⁾)  = (r,Ar) − 2λ(r,v) + λ²(w,v)           with w = Ap
//! (p⁽ⁿ⁾,Ap⁽ⁿ⁾)  = (r⁽ⁿ⁾,Ar⁽ⁿ⁾) + 2α(r⁽ⁿ⁾,w) + α²(p,Ap)
//! (r⁽ⁿ⁾,w)     = (r,w) − λ(w,w)
//! ```
//!
//! Cost per iteration: **2 SpMVs** (`w = Ap`, `v = Aw`) and **4 inner
//! products** (`(r,w), (w,w), (r,v), (w,v)`), all launchable immediately
//! after the vectors exist — versus standard CG's 1 SpMV + 2 serialized
//! inner products. The sequential overhead buys removal of one reduction
//! from the critical cycle; E4/E7 quantify both sides.

use crate::driver::{self, Checkpoint, Driver, Rung, Twins, Visit};
use crate::exec::Exec;
use crate::resilience::guard;
use crate::solver::{CgVariant, Execution, SolveOptions, SolveResult, Termination};
use vr_linalg::LinearOperator;

/// Overlap-k1's twin, the `f32`-storage loop; its step also runs under
/// the whole-iteration sweep.
const TWINS: Twins<OverlapK1Cg> = Twins {
    mixed: Some(crate::mixed::solve_overlap_k1),
    sweep: true,
};

/// Loop-carried state; a checkpoint snapshots `[x, r, p]` and the three
/// carried scalars `[rr, rar, pap]` — `w` and `v` are recomputed on
/// restore (two matvecs, per Cools' minimal-state checkpointing for
/// pipelined CG).
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    /// `(r, r)`.
    rr: f64,
    /// `(r, A·r)`.
    rar: f64,
    /// `(p, A·p)`.
    pap: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(
            &mut [&mut self.x, &mut self.r, &mut self.p],
            &mut [&mut self.rr, &mut self.rar, &mut self.pap],
        );
    }

    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        (&self.x, &mut self.r)
    }
}

/// One-step overlapped CG (paper §3).
///
/// Like all scalar-recurrence CG reformulations, the recursively tracked
/// residual norm stagnates near `√ε`-level relative accuracy (the classic
/// attainable-accuracy loss of s-step/pipelined CG — measured by E9).
/// [`OverlapK1Cg::with_resync`] recomputes the carried scalars directly
/// every R iterations (costing one extra matvec + three dots per resync),
/// restoring standard-CG attainable accuracy.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapK1Cg {
    /// Recompute carried scalars directly every `resync` iterations
    /// (0 = never).
    pub resync: usize,
}

impl OverlapK1Cg {
    /// Construct with no resync.
    #[must_use]
    pub fn new() -> Self {
        OverlapK1Cg { resync: 0 }
    }

    /// Enable periodic direct recomputation of the carried scalars.
    #[must_use]
    pub fn with_resync(mut self, every: usize) -> Self {
        self.resync = every;
        self
    }
}

impl CgVariant for OverlapK1Cg {
    fn name(&self) -> String {
        if self.resync > 0 {
            format!("overlap-k1-cg(resync={})", self.resync)
        } else {
            "overlap-k1-cg".into()
        }
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
        let mut ex = Exec::new(a, opts).with_powers2();

        // State: p, w = A·p, v = A·w; scalars rr = (r,r), rar = (r,Ar),
        // pap = (p,Ap).
        let mut st = State {
            x,
            r,
            p: vec![0.0; n],
            rr: 0.0,
            rar: 0.0,
            pap: 0.0,
        };
        let (mut w, mut v) = (vec![0.0; n], vec![0.0; n]);
        // The start-up, and a warm restart, from `(x, r)`: `p = r`,
        // `w = A·p`, `v = A·w` (one matrix-powers pair), and the direct
        // `(r, A·r)` both carried scalars start from (`p = r` ⇒
        // `(p, A·p) = (r, A·r)`).
        let start = |st: &mut State,
                     drv: &mut Driver<'_>,
                     ex: &mut Exec<'_>,
                     w: &mut Vec<f64>,
                     v: &mut Vec<f64>| {
            st.p.copy_from_slice(&st.r);
            drv.counts.vector_ops += 1;
            ex.powers2(drv, &mut st.p, w, v);
            st.rar = guard::guarded_dot(opts, &st.r, w, &mut drv.rstats);
            drv.counts.dots += 1;
            st.pap = st.rar;
        };
        st.rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
        drv.counts.dots += 1;
        start(&mut st, &mut drv, &mut ex, &mut w, &mut v);
        drv.record(st.rr);
        // Scratch for the resync's A·r, reused so the hot path stays
        // allocation-free.
        let mut ar = vec![0.0; if self.resync > 0 { n } else { 0 }];

        // Recurrence drift near convergence can push the carried `pap`
        // non-positive before the threshold trips, and can fake the
        // threshold itself: both signals go through the driver's ladder,
        // which converges, rolls back, warm-restarts or ends the solve.
        let mut it = 0;
        // a claim on the initial `(r, r)`, a reduction like any other, is
        // certified too
        let mut signal = (st.rr <= drv.thresh_sq).then_some(Termination::Stagnated);
        let termination = loop {
            if signal.is_none()
                && (guard::check_pivot(st.pap).is_err() || guard::check_pivot(st.rr).is_err())
            {
                signal = Some(Termination::Breakdown);
            }
            if let Some(fail) = signal.take() {
                match drv.certify(&mut st, it, fail) {
                    // the rollback rung keeps the Krylov direction
                    // history a warm restart would throw away
                    Rung::Rollback(c) => {
                        ex.powers2(&mut drv, &mut st.p, &mut w, &mut v);
                        it = c;
                    }
                    Rung::Restart(rr) => {
                        st.rr = rr;
                        start(&mut st, &mut drv, &mut ex, &mut w, &mut v);
                    }
                    Rung::End(t) => break t,
                }
                continue;
            }
            if it >= opts.max_iters {
                break Termination::MaxIterations;
            }
            if drv.top(it, st.rr, &mut st) {
                break Termination::Cancelled;
            }
            it += 1;
            let (rr, rar, pap) = (st.rr, st.rar, st.pap);
            let lambda = rr / pap;
            // The four overlappable inner products — on CURRENT vectors,
            // launched before any of this iteration's scalar results
            // are needed (on the paper's machine their fan-ins overlap
            // the rest of this iteration) — with x ← x + λ·p.
            // Fused pairing: (r,w)/(r,v) share the sweep over r and
            // (w,w)/(w,v) the sweep over w; the per-element products are
            // commutative so the scalars are bit-identical to the four
            // separate dots of the reference formulation.
            // Split-phase: the sweeps fold leaf partials *now*; the
            // tree_combine fan-ins run at the consume points after the
            // x update — the paper's launch-early/consume-late schedule
            // on the team.
            let (rw, rv, ww, wv) =
                ex.overlap_update(&mut drv, lambda, &w, &v, &st.p, &mut st.r, &mut st.x);

            // scalar recurrences (claim C3, k = 1)
            let rr_next = rr - 2.0 * lambda * rw + lambda * lambda * ww;
            let rar_next = rar - 2.0 * lambda * rv + lambda * lambda * wv;
            let alpha = rr_next / rr;
            let rnext_w = rw - lambda * ww;
            let pap_next = rar_next + 2.0 * alpha * rnext_w + alpha * alpha * pap;
            drv.counts.scalar_ops += 12;

            drv.record(rr_next);
            if rr_next <= drv.thresh_sq {
                signal = Some(Termination::Stagnated);
                continue;
            }
            if guard::check_finite(rr_next).is_err() {
                // route through the ladder at the loop top
                st.rr = rr_next;
                continue;
            }

            // vector updates
            ex.overlap_r_update(&mut drv, lambda, &w, &mut st.r);
            ex.xpay(&mut drv, &st.r, alpha, &mut st.p);
            ex.powers2(&mut drv, &mut st.p, &mut w, &mut v);

            st.rr = rr_next;
            st.rar = rar_next;
            st.pap = pap_next;

            if self.resync > 0 && it.is_multiple_of(self.resync) {
                // residual replacement: recompute the carried scalars
                // directly (one extra matvec for A·r)
                st.rr = guard::guarded_dot(opts, &st.r, &st.r, &mut drv.rstats);
                opts.matvec(a, &st.r, &mut ar, &mut drv.counts);
                st.rar = guard::guarded_dot(opts, &st.r, &ar, &mut drv.rstats);
                st.pap = guard::guarded_dot(opts, &st.p, &w, &mut drv.rstats);
                drv.counts.dots += 3;
            }
        };
        drv.finish(st.x, &mut st.r, termination, it)
    }

    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        Some(Box::new(crate::standard::StandardCg::new()))
    }

    fn depth(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    #[test]
    fn converges_on_poisson2d_with_resync() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = OverlapK1Cg::new()
            .with_resync(20)
            .solve(&a, &b, None, &SolveOptions::default());
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn converges_to_moderate_tolerance_without_resync() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let res = OverlapK1Cg::new().solve(&a, &b, None, &SolveOptions::default().with_tol(1e-6));
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-4);
    }

    #[test]
    fn recursive_residual_stagnates_without_resync() {
        // The E9 phenomenon: at tight tolerances the recursive residual
        // plateaus above the threshold (attainable-accuracy loss).
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let opts = SolveOptions::default().with_tol(1e-12).with_max_iters(200);
        let res = OverlapK1Cg::new().solve(&a, &b, None, &opts);
        assert!(!res.converged, "expected stagnation at tol 1e-12");
        // ... which resync repairs
        let fixed = OverlapK1Cg::new()
            .with_resync(15)
            .solve(&a, &b, None, &opts);
        assert!(fixed.converged, "resync failed: {:?}", fixed.termination);
    }

    #[test]
    fn matches_standard_cg_iterates() {
        // In exact arithmetic the scalar recurrences reproduce the directly
        // computed inner products, so the residual histories must agree to
        // round-off.
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let opts = SolveOptions::default().with_tol(1e-9);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let k1 = OverlapK1Cg::new().solve(&a, &b, None, &opts);
        assert!(k1.converged);
        let m = std.residual_norms.len().min(k1.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s, o) = (std.residual_norms[i], k1.residual_norms[i]);
            assert!(
                (s - o).abs() <= 1e-6 * (1.0 + s.abs()),
                "iter {i}: std {s} vs k1 {o}"
            );
        }
    }

    #[test]
    fn recursive_scalars_match_direct_dots_on_random_spd() {
        // Drive the solver a few iterations and verify the carried scalars
        // against direct computation (uses solve internals indirectly: the
        // final solution must equal standard CG's).
        let a = gen::rand_spd(40, 5, 2.0, 11);
        let b = gen::rand_vector(40, 12);
        let opts = SolveOptions::default().with_tol(1e-11);
        let std = StandardCg::new().solve(&a, &b, None, &opts);
        let k1 = OverlapK1Cg::new().solve(&a, &b, None, &opts);
        assert!(k1.converged);
        for (xi, yi) in std.x.iter().zip(&k1.x) {
            assert!((xi - yi).abs() < 1e-7, "{xi} vs {yi}");
        }
    }

    #[test]
    fn op_counts_two_matvecs_four_dots() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let res = OverlapK1Cg::new().solve(&a, &b, None, &SolveOptions::default());
        let per = res.counts.per_iteration(res.iterations);
        assert!((per.matvecs - 2.0).abs() < 0.2, "matvecs {}", per.matvecs);
        assert!((per.dots - 4.0).abs() < 0.4, "dots {}", per.dots);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(6);
        let res = OverlapK1Cg::new().solve(&a, &[0.0; 6], None, &SolveOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn checkpoint_rollback_beats_warm_restart_under_faults() {
        // with the ring active, corruption the reduction retries cannot
        // repair replays ≤ C iterations instead of warm-restarting; every
        // solve still reaches the fault-free answer
        use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
        use std::sync::Arc;
        use vr_par::fault::FaultSite;
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let mut total_rollbacks = 0usize;
        for seed in 0..10u64 {
            // overlap-k1's fault surface is its reductions (the scalar
            // recurrences consume them): corrupt the dot partials, often
            // enough that some reduction faults on all three attempts
            let inj =
                SeededInjector::new(seed, 0.002, FaultKind::Nan).at_site(FaultSite::DotPartial);
            let o = SolveOptions::default()
                .with_tol(1e-6)
                .with_injector(Arc::new(inj))
                .with_recovery(RecoveryPolicy::default().with_checkpoint_period(8));
            let res = OverlapK1Cg::new().with_resync(20).solve(&a, &b, None, &o);
            assert!(res.converged, "seed {seed}: {:?}", res.termination);
            if res.recovery.rollbacks > 0 {
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
    fn checksum_guard_localizes_partial_corruption() {
        // duplicate-leaf checksum on the split-phase dots: a corrupted
        // partial is detected (and repaired when one copy is clean) at the
        // consume point, surfacing through recovery.faults_detected
        use crate::resilience::{FaultKind, SeededInjector};
        use std::sync::Arc;
        use vr_linalg::kernels::DotMode;
        use vr_par::fault::FaultSite;
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        let inj = SeededInjector::new(3, 0.002, FaultKind::Nan).at_site(FaultSite::DotPartial);
        let o = SolveOptions::default()
            .with_tol(1e-6)
            .with_dot_mode(DotMode::Tree)
            .with_reduction_checksum(true)
            .with_injector(Arc::new(inj));
        let res = OverlapK1Cg::new().with_resync(20).solve(&a, &b, None, &o);
        // single-copy NaN leaves are repaired in place: the solve converges
        // and every detection is tallied
        assert!(res.converged, "termination {:?}", res.termination);
        assert!(res.true_residual(&a, &b) < 1e-4);
        assert!(res.recovery.faults_detected >= 1, "{:?}", res.recovery);
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(10, 0.5, -1.0);
        let b = gen::rand_vector(10, 3);
        let res = OverlapK1Cg::new().solve(&a, &b, None, &SolveOptions::default());
        assert_eq!(res.termination, Termination::Breakdown);
    }
}
