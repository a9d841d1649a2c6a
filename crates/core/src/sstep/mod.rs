//! s-step (communication-avoiding) conjugate gradients — the descendant of
//! Van Rosendale's look-ahead idea.
//!
//! The 1983 paper restructures CG so inner-product fan-ins have k
//! iterations of slack. The s-step family (Chronopoulos-Gear 1989, later
//! CA-CG) takes the complementary step the paper's machinery makes
//! possible: perform `s` CG iterations as **one block step** — build an
//! s-dimensional Krylov basis with `s` matvecs, form all inner products in
//! **one batched Gram computation** (a single reduction per block instead
//! of 2s), and advance by solving an s×s SPD system.
//!
//! Each outer step of [`SStepCg`]:
//!
//! 1. `V = [p₀(A)r, p₁(A)r, …, p_{s−1}(A)r]` — the basis polynomials come
//!    from [`basis::BasisKind`]: monomial (the paper's powers `Aⁱr`),
//!    Newton (shifted by Leja-ordered Ritz values), or Chebyshev (scaled to
//!    the spectral interval). The latter two fix the numerical instability
//!    of the power basis that E9 maps.
//! 2. A-conjugate `V` against the previous block `P_prev`:
//!    `P = V − P_prev·B` with `B = (P_prevᵀAP_prev)⁻¹(P_prevᵀAV)`.
//! 3. Solve `(PᵀAP)·y = Pᵀr` by dense Cholesky and update
//!    `x += P·y`, `r −= AP·y`.
//!
//! In exact arithmetic this reproduces `s` iterations of CG (same Krylov
//! space, same A-norm minimization). The Gram matrices are computed by
//! batched deterministic reductions, so the block has **two reduction
//! points per s iterations** — the communication-avoiding property.

pub mod basis;

use crate::driver::{self, Checkpoint, Driver, Rung, Twins, Visit};
use crate::resilience::guard;
use crate::solver::{CgVariant, SolveOptions, SolveResult, Termination};
use basis::{BasisKind, KrylovBasis};
use vr_linalg::dense::Cholesky;
use vr_linalg::mpk::MpkWorkspace;
use vr_linalg::{DenseMatrix, LinearOperator};

/// s-step CG solver.
#[derive(Debug, Clone)]
pub struct SStepCg {
    /// Block size `s ≥ 1` (s CG iterations per outer step).
    pub s: usize,
    /// Basis polynomials for the block Krylov space.
    pub basis: BasisKind,
}

impl SStepCg {
    /// Monomial-basis s-step CG (the paper's power basis).
    #[must_use]
    pub fn monomial(s: usize) -> Self {
        SStepCg {
            s: s.max(1),
            basis: BasisKind::Monomial,
        }
    }

    /// Newton-basis s-step CG with shifts estimated by Lanczos.
    #[must_use]
    pub fn newton(s: usize) -> Self {
        SStepCg {
            s: s.max(1),
            basis: BasisKind::Newton,
        }
    }

    /// Chebyshev-basis s-step CG scaled to a Lanczos-estimated interval.
    #[must_use]
    pub fn chebyshev(s: usize) -> Self {
        SStepCg {
            s: s.max(1),
            basis: BasisKind::Chebyshev,
        }
    }
}

impl CgVariant for SStepCg {
    fn name(&self) -> String {
        format!("sstep-cg(s={},{})", self.s, self.basis.label())
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        // The s-step block exchange (basis build + Gram solve) spans s
        // matvec depths — no single-pass schedule exists.
        if let Some(res) = driver::twin(self, &Twins::NONE, a, b, x0, opts) {
            return res;
        }
        let s = self.s;
        let (mut drv, x, r) = Driver::start(a, b, x0, opts);
        let thresh_sq = drv.thresh_sq;
        let team = opts.team();

        // Basis parameters (shifts / interval) from a short Lanczos run.
        let params = basis::BasisParams::estimate(self.basis, a, s, &mut drv.counts);

        let rr = guard::guarded_dot(opts, &r, &r, &mut drv.rstats);
        drv.counts.dots += 1;
        drv.record(rr);
        let mut st = State { x, r, rr };

        // Two direction blocks, alternating roles each outer step:
        // `blocks[cur]` receives the fresh basis (becoming the current P),
        // `blocks[1 − cur]` holds the previous step's P (valid only when
        // `prev_active`). Swapping indices instead of buffers keeps every
        // outer step allocation-free once both blocks are warm.
        let mut blocks = [KrylovBasis::default(), KrylovBasis::default()];
        let mut cur = 0usize;
        let mut prev_active = false;
        let mut ws = MpkWorkspace::new();
        ws.set_tracer(opts.tracer.clone());
        // dense scratch, sized once
        let mut gram = DenseMatrix::zeros(s, s);
        let mut chol = Cholesky::zeros(s);
        let mut rhs = vec![0.0; s];
        let mut ycoef = vec![0.0; s];
        let mut bcoef = vec![0.0; s];

        let mut iterations = 0usize;
        // `Some(fail)` hands a signal to the driver's ladder: a convergence
        // claim (on the initial `(r, r)` too, a reduction like any other),
        // or a suspicious signal (a Gram matrix that is not numerically
        // SPD, or a non-finite residual).
        let mut signal = (st.rr <= thresh_sq).then_some(Termination::Stagnated);
        let termination = loop {
            if let Some(fail) = signal.take() {
                match drv.certify(&mut st, iterations, fail) {
                    Rung::Rollback(c) => iterations = c,
                    Rung::Restart(rr) => st.rr = rr,
                    Rung::End(t) => break t,
                }
                // a restored or restarted block resumes unconjugated
                prev_active = false;
            }
            if iterations >= opts.max_iters {
                break Termination::MaxIterations;
            }
            // one loop top per outer block step — the natural iteration
            // unit of s-step CG
            if drv.top(iterations, st.rr, &mut st) {
                break Termination::Cancelled;
            }
            signal = 'block: {
                // 1) block basis from the current residual
                opts.span(vr_obs::SpanKind::MpkBuild, || {
                    basis::build_into(
                        a,
                        &st.r,
                        s,
                        &params,
                        team.as_deref(),
                        opts.mpk_tile,
                        &mut ws,
                        &mut blocks[cur],
                        &mut drv.counts,
                    );
                });

                // 2) A-conjugation against the previous block:
                //    B = (P'ᵀAP')⁻¹ (P'ᵀAV);  P = V − P'B;  AP = AV − AP'B
                let (lo, hi) = blocks.split_at_mut(1);
                let (blk, prev) = if cur == 0 {
                    (&mut lo[0], &hi[0])
                } else {
                    (&mut hi[0], &lo[0])
                };
                let (p, ap) = (&mut blk.v, &mut blk.av);
                if prev_active {
                    let (p_prev, ap_prev) = (&prev.v, &prev.av);
                    let sp = p_prev.len();
                    for i in 0..sp {
                        for j in 0..sp {
                            gram[(i, j)] =
                                guard::guarded_dot(opts, &p_prev[i], &ap_prev[j], &mut drv.rstats);
                        }
                    }
                    drv.counts.dots += sp * sp;
                    if gram.cholesky_into(&mut chol).is_err() {
                        break 'block Some(Termination::Breakdown);
                    }
                    for (pc, apc) in p.iter_mut().zip(ap.iter_mut()) {
                        // rhs_i = (p_prev_i, A·v) = (ap_prev_i, v)
                        for (ri, api) in rhs.iter_mut().zip(ap_prev) {
                            *ri = guard::guarded_dot(opts, api, &*pc, &mut drv.rstats);
                        }
                        drv.counts.dots += sp;
                        chol.solve_into(&rhs, &mut bcoef);
                        for (i, &bi) in bcoef.iter().enumerate() {
                            opts.axpy(-bi, &p_prev[i], pc, &mut drv.counts);
                            opts.axpy(-bi, &ap_prev[i], apc, &mut drv.counts);
                        }
                        drv.counts.scalar_ops += sp * sp;
                    }
                }

                // 3) small SPD solve: (PᵀAP) y = Pᵀ r
                for i in 0..s {
                    for j in 0..s {
                        gram[(i, j)] = guard::guarded_dot(opts, &p[i], &ap[j], &mut drv.rstats);
                    }
                }
                for (ri, pi) in rhs.iter_mut().zip(p.iter()) {
                    *ri = guard::guarded_dot(opts, pi, &st.r, &mut drv.rstats);
                }
                drv.counts.dots += s * s + s;

                if gram.cholesky_into(&mut chol).is_err() {
                    break 'block Some(Termination::Breakdown);
                }
                chol.solve_into(&rhs, &mut ycoef);
                drv.counts.scalar_ops += s * s * s / 3;

                // 4) block update; the final r-axpy carries the residual
                //    norm in the same sweep (bit-identical to axpy-then-dot)
                let (&y_last, y_rest) = ycoef.split_last().expect("s >= 1");
                for (i, &yi) in y_rest.iter().enumerate() {
                    opts.axpy(yi, &p[i], &mut st.x, &mut drv.counts);
                    opts.axpy(-yi, &ap[i], &mut st.r, &mut drv.counts);
                }
                opts.axpy(y_last, &p[s - 1], &mut st.x, &mut drv.counts);

                let rr = opts.axpy_norm2_sq(-y_last, &ap[s - 1], &mut st.r, &mut drv.counts);
                st.rr = guard::retry_reduction(opts, &st.r, &st.r, rr, &mut drv.rstats);
                iterations += s.min(opts.max_iters - iterations);
                drv.record(st.rr);
                if st.rr <= thresh_sq {
                    break 'block Some(Termination::Stagnated);
                }
                guard::check_finite(st.rr)
                    .is_err()
                    .then_some(Termination::Breakdown)
            };
            if signal.is_none() {
                // the fresh block becomes the previous block for the next step
                cur = 1 - cur;
                prev_active = true;
            }
        };

        drv.rstats.final_k = s;
        drv.finish(st.x, &mut st.r, termination, iterations)
    }

    fn backoff(&self) -> Option<Box<dyn CgVariant>> {
        if self.s > 1 {
            Some(Box::new(SStepCg {
                s: self.s / 2,
                basis: self.basis,
            }))
        } else {
            Some(Box::new(crate::standard::StandardCg::new()))
        }
    }

    fn depth(&self) -> usize {
        self.s
    }
}

/// Loop-carried state; a checkpoint snapshots `[x, r]` and `[rr]` at
/// block boundaries. The direction blocks are NOT saved — a restore
/// resumes unconjugated (exactly the state after a warm restart, but from
/// a ≤ C-iterations-old known-good iterate).
struct State {
    x: Vec<f64>,
    r: Vec<f64>,
    rr: f64,
}

impl Checkpoint for State {
    fn state(&mut self, f: Visit<'_>) {
        f(&mut [&mut self.x, &mut self.r], &mut [&mut self.rr]);
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

    fn opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-8).with_max_iters(4000)
    }

    #[test]
    fn monomial_s2_matches_standard_cg_blocks() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let std = StandardCg::new().solve(&a, &b, None, &opts());
        let ss = SStepCg::monomial(2).solve(&a, &b, None, &opts());
        assert!(ss.converged, "{:?}", ss.termination);
        // Block boundaries align with every 2nd CG iterate: residual norms
        // at outer step j must match CG iterate 2j.
        for (j, rn) in ss.residual_norms.iter().enumerate().skip(1).take(8) {
            let cg_idx = 2 * j;
            if cg_idx < std.residual_norms.len() {
                let cg = std.residual_norms[cg_idx];
                assert!(
                    (rn - cg).abs() <= 1e-4 * (1.0 + cg),
                    "block {j}: {rn} vs CG[{cg_idx}] = {cg}"
                );
            }
        }
    }

    #[test]
    fn all_bases_converge_on_poisson2d() {
        let a = gen::poisson2d(12);
        let b = gen::poisson2d_rhs(12);
        for solver in [
            SStepCg::monomial(4),
            SStepCg::newton(4),
            SStepCg::chebyshev(4),
        ] {
            let res = solver.solve(&a, &b, None, &opts());
            assert!(
                res.converged,
                "{}: {:?} after {}",
                solver.name(),
                res.termination,
                res.iterations
            );
            assert!(
                res.true_residual(&a, &b) < 1e-5,
                "{}: true residual {}",
                solver.name(),
                res.true_residual(&a, &b)
            );
        }
    }

    #[test]
    fn stable_bases_survive_larger_s_than_monomial() {
        // On a moderately conditioned problem, s = 12 with the monomial
        // basis degrades (restarts / extra iterations); Chebyshev stays
        // clean. Quantified: Chebyshev needs no more than half the
        // monomial's iteration count or the monomial fails outright.
        let a = gen::poisson2d(16);
        let b = gen::poisson2d_rhs(16);
        let o = SolveOptions::default().with_tol(1e-8).with_max_iters(4000);
        let mono = SStepCg::monomial(12).solve(&a, &b, None, &o);
        let cheb = SStepCg::chebyshev(12).solve(&a, &b, None, &o);
        assert!(cheb.converged, "chebyshev: {:?}", cheb.termination);
        assert!(cheb.true_residual(&a, &b) < 1e-5);
        let mono_ok = mono.converged && mono.counts.restarts == 0;
        assert!(
            !mono_ok || mono.iterations >= cheb.iterations,
            "monomial unexpectedly clean at s=12: {} iters vs chebyshev {}",
            mono.iterations,
            cheb.iterations
        );
    }

    #[test]
    fn s1_equals_standard_cg() {
        // s = 1 degenerates to steepest-descent-with-conjugation = CG
        let a = gen::rand_spd(30, 4, 2.0, 8);
        let b = gen::rand_vector(30, 9);
        let std = StandardCg::new().solve(&a, &b, None, &opts());
        let ss = SStepCg::monomial(1).solve(&a, &b, None, &opts());
        assert!(ss.converged);
        let m = std.residual_norms.len().min(ss.residual_norms.len());
        for i in 0..m.saturating_sub(2) {
            let (s0, s1) = (std.residual_norms[i], ss.residual_norms[i]);
            assert!(
                (s0 - s1).abs() <= 1e-6 * (1.0 + s0),
                "iter {i}: {s0} vs {s1}"
            );
        }
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::poisson1d(6);
        let res = SStepCg::monomial(3).solve(&a, &[0.0; 6], None, &opts());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(SStepCg::monomial(4).name(), "sstep-cg(s=4,monomial)");
        assert_eq!(SStepCg::newton(2).name(), "sstep-cg(s=2,newton)");
        assert_eq!(SStepCg::chebyshev(8).name(), "sstep-cg(s=8,chebyshev)");
        assert_eq!(SStepCg::monomial(0).s, 1);
    }

    #[test]
    fn solves_random_spd_with_all_bases() {
        let a = gen::rand_spd(60, 5, 1.5, 44);
        let b = gen::rand_vector(60, 45);
        for solver in [
            SStepCg::monomial(3),
            SStepCg::newton(3),
            SStepCg::chebyshev(3),
        ] {
            let res = solver.solve(&a, &b, None, &opts());
            assert!(res.converged, "{}", solver.name());
            assert!(res.true_residual(&a, &b) < 1e-5, "{}", solver.name());
        }
    }
}
