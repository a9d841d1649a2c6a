//! Mixed-precision CG twins: `f32` working vectors, `f64` safety net.
//!
//! The bandwidth argument: CG at useful problem sizes is memory-bound, and
//! every hot sweep (matvec, fused update, reduction leaf) streams working
//! vectors whose *storage* precision is what the memory bus pays for.
//! Holding `x`, `r`, `p` and the variant's auxiliaries in `f32` halves the
//! bytes per iteration; the arithmetic that decides anything — reduction
//! accumulation, scalar recurrences, convergence — stays in `f64`:
//!
//! * every `f32` reduction leaf widens each product to `f64` *before*
//!   summing ([`vr_par::simd::leaf_dot_f32`] and friends), in the same
//!   lane-blocked accumulator layout as the `f64` leaves, so reduction
//!   values are bit-identical across the scalar and AVX2 backends;
//! * the scalar recurrences (`λ`, `β`, and the overlapped identities of
//!   the paper's §3) run entirely in `f64`;
//! * a **shadow guard** periodically widens the `f32` iterate to `f64`,
//!   recomputes the true residual `b − A·x` through the operator's full
//!   `f64` matvec ([`LinearOperator::apply_team`] on the solve's team,
//!   summed in its `dot_mode`, never through the fault injector), and
//!   either *confirms* convergence,
//!   *replaces* the working residual (Cools-style residual replacement —
//!   the `f32` recurrence restarts from the `f64` truth), or declares
//!   stagnation at the `f32`-attainable floor.
//!
//! A mixed solve **never** reports convergence from the `f32` recurrence
//! alone: [`Termination::Converged`] is only ever set after the shadow
//! guard's `f64` confirmation. Tolerances below the `f32` floor terminate
//! with [`Termination::Stagnated`] instead of falsely converging.
//!
//! Only variants whose dependency structure has a faithful `f32` twin here
//! are eligible ([`CgVariant::supports`]): standard CG, the paper's
//! one-step overlapped CG, and Ghysels-Vanroose pipelined CG — each
//! declares its twin to the iteration driver, which dispatches to it. Every
//! other variant rejects [`Execution::Mixed`] with
//! [`Termination::Unsupported`] — an explicit error beats a silent `f64`
//! fallback whose numbers the caller would misattribute. Likewise an
//! operator without a native `f32` path ([`LinearOperator::apply_f32`],
//! probed by `supported`).

use crate::baselines::PipelinedCg;
use crate::driver::{norm, Checkpoint, Driver, Step};
use crate::instrument::OpCounts;
use crate::overlap_k1::OverlapK1Cg;
use crate::resilience::guard;
use crate::solver::{SolveOptions, SolveResult, Termination};
use crate::standard::StandardCg;
use vr_linalg::LinearOperator;
use vr_par::{reduce, simd};

#[cfg(doc)]
use crate::solver::{CgVariant, Execution};

/// Confirm the `f32` recurrence against the `f64` truth every this many
/// iterations (in addition to every convergence claim and every suspicious
/// scalar). Frequent enough to bound drift, rare enough that the extra
/// `f64` matvec is noise against the per-iteration sweep traffic.
const CONFIRM_PERIOD: usize = 32;

/// Widen `src` into `dst` (exact: every `f32` is representable in `f64`).
fn widen_into(src: &[f32], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f64::from(*s);
    }
}

/// Narrow `src` into `dst` (round-to-nearest).
fn narrow_into(src: &[f64], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s as f32;
    }
}

/// Whether `a` has a native `f32` matvec. Operators answer statically, so
/// a `false` here is a configuration error, not a transient.
pub(crate) fn supported(a: &dyn LinearOperator) -> bool {
    let n = a.dim();
    a.apply_f32(&vec![0.0f32; n], &mut vec![0.0f32; n])
}

/// Verdict of one `f64` shadow confirmation.
enum Confirm {
    /// The solve ends: the true residual meets the tolerance
    /// (`Converged`), or has made no meaningful progress across
    /// consecutive confirmations — the `f32`-attainable floor
    /// (`Stagnated`). Carries the squared true residual.
    End(Termination, f64),
    /// Not converged, but still making progress — the caller replaces its
    /// working residual with the `f64` truth (left in [`Shadow::rt`]) and
    /// restarts its direction state.
    Replace(f64),
}

/// The `f64` safety net: widened iterate, true residual, and a progress
/// tracker deciding replacement vs stagnation.
struct Shadow {
    /// Widened copy of the `f32` iterate.
    xw: Vec<f64>,
    /// True residual `b − A·xw` as of the last confirmation.
    rt: Vec<f64>,
    thresh_sq: f64,
    /// Best confirmed squared true-residual norm so far.
    best: f64,
    /// Consecutive confirmations without the required improvement.
    strikes: u32,
}

impl Shadow {
    /// Confirmations in a row that may fail to improve [`Shadow::best`] by
    /// [`Shadow::IMPROVE`] before the solve is declared stagnated.
    const MAX_STRIKES: u32 = 3;
    /// Required squared-norm reduction factor between confirmations.
    const IMPROVE: f64 = 0.5;

    fn new(n: usize, thresh_sq: f64) -> Self {
        Shadow {
            xw: vec![0.0; n],
            rt: vec![0.0; n],
            thresh_sq,
            best: f64::INFINITY,
            strikes: 0,
        }
    }

    /// Recompute the `f64` true residual of the `f32` iterate and judge it.
    /// Costs one `f64` matvec + one vector op + one dot, tallied honestly.
    fn confirm(
        &mut self,
        a: &dyn LinearOperator,
        opts: &SolveOptions,
        b: &[f64],
        x32: &[f32],
        counts: &mut OpCounts,
    ) -> Confirm {
        // Widen (4n + 8n) + f64 matvec vector streams (16n) + residual
        // subtraction (24n) + dot (16n): the guard's full-width traffic,
        // tallied so E22 sees the true cost of the f64 safety net.
        let guard_bytes = 68 * x32.len() as u64;
        let rr_true = opts.span_bytes(vr_obs::SpanKind::Guard, guard_bytes, || {
            widen_into(x32, &mut self.xw);
            opts.true_rr_into(a, b, &self.xw, &mut self.rt)
        });
        counts.matvecs += 1;
        counts.vector_ops += 1;
        counts.dots += 1;
        if rr_true <= self.thresh_sq {
            return Confirm::End(Termination::Converged, rr_true);
        }
        if rr_true.is_finite() && rr_true <= Self::IMPROVE * self.best {
            self.strikes = 0;
        } else {
            self.strikes += 1;
        }
        if rr_true.is_finite() {
            self.best = self.best.min(rr_true);
        }
        if self.strikes >= Self::MAX_STRIKES {
            Confirm::End(Termination::Stagnated, rr_true)
        } else {
            Confirm::Replace(rr_true)
        }
    }

    /// Confirm and act on the verdict. `Err(step)` ends the solve after
    /// `n` iterations, the confirmed `f64` norm closing the history —
    /// appended on an `early` exit (before the iteration recorded
    /// anything), else in place of the iteration's recursive value.
    /// `Ok(rr)` means `st.r` now holds the narrowed `f64` truth of squared
    /// norm `rr`, for the caller to restart its direction state from.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &mut self,
        a: &dyn LinearOperator,
        opts: &SolveOptions,
        b: &[f64],
        drv: &mut Driver<'_>,
        st: &mut Working,
        n: usize,
        early: bool,
    ) -> Result<f64, Step> {
        match self.confirm(a, opts, b, &st.x, &mut drv.counts) {
            Confirm::End(t, rt) => {
                if early || drv.history_len() == 0 {
                    drv.record(rt);
                } else {
                    drv.replace_last(norm(rt));
                }
                drv.certified(n);
                Err(Step::End(t, n))
            }
            Confirm::Replace(rt) => {
                narrow_into(&self.rt, &mut st.r);
                drv.counts.vector_ops += 1;
                drv.counts.restarts += 1;
                Ok(rt)
            }
        }
    }
}

/// The working state every mixed loop carries through the driver: the
/// `f32` iterate and residual and the `f64` squared residual norm the
/// convergence test compares. No checkpoint is declared — the shadow
/// guard's residual replacement is the mixed loops' recovery.
struct Working {
    x: Vec<f32>,
    r: Vec<f32>,
    rr: f64,
}

impl Checkpoint for Working {
    fn residual(&mut self) -> (&[f64], &mut [f64]) {
        unreachable!("the shadow guard certifies every mixed claim")
    }
}

/// Common startup for all mixed loops: the driver's set-up (exact `f64`
/// initial residual, threshold), the recorded `f64` initial squared
/// residual, the narrowed working copies and the shadow guard. A
/// convergence claim on the initial residual is confirmed like any other:
/// a refuted one leaves the narrowed `f64` truth in the working residual.
fn mixed_start<'a>(
    a: &'a dyn LinearOperator,
    b: &'a [f64],
    x0: Option<&[f64]>,
    opts: &'a SolveOptions,
) -> (Driver<'a>, Working, Shadow) {
    let (mut drv, xw, rw) = Driver::start(a, b, x0, opts);
    let rr = opts.dot(&rw, &rw);
    drv.counts.dots += 1;
    let x: Vec<f32> = xw.iter().map(|&v| v as f32).collect();
    let r: Vec<f32> = rw.iter().map(|&v| v as f32).collect();
    drv.counts.vector_ops += 2;
    drv.record(rr);
    let mut st = Working { x, r, rr };
    let mut shadow = Shadow::new(a.dim(), drv.thresh_sq);
    if rr <= drv.thresh_sq {
        if let Ok(rt) = shadow.settle(a, opts, b, &mut drv, &mut st, 0, false) {
            st.rr = rt;
        }
    }
    (drv, st, shadow)
}

/// Mixed-precision standard CG (Hestenes-Stiefel structure, `f32` working
/// vectors). The loop shape mirrors [`crate::standard::StandardCg`]: one
/// matvec and two dependent reductions per iteration, with the fused
/// update-and-norm sweep; the shadow guard replaces the `f64` path's
/// [`crate::resilience::guard::ResidualGuard`].
pub(crate) fn solve_standard(
    _: &StandardCg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let (mut drv, mut st, mut shadow) = mixed_start(a, b, x0, opts);
    let mut p = st.r.clone();
    let mut w = vec![0.0f32; n];
    drv.counts.vector_ops += 1;
    // Set after a residual replacement; a pivot failure in the very next
    // iteration is a genuine breakdown, not accumulated f32 drift.
    let mut just_replaced = false;

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.rr,
        |drv, st, it| {
            drv.counts.matvecs += 1;
            drv.counts.dots += 1;
            opts.span_bytes(vr_obs::SpanKind::Matvec, 8 * n as u64, || {
                a.apply_f32(&p, &mut w)
            });
            let pap = opts.span_bytes(vr_obs::SpanKind::DotWait, 8 * n as u64, || {
                reduce::dot_f32_wide(&p, &w)
            });
            if guard::check_pivot(pap).is_err() {
                if just_replaced {
                    return Step::breakdown(it);
                }
                return match shadow.settle(a, opts, b, drv, st, it, true) {
                    Err(end) => end,
                    Ok(rt) => {
                        p.copy_from_slice(&st.r);
                        drv.counts.vector_ops += 1;
                        st.rr = rt;
                        just_replaced = true;
                        Step::Retry
                    }
                };
            }
            let lambda = opts.scalar(st.rr / pap);
            drv.counts.scalar_ops += 1;
            drv.counts.vector_ops += 2;
            drv.counts.dots += 1;
            // p, w read; x, r read-modify-write → 6 f32 streams.
            let rr_next = opts.span_bytes(vr_obs::SpanKind::VectorOp, 24 * n as u64, || {
                simd::leaf_update_xr_f32(lambda as f32, &p, &w, &mut st.x, &mut st.r)
            });
            drv.record(rr_next);

            let due = (it + 1).is_multiple_of(CONFIRM_PERIOD);
            if rr_next <= drv.thresh_sq || due || !rr_next.is_finite() {
                return match shadow.settle(a, opts, b, drv, st, it + 1, false) {
                    Err(end) => end,
                    Ok(rt) => {
                        p.copy_from_slice(&st.r);
                        drv.counts.vector_ops += 1;
                        st.rr = rt;
                        just_replaced = true;
                        Step::Next
                    }
                };
            }
            just_replaced = false;
            let beta = opts.scalar(rr_next / st.rr);
            drv.counts.scalar_ops += 1;
            st.rr = rr_next;
            drv.counts.vector_ops += 1;
            opts.span_bytes(vr_obs::SpanKind::VectorOp, 12 * n as u64, || {
                simd::leaf_xpay_f32(&st.r, beta as f32, &mut p)
            });
            Step::Next
        },
        |_, _, _| unreachable!("the shadow guard certifies every mixed claim"),
    );
    drv.finish(widen(&st.x), &mut shadow.rt, termination, iterations)
}

/// Warm restart of the overlapped recurrences from the residual `r`:
/// `p = r`, `w = A·p`, `v = A·w`, returning the direct `(r, A·r)` that
/// both carried scalars restart from (one matvec pair, one dot).
fn overlap_restart(
    a: &dyn LinearOperator,
    opts: &SolveOptions,
    r: &[f32],
    p: &mut [f32],
    w: &mut [f32],
    v: &mut [f32],
    counts: &mut OpCounts,
) -> f64 {
    let n = r.len();
    p.copy_from_slice(r);
    counts.vector_ops += 1;
    counts.matvecs += 2;
    opts.span_bytes(vr_obs::SpanKind::Matvec, 16 * n as u64, || {
        a.apply_f32(p, w);
        a.apply_f32(w, v);
    });
    counts.dots += 1;
    opts.span_bytes(vr_obs::SpanKind::DotWait, 8 * n as u64, || {
        reduce::dot_f32_wide(r, w)
    })
}

/// Mixed-precision one-step overlapped CG (the paper's §3 structure). The
/// four overlappable inner products run as two shared-sweep pairs over the
/// `f32` vectors (widened accumulation); the (*) scalar recurrences stay
/// pure `f64`. Scalar-recurrence drift — the classic weakness this
/// formulation trades for its overlap — is caught by the same shadow guard
/// cadence as the other mixed loops.
pub(crate) fn solve_overlap_k1(
    _: &OverlapK1Cg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let (mut drv, mut st, mut shadow) = mixed_start(a, b, x0, opts);
    let mut p = vec![0.0f32; n];
    let mut w = vec![0.0f32; n];
    let mut v = vec![0.0f32; n];
    // Startup: p = r, w = A·p, v = A·w, carried scalars (r,Ar) = (p,Ap).
    let mut rar = overlap_restart(a, opts, &st.r, &mut p, &mut w, &mut v, &mut drv.counts);
    let mut pap = rar;
    let mut just_replaced = false;

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.rr,
        |drv, st, it| {
            let suspicious = guard::check_pivot(pap).is_err() || guard::check_pivot(st.rr).is_err();
            let due = it > 0 && it.is_multiple_of(CONFIRM_PERIOD);
            if suspicious || due {
                if suspicious && just_replaced {
                    return Step::breakdown(it);
                }
                // Warm restart from the f64 truth: p = r, direct carried
                // scalars (one extra matvec pair).
                st.rr = match shadow.settle(a, opts, b, drv, st, it, true) {
                    Err(end) => return end,
                    Ok(rt) => rt,
                };
                rar = overlap_restart(a, opts, &st.r, &mut p, &mut w, &mut v, &mut drv.counts);
                pap = rar;
                just_replaced = suspicious;
            }
            // The four overlappable inner products on CURRENT vectors —
            // (r,w)/(r,v) share the sweep over r, (w,w)/(w,v) the sweep
            // over w, exactly like the f64 formulation.
            drv.counts.dots += 4;
            let ((rw, rv), (ww, wv)) =
                opts.span_bytes(vr_obs::SpanKind::DotWait, 24 * n as u64, || {
                    (
                        simd::leaf_dot2_f32(&st.r, &w, &v),
                        simd::leaf_dot2_f32(&w, &w, &v),
                    )
                });
            let rr = st.rr;
            let lambda = opts.scalar(rr / pap);
            drv.counts.vector_ops += 1;
            opts.span_bytes(vr_obs::SpanKind::VectorOp, 12 * n as u64, || {
                simd::leaf_axpy_f32(lambda as f32, &p, &mut st.x)
            });

            // Scalar recurrences (claim C3, k = 1) — pure f64.
            let rr_next = rr - 2.0 * lambda * rw + lambda * lambda * ww;
            let rar_next = rar - 2.0 * lambda * rv + lambda * lambda * wv;
            let alpha = rr_next / rr;
            let rnext_w = rw - lambda * ww;
            let pap_next = rar_next + 2.0 * alpha * rnext_w + alpha * alpha * pap;
            drv.counts.scalar_ops += 12;

            drv.record(rr_next);
            if rr_next <= drv.thresh_sq {
                st.rr = match shadow.settle(a, opts, b, drv, st, it + 1, false) {
                    Err(end) => return end,
                    Ok(rt) => rt,
                };
                rar = overlap_restart(a, opts, &st.r, &mut p, &mut w, &mut v, &mut drv.counts);
                pap = rar;
                just_replaced = false;
                return Step::Next;
            }
            if guard::check_finite(rr_next).is_err() {
                // Route through the validation branch at the loop top.
                st.rr = rr_next;
                return Step::Next;
            }

            // Vector updates + the next matvec pair.
            drv.counts.vector_ops += 2;
            opts.span_bytes(vr_obs::SpanKind::VectorOp, 24 * n as u64, || {
                simd::leaf_axpy_f32(-(lambda as f32), &w, &mut st.r);
                simd::leaf_xpay_f32(&st.r, alpha as f32, &mut p);
            });
            drv.counts.matvecs += 2;
            opts.span_bytes(vr_obs::SpanKind::Matvec, 16 * n as u64, || {
                a.apply_f32(&p, &mut w);
                a.apply_f32(&w, &mut v);
            });

            st.rr = rr_next;
            rar = rar_next;
            pap = pap_next;
            just_replaced = false;
            Step::Next
        },
        |_, _, _| unreachable!("the shadow guard certifies every mixed claim"),
    );
    drv.finish(widen(&st.x), &mut shadow.rt, termination, iterations)
}

/// Mixed-precision Ghysels-Vanroose pipelined CG. Recurrence-maintained
/// auxiliaries `s = A·p`, `q = A·w`, `z = A·s` live in `f32` alongside the
/// working vectors; `γ`, `δ`, `β`, `λ` stay `f64`. A residual replacement
/// restarts the pipeline cleanly (next iteration takes the `β = 0` startup
/// branch), since the auxiliary recurrences are only valid along an
/// uninterrupted direction history.
pub(crate) fn solve_pipelined(
    _: &PipelinedCg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let (mut drv, mut st, mut shadow) = mixed_start(a, b, x0, opts);
    // w = A·r, restarted from every replaced residual.
    let restart_w = |r: &[f32], w: &mut [f32], counts: &mut OpCounts| {
        counts.matvecs += 1;
        opts.span_bytes(vr_obs::SpanKind::Matvec, 8 * n as u64, || a.apply_f32(r, w));
    };
    let mut w = vec![0.0f32; n];
    restart_w(&st.r, &mut w, &mut drv.counts);
    let mut p = vec![0.0f32; n];
    let mut s = vec![0.0f32; n];
    let mut z = vec![0.0f32; n];
    let mut q = vec![0.0f32; n];

    // `st.rr` is γ = (r, r).
    let mut gamma_old = 1.0f64;
    let mut lambda_old = 1.0f64;
    let mut just_replaced = false;
    // Forces the β = 0 startup branch (fresh pipeline) — true at solve
    // start and after every residual replacement.
    let mut fresh = true;

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.rr,
        |drv, st, it| {
            drv.counts.dots += 1;
            let delta = opts.span_bytes(vr_obs::SpanKind::DotWait, 8 * n as u64, || {
                reduce::dot_f32_wide(&w, &st.r)
            });
            // q = A·w — the reduction-overlapped matvec of the pipeline.
            drv.counts.matvecs += 1;
            opts.span_bytes(vr_obs::SpanKind::Matvec, 8 * n as u64, || {
                a.apply_f32(&w, &mut q)
            });

            let gamma = st.rr;
            let (beta, denom) = if fresh {
                (0.0, delta)
            } else {
                let beta = gamma / gamma_old;
                (beta, delta - beta * gamma / lambda_old)
            };
            drv.counts.scalar_ops += 3;
            if guard::check_pivot(denom).is_err() {
                if just_replaced {
                    return Step::breakdown(it);
                }
                return match shadow.settle(a, opts, b, drv, st, it, true) {
                    Err(end) => end,
                    Ok(rt) => {
                        restart_w(&st.r, &mut w, &mut drv.counts);
                        st.rr = rt;
                        fresh = true;
                        just_replaced = true;
                        Step::Retry
                    }
                };
            }
            let lambda = opts.scalar(gamma / denom);
            drv.counts.scalar_ops += 1;

            drv.counts.vector_ops += 4;
            opts.span_bytes(vr_obs::SpanKind::VectorOp, 48 * n as u64, || {
                let bf = beta as f32;
                simd::leaf_xpay_f32(&st.r, bf, &mut p);
                simd::leaf_xpay_f32(&w, bf, &mut s);
                simd::leaf_xpay_f32(&q, bf, &mut z);
                simd::leaf_axpy_f32(lambda as f32, &p, &mut st.x);
            });

            gamma_old = gamma;
            lambda_old = lambda;
            // r ← r − λ·s carries γ = (r,r) in its sweep.
            drv.counts.vector_ops += 1;
            drv.counts.dots += 1;
            st.rr = opts.span_bytes(vr_obs::SpanKind::VectorOp, 12 * n as u64, || {
                simd::leaf_axpy_norm2_sq_f32(-(lambda as f32), &s, &mut st.r)
            });
            drv.record(st.rr);

            let due = (it + 1).is_multiple_of(CONFIRM_PERIOD);
            if st.rr <= drv.thresh_sq || due || guard::check_finite(st.rr).is_err() {
                return match shadow.settle(a, opts, b, drv, st, it + 1, false) {
                    Err(end) => end,
                    Ok(rt) => {
                        restart_w(&st.r, &mut w, &mut drv.counts);
                        st.rr = rt;
                        fresh = true;
                        just_replaced = true;
                        Step::Next
                    }
                };
            }

            // w ← w − λ·z maintains the matvec image for the next δ.
            drv.counts.vector_ops += 1;
            opts.span_bytes(vr_obs::SpanKind::VectorOp, 12 * n as u64, || {
                simd::leaf_axpy_f32(-(lambda as f32), &z, &mut w)
            });
            fresh = false;
            just_replaced = false;
            Step::Next
        },
        |_, _, _| unreachable!("the shadow guard certifies every mixed claim"),
    );
    drv.finish(widen(&st.x), &mut shadow.rt, termination, iterations)
}

/// Widen the `f32` iterate for the result.
fn widen(x32: &[f32]) -> Vec<f64> {
    x32.iter().map(|&v| f64::from(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{CgVariant, Execution, SolveOptions};
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    fn mixed_opts(tol: f64) -> SolveOptions {
        SolveOptions::default()
            .with_execution(Execution::Mixed)
            .with_tol(tol)
    }

    #[test]
    fn standard_mixed_converges_and_confirms_in_f64() {
        let a = gen::poisson2d(24);
        let b = gen::poisson2d_rhs(24);
        let res = StandardCg::new().solve(&a, &b, None, &mixed_opts(1e-5));
        assert!(res.converged, "termination {:?}", res.termination);
        // The claim is confirmed against the f64 true residual, so the
        // reported final norm must match a from-scratch recomputation.
        let true_res = res.true_residual(&a, &b);
        let bnorm = vr_linalg::kernels::norm2(&b);
        assert!(
            true_res <= 1e-5 * bnorm,
            "reported convergence but true residual is {true_res:e} (bnorm {bnorm:e})"
        );
    }

    #[test]
    fn standard_mixed_never_falsely_converges_below_f32_floor() {
        let a = gen::poisson2d(16);
        let b = gen::poisson2d_rhs(16);
        // Far below the f32-attainable floor: must NOT report convergence.
        let res = StandardCg::new().solve(&a, &b, None, &mixed_opts(1e-14).with_max_iters(2000));
        assert!(!res.converged, "false convergence at tol 1e-14");
        assert!(
            matches!(
                res.termination,
                Termination::Stagnated | Termination::MaxIterations
            ),
            "termination {:?}",
            res.termination
        );
    }

    #[test]
    fn mixed_rejects_operator_without_f32_path() {
        // DenseMatrix has no apply_f32 override.
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 2.0 } else { 0.1 }).collect())
            .collect();
        let a = vr_linalg::DenseMatrix::from_rows(&rows).unwrap();
        let b = vec![1.0; 4];
        let res = StandardCg::new().solve(&a, &b, None, &mixed_opts(1e-6));
        assert_eq!(res.termination, Termination::Unsupported);
        assert!(!res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn mixed_solution_matches_f64_solution() {
        let a = gen::poisson2d(16);
        let b = gen::poisson2d_rhs(16);
        let f64_res = StandardCg::new().solve(&a, &b, None, &SolveOptions::default());
        let mix_res = StandardCg::new().solve(&a, &b, None, &mixed_opts(1e-5));
        assert!(mix_res.converged);
        let err: f64 = f64_res
            .x
            .iter()
            .zip(&mix_res.x)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let xnorm = vr_linalg::kernels::norm2(&f64_res.x);
        assert!(
            err <= 1e-3 * xnorm,
            "mixed solution drifted: err {err:e} vs ‖x‖ {xnorm:e}"
        );
    }
}
