//! Whole-iteration sweep twins: one cache-resident pass per CG iteration.
//!
//! Under [`SweepPolicy::WholeIteration`](crate::solver::SweepPolicy) an
//! eligible variant routes here instead of running its per-kernel loop. Each
//! twin replays the *exact* scalar recurrence, guard sequence, and norm
//! recording of its unfused counterpart, but executes the vector work of an
//! iteration as a small number of barrier-separated team epochs on a
//! [`FusedIterationSweep`] engine: every epoch walks the fixed 256-leaf
//! chunk layout once, staging operator rows into a cache-resident band and
//! folding the iteration's reductions in the same pass. Because each chunk
//! is processed by the identical leaf-kernel call sequence as the per-kernel
//! path (see `vr_linalg::sweep`), the produced bits — `x`, residual norms,
//! iteration counts, termination — are identical to
//! [`SweepPolicy::Fused`](crate::solver::SweepPolicy) at any staging tile,
//! SIMD lane width, and team width.
//!
//! # Eligibility
//!
//! The sweep schedule replays the *fused tree* arithmetic, so the iteration
//! driver refuses — with [`Termination::Unsupported`], the same rejection
//! ineligible variants get — any configuration whose unfused bits it could
//! not reproduce ([`eligible`]):
//!
//! * `dot_mode != Tree` (serial/Kahan orders fold on the calling thread),
//! * `kernel_policy != Fused` (the reference two-pass kernels pair
//!   reductions differently),
//! * fault injection, recovery policies, or checksum-guarded reductions
//!   (their retry/validation hooks interleave with the kernels),
//! * `precision != F64`,
//! * operators without a native sweep decomposition
//!   ([`LinearOperator::as_sweep`] returning `None`).
//!
//! # Operation accounting
//!
//! Twins tally the *logical* algorithm — the same [`OpCounts`] as the
//! unfused path — even though the standard-CG schedule physically evaluates
//! the operator twice per iteration (the `p·Ap` pass does not store `A·p`;
//! the update pass recomputes it in-band, trading a streamed store for
//! cache-resident flops). The physical traffic is what the per-shard
//! [`IterSweep`](vr_obs::SpanKind::IterSweep) spans record.

use crate::baselines::{chronopoulos_gear, pipelined, ChronopoulosGearCg, PipelinedCg};
use crate::driver::{norm, Driver, Step};
use crate::overlap_k1::OverlapK1Cg;
use crate::resilience::guard;
use crate::solver::{KernelPolicy, Precision, SolveOptions, SolveResult, Termination};
use crate::standard::{self, StandardCg};
use vr_linalg::kernels::{dot, DotMode};
use vr_linalg::sweep::FusedIterationSweep;
use vr_linalg::LinearOperator;
use vr_par::team::Team;

/// Whether this (operator, options) pair can run the whole-iteration sweep
/// with bits identical to the per-kernel fused path.
pub(crate) fn eligible(a: &dyn LinearOperator, opts: &SolveOptions) -> bool {
    opts.dot_mode == DotMode::Tree
        && opts.kernel_policy == KernelPolicy::Fused
        && opts.injector.is_none()
        && opts.recovery.is_none()
        && !opts.checksum
        && opts.precision == Precision::F64
        && a.as_sweep().is_some()
}

/// The epoch engine over `a`'s sweep decomposition, staged with the
/// solve's tile and tracer.
fn engine<'a>(
    a: &'a dyn LinearOperator,
    opts: &SolveOptions,
    tm: Option<&Team>,
) -> FusedIterationSweep<'a> {
    FusedIterationSweep::new(
        a.as_sweep().expect("eligibility implies a sweep operator"),
        tm,
        opts.sweep_tile,
        opts.tracer.clone(),
    )
}

/// Standard CG as a three-epoch sweep per iteration.
///
/// Epoch schedule (distinct vector streams per epoch in parentheses;
/// the staging band is cache-resident and unstreamed):
///
/// 1. `pap ← (p, A·p)` without storing `A·p` (read `p`: 8n bytes),
/// 2. `x ← x + λp`, `r ← r − λ·(A·p)` recomputed in-band, carrying
///    `rr = (r, r)` (read `p`, update `x`, `r`: 40n bytes),
/// 3. `p ← r + αp` (read `r`, update `p`: 24n bytes),
///
/// for 72n logical bytes/iteration against the per-kernel fused path's
/// 104n (matvec+dot 24n, update 48n, xpay 24n, `w` store 8n).
pub(crate) fn solve_standard(
    _: &StandardCg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);
    let team = opts.team();
    let tm = team.as_deref();
    let mut eng = engine(a, opts, tm);

    let p = r.clone();
    drv.counts.vector_ops += 1;
    let rr = guard::guarded_dot(opts, &r, &r, &mut drv.rstats);
    drv.counts.dots += 1;
    drv.record(rr);
    let mut st = standard::State { x, r, p, rr };

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.rr,
        |drv, st, it| {
            // Epoch 1: pap = (p, A·p), no w store. Logically one
            // matvec+dot, like the unfused guarded_matvec_dot.
            let pap = eng.epoch_matvec_dot_nostore(tm, &st.p);
            drv.counts.matvecs += 1;
            drv.counts.dots += 1;
            if guard::check_pivot(pap).is_err() {
                return Step::breakdown(it);
            }
            let lambda = opts.scalar(st.rr / pap);
            drv.counts.scalar_ops += 1;
            // Epoch 2: x/r updates with A·p recomputed in-band, carrying
            // (r, r) — bit-identical to guarded_update_xr on a stored w.
            let rr_next = eng.epoch_update_xr_recompute(tm, lambda, &st.p, &mut st.x, &mut st.r);
            drv.counts.vector_ops += 2;
            drv.counts.dots += 1;
            drv.counts.fused_ops += 1;
            drv.record(rr_next);
            let verdict = Step::after(it, rr_next, drv.thresh_sq);
            if verdict.is_next() {
                let alpha = opts.scalar(rr_next / st.rr);
                drv.counts.scalar_ops += 1;
                // Epoch 3: direction update p ← r + α·p.
                eng.epoch_xpay(tm, &st.r, alpha, &mut st.p);
                drv.counts.vector_ops += 1;
            }
            st.rr = rr_next;
            verdict
        },
    );
    drv.finish(st.x, termination, iterations)
}

/// Chronopoulos-Gear CG as a two-epoch sweep per iteration.
///
/// Epoch schedule: (1) the four-way vector update `p ← r + βp`,
/// `s ← w + βs`, `x ← x + λp`, `r ← r − λs` carrying `ρ = (r, r)`
/// (72n bytes); (2) `w ← A·r` carrying `μ = (r, w)` (16n) — 88n
/// logical bytes/iteration against the per-kernel path's 128n.
pub(crate) fn solve_chronopoulos_gear(
    _: &ChronopoulosGearCg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let md = opts.dot_mode;
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);
    let team = opts.team();
    let tm = team.as_deref();
    let mut eng = engine(a, opts, tm);

    let w = opts.matvec_alloc(a, &r, &mut drv.counts);
    let rho = dot(md, &r, &r);
    let mu = dot(md, &r, &w);
    drv.counts.dots += 2;
    drv.record(rho);
    let mut st = chronopoulos_gear::State {
        x,
        r,
        p: vec![0.0; n],
        s: vec![0.0; n], // s = A·p maintained by recurrence
        w,
        rho,
        mu,
        lambda_prev: 0.0,
        rho_prev: 0.0,
    };

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.rho,
        |drv, st, it| {
            let (beta, denom) = if it == 0 {
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
            // Epoch 1: p ← r + β·p ; s ← w + β·s ; x ← x + λ·p ;
            // r ← r − λ·s carrying ρ = (r, r). Logically two xpay, one
            // axpy, and one fused axpy+norm — same tallies as unfused.
            st.rho = eng.epoch_cg_update(
                tm, beta, lambda, &mut st.r, &mut st.p, &st.w, &mut st.s, &mut st.x,
            );
            drv.counts.vector_ops += 4;
            drv.counts.dots += 1;
            drv.counts.fused_ops += 1;
            // Epoch 2: w ← A·r carrying μ = (r, w) — the barrier above
            // finalizes r before any shard's matvec reads it.
            st.mu = eng.epoch_matvec_store_dot(tm, &st.r, &mut st.w);
            drv.counts.matvecs += 1;
            drv.counts.dots += 1;
            st.lambda_prev = lambda;
            drv.record(st.rho);
            Step::after(it, st.rho, drv.thresh_sq)
        },
    );
    drv.finish(st.x, termination, iterations)
}

/// Ghysels-Vanroose pipelined CG as a two-epoch sweep per iteration.
///
/// Epoch schedule: (1) `q ← A·w` (16n bytes); (2) the six-way update
/// `p ← r + βp`, `s ← w + βs`, `z ← q + βz`, `x ← x + λp`,
/// `r ← r − λs` carrying `γ`, `w ← w − λz` carrying next-δ (104n) —
/// 120n logical bytes/iteration against the per-kernel path's 168n.
///
/// The w-update half of epoch 2 runs even on a converging final
/// iteration, where the unfused loop breaks before it; `w` and the
/// carried δ are dead on every exit path, so no observable bit changes
/// (the unfused code relies on the mirror-image of this argument to skip
/// the update on exit). Its tallies are added only when the unfused
/// path would have executed it.
pub(crate) fn solve_pipelined(
    _: &PipelinedCg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let md = opts.dot_mode;
    let (mut drv, x, r) = Driver::start(a, b, x0, opts);
    let team = opts.team();
    let tm = team.as_deref();
    let mut eng = engine(a, opts, tm);

    let w = opts.matvec_alloc(a, &r, &mut drv.counts);
    let mut q = vec![0.0; n];
    let gamma = dot(md, &r, &r);
    drv.counts.dots += 1;
    drv.record(gamma);
    // Eligibility pins KernelPolicy::Fused, so as in the unfused loop the
    // w-update sweep of iteration `it` carries δ for iteration `it + 1`
    // (bit-identical association) and only startup pays a standalone dot.
    let mut st = pipelined::State {
        x,
        r,
        p: vec![0.0; n],
        s: vec![0.0; n],
        z: vec![0.0; n],
        w,
        gamma,
        gamma_old: 1.0,
        lambda_old: 1.0,
        delta_carried: 0.0,
    };

    let (termination, iterations) = drv.iterate(
        &mut st,
        |st| st.gamma,
        |drv, st, it| {
            let delta = if it > 0 {
                st.delta_carried
            } else {
                drv.counts.dots += 1;
                opts.dot(&st.w, &st.r)
            };
            // Epoch 1: q ← A·w (on the paper's machine this overlaps the
            // reductions; numerically it is just computed here).
            eng.epoch_matvec_store(tm, &st.w, &mut q);
            drv.counts.matvecs += 1;

            let (beta, denom) = if it == 0 {
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
            // Epoch 2: all six recurrence updates, carrying γ = (r, r) and
            // next iteration's δ = (w, r).
            let (g, d) = eng.epoch_pipelined_update(
                tm, beta, lambda, &q, &mut st.r, &mut st.p, &mut st.w, &mut st.s, &mut st.z,
                &mut st.x,
            );
            st.gamma = g;
            // three xpay + one axpy + the fused r-update norm
            drv.counts.vector_ops += 5;
            drv.counts.dots += 1;
            drv.counts.fused_ops += 1;
            drv.record(st.gamma);
            let verdict = Step::after(it, st.gamma, drv.thresh_sq);
            if verdict.is_next() {
                // the w update executed in epoch 2; tally it where the
                // unfused loop runs its axpy_dot
                st.delta_carried = d;
                drv.counts.vector_ops += 1;
                drv.counts.dots += 1;
                drv.counts.fused_ops += 1;
            }
            verdict
        },
    );
    drv.finish(st.x, termination, iterations)
}

/// Overlap-k1 CG as a four-epoch sweep per iteration.
///
/// Epoch schedule: (1) the four overlappable inner products
/// `(r,w) (r,v) (w,w) (w,v)` on pre-update vectors, fused with
/// `x ← x + λp` and `r ← r − λw` (56n bytes); (2) `p ← r + αp` (24n);
/// (3) `w ← A·p` (16n); (4) `v ← A·w` (16n) — 112n logical
/// bytes/iteration against the per-kernel path's 176n.
///
/// Epoch 1 applies the r update before the convergence/finiteness checks
/// where the unfused loop defers it; on every early-exit path `r` is
/// either dead (converged / breakdown return only `x`), overwritten (warm
/// restart copies the true residual), or consistent (the validation branch
/// reads only `x` and `b`), so no observable bit changes. Its tally is
/// added only when the unfused path would have executed the axpy.
pub(crate) fn solve_overlap_k1(
    cg: &OverlapK1Cg,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let n = a.dim();
    let md = opts.dot_mode;
    let (mut drv, mut x, mut r) = Driver::start(a, b, x0, opts);
    let thresh_sq = drv.thresh_sq;
    let team = opts.team();
    let tm = team.as_deref();
    let mut eng = engine(a, opts, tm);

    // State: p, w = A·p, v = A·w; scalars rr = (r,r), rar = (r,Ar),
    // pap = (p,Ap).
    let mut p = r.clone();
    drv.counts.vector_ops += 1;
    let mut w = opts.matvec_alloc(a, &p, &mut drv.counts);
    let mut v = opts.matvec_alloc(a, &w, &mut drv.counts);

    let mut rr = dot(md, &r, &r);
    // p = r at start ⇒ (r, Ar) = (r, w).
    let mut rar = dot(md, &r, &w);
    drv.counts.dots += 2;
    let mut pap = rar;

    drv.record(rr);

    let mut last_restart_rr = f64::INFINITY;
    // Scratch for true-residual validation and resync matvecs — reused
    // across restarts so the hot path stays allocation-free.
    let mut vscratch = vec![0.0; n];

    let mut termination = Termination::MaxIterations;
    let mut iterations = 0;
    if rr <= thresh_sq {
        termination = Termination::Converged;
    } else {
        let mut it = 0;
        while it < opts.max_iters {
            if guard::check_pivot(pap).is_err() || guard::check_pivot(rr).is_err() {
                // validate against the true residual
                let rr_true = opts.span(vr_obs::SpanKind::Guard, || {
                    a.apply(&x, &mut vscratch);
                    for (vi, bi) in vscratch.iter_mut().zip(b) {
                        *vi = bi - *vi;
                    }
                    dot(md, &vscratch, &vscratch)
                });
                drv.counts.matvecs += 1;
                drv.counts.vector_ops += 1;
                drv.counts.dots += 1;
                if rr_true <= thresh_sq {
                    termination = Termination::Converged;
                    iterations = it;
                    drv.replace_last(norm(rr_true));
                    break;
                }
                if rr_true >= 0.25 * last_restart_rr {
                    termination = Termination::Breakdown;
                    iterations = it;
                    break;
                }
                // warm restart
                last_restart_rr = rr_true;
                drv.counts.restarts += 1;
                opts.span(vr_obs::SpanKind::Recovery, || {
                    r.copy_from_slice(&vscratch);
                    p.copy_from_slice(&r);
                });
                eng.epoch_matvec_store(tm, &p, &mut w);
                eng.epoch_matvec_store(tm, &w, &mut v);
                drv.counts.matvecs += 2;
                drv.counts.vector_ops += 1;
                rr = rr_true;
                rar = dot(md, &r, &w);
                drv.counts.dots += 1;
                pap = rar;
                continue;
            }
            it += 1;
            if drv.poll(it - 1, rr) {
                termination = Termination::Cancelled;
                iterations = it - 1;
                break;
            }
            let lambda = rr / pap;
            // Epoch 1: the four overlappable inner products — folded on the
            // pre-update r and w within each chunk, exactly the leaf
            // partials the unfused dot2_deferred launches before the
            // updates — fused with x ← x + λ·p and r ← r − λ·w.
            let (rw, rv, ww, wv) = eng.epoch_overlap_update(tm, lambda, &w, &v, &p, &mut r, &mut x);
            drv.counts.dots += 4;
            drv.counts.fused_ops += 2; // the two shared-sweep dot2 launches
            drv.counts.vector_ops += 1; // the x axpy; the r axpy tallies below

            // scalar recurrences (claim C3, k = 1)
            let rr_next = rr - 2.0 * lambda * rw + lambda * lambda * ww;
            let rar_next = rar - 2.0 * lambda * rv + lambda * lambda * wv;
            let alpha = rr_next / rr;
            let rnext_w = rw - lambda * ww;
            let pap_next = rar_next + 2.0 * alpha * rnext_w + alpha * alpha * pap;
            drv.counts.scalar_ops += 12;

            drv.record(rr_next);
            iterations = it;
            if rr_next <= thresh_sq {
                termination = Termination::Converged;
                break;
            }
            if guard::check_finite(rr_next).is_err() {
                // route through the validation branch at the loop top
                rr = rr_next;
                continue;
            }

            // the r update executed in epoch 1; epochs 2-4 rebuild the
            // direction and its operator images
            drv.counts.vector_ops += 1;
            eng.epoch_xpay(tm, &r, alpha, &mut p);
            drv.counts.vector_ops += 1;
            eng.epoch_matvec_store(tm, &p, &mut w);
            eng.epoch_matvec_store(tm, &w, &mut v);
            drv.counts.matvecs += 2;

            rr = rr_next;
            rar = rar_next;
            pap = pap_next;

            if cg.resync > 0 && it.is_multiple_of(cg.resync) {
                // residual replacement: recompute the carried scalars
                // directly (one extra matvec for A·r)
                rr = dot(md, &r, &r);
                a.apply(&r, &mut vscratch);
                rar = dot(md, &r, &vscratch);
                pap = dot(md, &p, &w);
                drv.counts.matvecs += 1;
                drv.counts.dots += 3;
            }
        }
    }

    drv.finish(x, termination, iterations)
}
