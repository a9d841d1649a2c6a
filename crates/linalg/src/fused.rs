//! Single-pass fused solver kernels: vector update + inner product in one
//! sweep over memory.
//!
//! CG iterations are memory-bandwidth bound: the classic formulation streams
//! each vector through memory once per operation, so an iteration touches
//! `x, r, p, w` four to six times. The kernels here merge the update and the
//! reduction that immediately consumes its output into a *single* pass —
//! e.g. [`update_xr`] applies `x ← x + λp`, `r ← r − λw` and returns `(r,r)`
//! without re-reading `r`.
//!
//! **Bit-compatibility contract.** Every fused kernel produces *exactly* the
//! bits of its two-pass composition:
//!
//! * serial/Kahan/tree modes associate the summation identically to
//!   [`kernels::dot`] with the same [`DotMode`] — the fused elementwise
//!   update `r[i] += (-λ)·w[i]` is the same IEEE operation sequence as
//!   [`kernels::axpy`]`(-λ, w, r)`;
//! * the team-backed `par_*_in` kernels reproduce the fixed 256-leaf chunk
//!   tree of [`vr_par::reduce`] with its canonical lane-blocked leaves
//!   ([`vr_par::simd`]), so they are bit-identical for any team width, any
//!   SIMD backend, and to the composition `axpy` +
//!   [`vr_par::reduce::par_dot_in`];
//! * the `par_*_with_in` forms pass every leaf partial through the injector
//!   at [`FaultSite::DotPartial`] and the combined value through
//!   [`FaultSite::DotFinal`], in the same order as
//!   [`vr_par::reduce::par_dot_with_in`], so seeded fault patterns are
//!   reproducible bit-for-bit at fused reduction sites too.
//!
//! The solver layer (`SolveOptions` in `vr-cg`) dispatches to the serial
//! kernels for the order-preserving modes and to the team kernels for
//! `DotMode::Tree` and injected runs; this module holds exactly those
//! forms.
//!
//! **Aliasing.** The in-place buffers (`x`/`r` in [`update_xr`], `y` in
//! [`axpy_dot`]) are read-modify-written elementwise, which is always safe;
//! *distinct* buffers must not overlap and this is `debug_assert!`ed via
//! [`kernels::overlaps`], like the unfused kernels.

use crate::kernels::{self, DotMode};
use vr_par::fault::{FaultInjector, FaultSite, NoFaults};
use vr_par::reduce::{tree_combine, CHUNKS};
use vr_par::team::{run_leaves_team, Poisoned, Team};

// ---------------------------------------------------------------------------
// Mode-dispatched fused summation drivers
// ---------------------------------------------------------------------------

/// Sum `f(0) + f(1) + … + f(n−1)` in the association order of `mode`.
///
/// `f(i)` may perform elementwise side effects (the fused update) and
/// returns the `i`-th product term. Indices are always visited in strictly
/// increasing order, in every mode, so side effects are well defined.
///
/// This is the single place the fused kernels' summation order lives:
/// `Serial` is left-to-right, `Kahan` is compensated left-to-right, and
/// `Tree` reproduces the binary fan-in of [`kernels::dot_tree`] exactly.
pub fn fused_sum(mode: DotMode, n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    match mode {
        DotMode::Serial => {
            let mut acc = 0.0;
            for i in 0..n {
                acc += f(i);
            }
            acc
        }
        DotMode::Kahan => {
            let mut sum = 0.0;
            let mut c = 0.0;
            for i in 0..n {
                let t = f(i) - c;
                let s = sum + t;
                c = (s - sum) - t;
                sum = s;
            }
            sum
        }
        DotMode::Tree => {
            if n == 0 {
                0.0
            } else {
                tree_fused(0, n, &mut f)
            }
        }
    }
}

/// Two sums in one index sweep: `(Σ f(i).0, Σ f(i).1)`, each component
/// associated exactly as [`fused_sum`] would associate it alone.
pub fn fused_sum2(mode: DotMode, n: usize, mut f: impl FnMut(usize) -> (f64, f64)) -> (f64, f64) {
    match mode {
        DotMode::Serial => {
            let (mut a, mut b) = (0.0, 0.0);
            for i in 0..n {
                let (ta, tb) = f(i);
                a += ta;
                b += tb;
            }
            (a, b)
        }
        DotMode::Kahan => {
            let (mut sa, mut ca) = (0.0, 0.0);
            let (mut sb, mut cb) = (0.0, 0.0);
            for i in 0..n {
                let (pa, pb) = f(i);
                let t = pa - ca;
                let s = sa + t;
                ca = (s - sa) - t;
                sa = s;
                let t = pb - cb;
                let s = sb + t;
                cb = (s - sb) - t;
                sb = s;
            }
            (sa, sb)
        }
        DotMode::Tree => {
            if n == 0 {
                (0.0, 0.0)
            } else {
                tree_fused2(0, n, &mut f)
            }
        }
    }
}

/// Binary fan-in over `[lo, hi)` with the same split rule as
/// `kernels::tree_sum_products`: the left half is the largest power of two
/// strictly below the length. Left subtree is evaluated before the right,
/// so `f` sees strictly increasing indices.
fn tree_fused<F: FnMut(usize) -> f64>(lo: usize, hi: usize, f: &mut F) -> f64 {
    match hi - lo {
        1 => f(lo),
        2 => {
            let a = f(lo);
            let b = f(lo + 1);
            a + b
        }
        n => {
            let half = n.next_power_of_two() / 2;
            let half = if half == n { n / 2 } else { half };
            let left = tree_fused(lo, lo + half, f);
            let right = tree_fused(lo + half, hi, f);
            left + right
        }
    }
}

fn tree_fused2<F: FnMut(usize) -> (f64, f64)>(lo: usize, hi: usize, f: &mut F) -> (f64, f64) {
    match hi - lo {
        1 => f(lo),
        2 => {
            let (a0, b0) = f(lo);
            let (a1, b1) = f(lo + 1);
            (a0 + a1, b0 + b1)
        }
        n => {
            let half = n.next_power_of_two() / 2;
            let half = if half == n { n / 2 } else { half };
            let (la, lb) = tree_fused2(lo, lo + half, f);
            let (ra, rb) = tree_fused2(lo + half, hi, f);
            (la + ra, lb + rb)
        }
    }
}

// ---------------------------------------------------------------------------
// Serial fused kernels
// ---------------------------------------------------------------------------

/// Fused CG solution/residual update: `x ← x + λp`, `r ← r − λw`, returning
/// `(r, r)` — three vector passes and a dot collapsed into one sweep.
///
/// Bit-identical to `axpy(λ, p, x); axpy(−λ, w, r); dot(mode, r, r)`.
///
/// Aliasing: `x` and `r` are updated in place (always safe); `p`, `w`, `x`,
/// `r` must otherwise be pairwise disjoint buffers.
#[must_use]
pub fn update_xr(
    mode: DotMode,
    lambda: f64,
    p: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "update_xr: p length mismatch");
    assert_eq!(w.len(), n, "update_xr: w length mismatch");
    assert_eq!(r.len(), n, "update_xr: r length mismatch");
    debug_assert!(!kernels::overlaps(p, x), "update_xr: p aliases x");
    debug_assert!(!kernels::overlaps(p, r), "update_xr: p aliases r");
    debug_assert!(!kernels::overlaps(w, x), "update_xr: w aliases x");
    debug_assert!(!kernels::overlaps(w, r), "update_xr: w aliases r");
    debug_assert!(!kernels::overlaps(x, r), "update_xr: x aliases r");
    fused_sum(mode, n, |i| {
        x[i] += lambda * p[i];
        r[i] += (-lambda) * w[i];
        r[i] * r[i]
    })
}

/// Fused `y ← y + a·x` followed by `(y, z)`, in one sweep.
///
/// Bit-identical to `axpy(a, x, y); dot(mode, y, z)`.
///
/// Aliasing: `y` is updated in place; `x` and `z` must not overlap `y`
/// (`x` and `z` may alias each other — both are only read).
#[must_use]
pub fn axpy_dot(mode: DotMode, a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "axpy_dot: x length mismatch");
    assert_eq!(z.len(), n, "axpy_dot: z length mismatch");
    debug_assert!(!kernels::overlaps(x, y), "axpy_dot: x aliases y");
    debug_assert!(!kernels::overlaps(z, y), "axpy_dot: z aliases y");
    fused_sum(mode, n, |i| {
        y[i] += a * x[i];
        y[i] * z[i]
    })
}

/// Fused `y ← y + a·x` followed by `(y, y)`, in one sweep.
///
/// Bit-identical to `axpy(a, x, y); dot(mode, y, y)`. This is the residual
/// update + norm of most CG variants when `x`/`r` fusion does not apply.
#[must_use]
pub fn axpy_norm2_sq(mode: DotMode, a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "axpy_norm2_sq: x length mismatch");
    debug_assert!(!kernels::overlaps(x, y), "axpy_norm2_sq: x aliases y");
    fused_sum(mode, n, |i| {
        y[i] += a * x[i];
        y[i] * y[i]
    })
}

/// Two inner products sharing the left vector, `((x,y), (x,z))`, in one
/// sweep over `x`.
///
/// Each component is bit-identical to the corresponding
/// [`kernels::dot`]`(mode, …)`.
#[must_use]
pub fn dot2(mode: DotMode, x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    let n = x.len();
    assert_eq!(y.len(), n, "dot2: y length mismatch");
    assert_eq!(z.len(), n, "dot2: z length mismatch");
    fused_sum2(mode, n, |i| (x[i] * y[i], x[i] * z[i]))
}

// ---------------------------------------------------------------------------
// Chunked parallel variants (deterministic 256-leaf tree, fault-injectable)
// ---------------------------------------------------------------------------

// Chunk leaves are distributed over the persistent SPMD team via
// `vr_par::team::run_leaves_team` — the partial *values* depend only on the
// fixed 256-leaf chunk layout, never on the team width, so results stay
// bit-identical for any width (and for the serial `team = None` path). A
// poisoned team (a worker panicked) makes the `par_*_in` kernels NaN-fill
// their outputs and return NaN, which solver guards turn into an honest
// breakdown termination.

/// Corrupt the leaf partials and combined value exactly as
/// [`vr_par::reduce::par_dot_with_in`] does, then tree-combine.
fn inject_and_combine(partials: &mut [f64], inj: &dyn FaultInjector) -> f64 {
    for p in partials.iter_mut() {
        *p = inj.corrupt(FaultSite::DotPartial, *p);
    }
    // Every fused kernel's fan-in funnels through here: the producing sweep
    // was vector work, only this combine is dependency-gated.
    vr_obs::tls::with_span(vr_obs::SpanKind::DotFanIn, || {
        inj.corrupt(FaultSite::DotFinal, tree_combine(partials))
    })
}

/// Team-backed [`update_xr`] with fault injection on the reduction, on an
/// explicit [`Team`] (or serially for `None`).
///
/// Bit-identical to `axpy(λ, p, x); axpy(−λ, w, r);`
/// [`vr_par::reduce::par_dot_with_in`]`(team, r, r, inj)` — for any team
/// width, because the 256-leaf chunk tree is fixed.
#[must_use]
pub fn par_update_xr_with_in(
    team: Option<&Team>,
    lambda: f64,
    p: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    inj: &dyn FaultInjector,
) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "par_update_xr_with_in: p length mismatch");
    assert_eq!(w.len(), n, "par_update_xr_with_in: w length mismatch");
    assert_eq!(r.len(), n, "par_update_xr_with_in: r length mismatch");
    debug_assert!(
        !kernels::overlaps(p, x),
        "par_update_xr_with_in: p aliases x"
    );
    debug_assert!(
        !kernels::overlaps(w, r),
        "par_update_xr_with_in: w aliases r"
    );
    debug_assert!(
        !kernels::overlaps(x, r),
        "par_update_xr_with_in: x aliases r"
    );
    if n == 0 {
        return inj.corrupt(FaultSite::DotFinal, 0.0);
    }
    let chunk = n.div_ceil(CHUNKS);
    let mut work: Vec<_> = p
        .chunks(chunk)
        .zip(w.chunks(chunk))
        .zip(x.chunks_mut(chunk))
        .zip(r.chunks_mut(chunk))
        .map(|(((pc, wc), xc), rc)| (pc, wc, xc, rc))
        .collect();
    let partials = run_leaves_team(team, &mut work, n, &|(pc, wc, xc, rc): &mut (
        &[f64],
        &[f64],
        &mut [f64],
        &mut [f64],
    )| {
        vr_par::simd::leaf_update_xr(lambda, pc, wc, xc, rc)
    });
    drop(work);
    match partials {
        Ok(mut partials) => inject_and_combine(&mut partials, inj),
        Err(Poisoned) => {
            x.fill(f64::NAN);
            r.fill(f64::NAN);
            f64::NAN
        }
    }
}

/// Team-backed [`update_xr`] (fault-free).
#[must_use]
pub fn par_update_xr_in(
    team: Option<&Team>,
    lambda: f64,
    p: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> f64 {
    par_update_xr_with_in(team, lambda, p, w, x, r, &NoFaults)
}

/// Team-backed [`axpy_dot`] with fault injection on the reduction, on an
/// explicit [`Team`] (or serially for `None`).
#[must_use]
pub fn par_axpy_dot_with_in(
    team: Option<&Team>,
    a: f64,
    x: &[f64],
    y: &mut [f64],
    z: &[f64],
    inj: &dyn FaultInjector,
) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "par_axpy_dot_with_in: x length mismatch");
    assert_eq!(z.len(), n, "par_axpy_dot_with_in: z length mismatch");
    debug_assert!(
        !kernels::overlaps(x, y),
        "par_axpy_dot_with_in: x aliases y"
    );
    debug_assert!(
        !kernels::overlaps(z, y),
        "par_axpy_dot_with_in: z aliases y"
    );
    if n == 0 {
        return inj.corrupt(FaultSite::DotFinal, 0.0);
    }
    let chunk = n.div_ceil(CHUNKS);
    let mut work: Vec<_> = x
        .chunks(chunk)
        .zip(z.chunks(chunk))
        .zip(y.chunks_mut(chunk))
        .map(|((xc, zc), yc)| (xc, zc, yc))
        .collect();
    let partials = run_leaves_team(team, &mut work, n, &|(xc, zc, yc): &mut (
        &[f64],
        &[f64],
        &mut [f64],
    )| {
        vr_par::simd::leaf_axpy_dot(a, xc, yc, zc)
    });
    drop(work);
    match partials {
        Ok(mut partials) => inject_and_combine(&mut partials, inj),
        Err(Poisoned) => {
            y.fill(f64::NAN);
            f64::NAN
        }
    }
}

/// Team-backed [`axpy_dot`] (fault-free).
#[must_use]
pub fn par_axpy_dot_in(team: Option<&Team>, a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    par_axpy_dot_with_in(team, a, x, y, z, &NoFaults)
}

/// Team-backed [`axpy_norm2_sq`] with fault injection on the reduction,
/// on an explicit [`Team`] (or serially for `None`).
#[must_use]
pub fn par_axpy_norm2_sq_with_in(
    team: Option<&Team>,
    a: f64,
    x: &[f64],
    y: &mut [f64],
    inj: &dyn FaultInjector,
) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "par_axpy_norm2_sq_with_in: x length mismatch");
    debug_assert!(
        !kernels::overlaps(x, y),
        "par_axpy_norm2_sq_with_in: x aliases y"
    );
    if n == 0 {
        return inj.corrupt(FaultSite::DotFinal, 0.0);
    }
    let chunk = n.div_ceil(CHUNKS);
    let mut work: Vec<_> = x.chunks(chunk).zip(y.chunks_mut(chunk)).collect();
    let partials = run_leaves_team(team, &mut work, n, &|(xc, yc): &mut (
        &[f64],
        &mut [f64],
    )| {
        vr_par::simd::leaf_axpy_norm2_sq(a, xc, yc)
    });
    drop(work);
    match partials {
        Ok(mut partials) => inject_and_combine(&mut partials, inj),
        Err(Poisoned) => {
            y.fill(f64::NAN);
            f64::NAN
        }
    }
}

/// Team-backed [`axpy_norm2_sq`] (fault-free).
#[must_use]
pub fn par_axpy_norm2_sq_in(team: Option<&Team>, a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    par_axpy_norm2_sq_with_in(team, a, x, y, &NoFaults)
}

/// Team-backed [`dot2`] with fault injection on both reductions, on an
/// explicit [`Team`] (or serially for `None`).
///
/// The corruption sequence is exactly two consecutive
/// [`vr_par::reduce::par_dot_with_in`] calls: all `(x,y)` partials, the
/// `(x,y)` final, then all `(x,z)` partials, the `(x,z)` final — so a
/// seeded injector sees the same event stream as the unfused two-call
/// reference.
#[must_use]
pub fn par_dot2_with_in(
    team: Option<&Team>,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    inj: &dyn FaultInjector,
) -> (f64, f64) {
    if x.is_empty() {
        assert_eq!(y.len(), 0, "par_dot2_with_in: y length mismatch");
        assert_eq!(z.len(), 0, "par_dot2_with_in: z length mismatch");
        return (
            inj.corrupt(FaultSite::DotFinal, 0.0),
            inj.corrupt(FaultSite::DotFinal, 0.0),
        );
    }
    let Ok((mut py, mut pz)) = par_dot2_partials_in(team, x, y, z) else {
        return (f64::NAN, f64::NAN);
    };
    let dy = inject_and_combine(&mut py, inj);
    let dz = inject_and_combine(&mut pz, inj);
    (dy, dz)
}

/// Split-phase first half of [`par_dot2_with_in`]: one shared sweep over
/// `x` computes the fixed-layout leaf partials of both `x·y` and `x·z` on
/// the team, leaving the [`tree_combine`] fan-ins to the caller — who may
/// overlap them with the next epoch's vector work (the paper's C2/C3
/// move). `tree_combine` of each partial vector reproduces the eager
/// [`par_dot2_in`] values bit-for-bit, and the partials themselves are
/// bit-identical to two separate [`vr_par::reduce::par_dot_partials_in`]
/// sweeps (each chunk accumulator is an independent lane-blocked leaf sum).
///
/// # Errors
/// Returns [`Poisoned`] if the team is poisoned.
///
/// # Panics
/// Panics on length mismatch.
pub fn par_dot2_partials_in(
    team: Option<&Team>,
    x: &[f64],
    y: &[f64],
    z: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), Poisoned> {
    let n = x.len();
    assert_eq!(y.len(), n, "par_dot2_partials_in: y length mismatch");
    assert_eq!(z.len(), n, "par_dot2_partials_in: z length mismatch");
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let chunk = n.div_ceil(CHUNKS);
    let mut work: Vec<_> = x
        .chunks(chunk)
        .zip(y.chunks(chunk))
        .zip(z.chunks(chunk))
        .map(|((xc, yc), zc)| (xc, yc, zc))
        .collect();
    let pairs = run_leaves_team(team, &mut work, n, &|(xc, yc, zc): &mut (
        &[f64],
        &[f64],
        &[f64],
    )| {
        vr_par::simd::leaf_dot2(xc, yc, zc)
    })?;
    let py: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let pz: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    Ok((py, pz))
}

/// Team-backed [`dot2`] (fault-free).
#[must_use]
pub fn par_dot2_in(team: Option<&Team>, x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    par_dot2_with_in(team, x, y, z, &NoFaults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{axpy, dot};
    use vr_par::reduce::{par_dot_in, par_dot_with_in};

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 4096) as f64) / 1024.0 - 2.0
            })
            .collect()
    }

    const MODES: [DotMode; 3] = [DotMode::Serial, DotMode::Tree, DotMode::Kahan];

    #[test]
    fn fused_sum_matches_dot_in_every_mode() {
        for n in [0usize, 1, 2, 3, 5, 8, 100, 1023] {
            let x = pseudo(n, 7);
            let y = pseudo(n, 11);
            for mode in MODES {
                let fused = fused_sum(mode, n, |i| x[i] * y[i]);
                assert_eq!(
                    fused.to_bits(),
                    dot(mode, &x, &y).to_bits(),
                    "n={n} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn fused_sum_visits_indices_in_order() {
        for mode in MODES {
            let mut seen = Vec::new();
            let _ = fused_sum(mode, 37, |i| {
                seen.push(i);
                0.0
            });
            assert_eq!(seen, (0..37).collect::<Vec<_>>(), "{mode:?}");
        }
    }

    #[test]
    fn update_xr_matches_two_pass_bitwise() {
        for (n, lambda) in [(257usize, 0.37), (1000, -1.25e-3), (3, 1.0e8)] {
            for mode in MODES {
                let p = pseudo(n, 3);
                let w = pseudo(n, 5);
                let (mut x1, mut r1) = (pseudo(n, 9), pseudo(n, 13));
                let (mut x2, mut r2) = (x1.clone(), r1.clone());

                let fused = update_xr(mode, lambda, &p, &w, &mut x1, &mut r1);
                axpy(lambda, &p, &mut x2);
                axpy(-lambda, &w, &mut r2);
                let reference = dot(mode, &r2, &r2);

                assert_eq!(x1, x2, "x n={n} {mode:?}");
                assert_eq!(r1, r2, "r n={n} {mode:?}");
                assert_eq!(fused.to_bits(), reference.to_bits(), "rr n={n} {mode:?}");
                // the returned scalar is the dot of the output buffer
                assert_eq!(fused.to_bits(), dot(mode, &r1, &r1).to_bits());
            }
        }
    }

    #[test]
    fn axpy_dot_and_norm_match_two_pass_bitwise() {
        for mode in MODES {
            let n = 513;
            let x = pseudo(n, 21);
            let z = pseudo(n, 23);
            let mut y1 = pseudo(n, 25);
            let mut y2 = y1.clone();

            let fused = axpy_dot(mode, 0.77, &x, &mut y1, &z);
            axpy(0.77, &x, &mut y2);
            assert_eq!(y1, y2);
            assert_eq!(fused.to_bits(), dot(mode, &y2, &z).to_bits(), "{mode:?}");

            let mut y1 = pseudo(n, 27);
            let mut y2 = y1.clone();
            let fused = axpy_norm2_sq(mode, -0.3, &x, &mut y1);
            axpy(-0.3, &x, &mut y2);
            assert_eq!(y1, y2);
            assert_eq!(fused.to_bits(), dot(mode, &y2, &y2).to_bits(), "{mode:?}");
        }
    }

    #[test]
    fn dot2_matches_two_dots_bitwise() {
        for n in [0usize, 1, 7, 256, 999] {
            let x = pseudo(n, 41);
            let y = pseudo(n, 43);
            let z = pseudo(n, 47);
            for mode in MODES {
                let (dy, dz) = dot2(mode, &x, &y, &z);
                assert_eq!(dy.to_bits(), dot(mode, &x, &y).to_bits(), "n={n} {mode:?}");
                assert_eq!(dz.to_bits(), dot(mode, &x, &z).to_bits(), "n={n} {mode:?}");
            }
        }
    }

    #[test]
    fn adversarial_magnitudes_still_bit_match() {
        // huge, tiny, and mixed-sign terms: fused == two-pass remains exact
        // because the operation sequences are identical, not approximately so
        let x = vec![1.0e300, -1.0e300, 1.0e-300, -3.0, 7.5e222, 1.0];
        let w = vec![1.0e-300, 2.0e155, -1.0e300, 0.5, -1.0, 4.0e-100];
        for mode in MODES {
            for lambda in [1.0e150, -1.0e-150, 3.0] {
                let (mut x1, mut r1) = (x.clone(), w.clone());
                let (mut x2, mut r2) = (x.clone(), w.clone());
                let fused = update_xr(mode, lambda, &w, &x, &mut x1, &mut r1);
                axpy(lambda, &w, &mut x2);
                axpy(-lambda, &x, &mut r2);
                let reference = dot(mode, &r2, &r2);
                assert_eq!(fused.to_bits(), reference.to_bits(), "{mode:?} λ={lambda}");
                assert_eq!(r1, r2);
            }
        }
    }

    #[test]
    fn par_variants_match_par_dot_composition_for_any_thread_count() {
        let n = 10_000;
        let p = pseudo(n, 51);
        let w = pseudo(n, 53);
        for threads in [1usize, 2, 4, 7] {
            let team = (threads > 1).then(|| Team::new(threads));
            let t = team.as_ref();
            let (mut x1, mut r1) = (pseudo(n, 55), pseudo(n, 57));
            let (mut x2, mut r2) = (x1.clone(), r1.clone());
            let fused = par_update_xr_in(t, 0.625, &p, &w, &mut x1, &mut r1);
            axpy(0.625, &p, &mut x2);
            axpy(-0.625, &w, &mut r2);
            assert_eq!(x1, x2, "threads={threads}");
            assert_eq!(r1, r2, "threads={threads}");
            assert_eq!(
                fused.to_bits(),
                par_dot_in(t, &r2, &r2).to_bits(),
                "threads={threads}"
            );

            let mut y1 = pseudo(n, 59);
            let mut y2 = y1.clone();
            let z = pseudo(n, 61);
            let fd = par_axpy_dot_in(t, -1.5, &p, &mut y1, &z);
            axpy(-1.5, &p, &mut y2);
            assert_eq!(fd.to_bits(), par_dot_in(t, &y2, &z).to_bits());

            let mut y1 = pseudo(n, 63);
            let mut y2 = y1.clone();
            let fnorm = par_axpy_norm2_sq_in(t, 0.9, &p, &mut y1);
            axpy(0.9, &p, &mut y2);
            assert_eq!(fnorm.to_bits(), par_dot_in(t, &y2, &y2).to_bits());

            let (dy, dz) = par_dot2_in(t, &p, &w, &z);
            assert_eq!(dy.to_bits(), par_dot_in(t, &p, &w).to_bits());
            assert_eq!(dz.to_bits(), par_dot_in(t, &p, &z).to_bits());
        }
    }

    /// Counter-driven injector: perturbs every call whose splitmix64 hash
    /// falls below a threshold — a stand-in for the seeded injectors in
    /// vr-cg, which live upstream of this crate.
    #[derive(Debug)]
    struct CountingInjector {
        seed: u64,
        calls: std::sync::atomic::AtomicU64,
    }
    impl CountingInjector {
        fn new(seed: u64) -> Self {
            Self {
                seed,
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }
    impl FaultInjector for CountingInjector {
        fn corrupt(&self, _site: FaultSite, value: f64) -> f64 {
            use std::sync::atomic::Ordering;
            let k = self.calls.fetch_add(1, Ordering::Relaxed);
            if vr_par::fault::splitmix64(self.seed ^ k).is_multiple_of(17) {
                value * 1.5 + 1.0
            } else {
                value
            }
        }
    }

    #[test]
    fn par_dot2_with_replays_two_sequential_injected_dots() {
        let n = 8192;
        let x = pseudo(n, 71);
        let y = pseudo(n, 73);
        let z = pseudo(n, 77);
        let a = CountingInjector::new(99);
        let (dy, dz) = par_dot2_with_in(Some(&Team::new(3)), &x, &y, &z, &a);
        // fresh injector, same seed: two sequential par_dot_with_in calls
        // must consume the identical corruption stream
        let b = CountingInjector::new(99);
        let ry = par_dot_with_in(None, &x, &y, &b);
        let rz = par_dot_with_in(None, &x, &z, &b);
        assert_eq!(dy.to_bits(), ry.to_bits());
        assert_eq!(dz.to_bits(), rz.to_bits());
    }

    #[test]
    fn par_update_xr_with_replays_injected_par_dot() {
        let n = 5000;
        let p = pseudo(n, 81);
        let w = pseudo(n, 83);
        let (mut x1, mut r1) = (pseudo(n, 85), pseudo(n, 87));
        let (mut x2, mut r2) = (x1.clone(), r1.clone());
        let a = CountingInjector::new(7);
        let team = Team::new(4);
        let fused = par_update_xr_with_in(Some(&team), 0.4, &p, &w, &mut x1, &mut r1, &a);
        axpy(0.4, &p, &mut x2);
        axpy(-0.4, &w, &mut r2);
        let b = CountingInjector::new(7);
        let reference = par_dot_with_in(None, &r2, &r2, &b);
        assert_eq!(fused.to_bits(), reference.to_bits());
        // the corruption only touches the reduction, never the vectors
        assert_eq!(r1, r2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn empty_inputs_are_the_empty_sum() {
        let team = Team::new(4);
        let t = Some(&team);
        assert_eq!(par_update_xr_in(t, 2.0, &[], &[], &mut [], &mut []), 0.0);
        assert_eq!(par_axpy_dot_in(t, 2.0, &[], &mut [], &[]), 0.0);
        assert_eq!(par_axpy_norm2_sq_in(t, 2.0, &[], &mut []), 0.0);
        assert_eq!(par_dot2_in(t, &[], &[], &[]), (0.0, 0.0));
        for mode in MODES {
            assert_eq!(update_xr(mode, 2.0, &[], &[], &mut [], &mut []), 0.0);
            assert_eq!(dot2(mode, &[], &[], &[]), (0.0, 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = update_xr(
            DotMode::Serial,
            1.0,
            &[1.0],
            &[1.0],
            &mut [1.0, 2.0],
            &mut [1.0],
        );
    }
}
