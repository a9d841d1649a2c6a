//! Differential suite: the SIMD backend must be unobservable.
//!
//! The lane-blocked reduction layout (8 accumulators, element `i` feeding
//! accumulator `i mod 8`, one fixed `combine8` tree) is the contract that
//! makes the lane width a pure performance choice: the scalar and AVX2
//! backends produce the same bits for every leaf kernel, every input
//! length, and every whole solve. This suite pins that contract from the outside —
//! through the facade, at every `DotMode`, on adversarial values
//! (subnormals, signed zeros, NaN payloads), and across the full variant
//! registry — so a vectorization "optimization" that reassociates a sum
//! shows up as a red diff here, not as a mystery divergence in a trace.

use cg_lookahead::cg::registry::keyed_variants;
use cg_lookahead::cg::{SolveOptions, SolveResult};
use cg_lookahead::linalg::gen;
use cg_lookahead::linalg::kernels::{self, DotMode};
use cg_lookahead::par::simd::{self, SimdLevel};

/// Deterministic xorshift values in roughly [-1, 1] with varied exponents.
fn data(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let m = (s >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            let scale = 10f64.powi((s % 7) as i32 - 3);
            (m - 0.5) * scale
        })
        .collect()
}

fn data_f32(len: usize, seed: u64) -> Vec<f32> {
    data(len, seed).into_iter().map(|x| x as f32).collect()
}

/// The distinct levels available on this host, scalar first. On machines
/// without AVX2 (or with the `simd` feature off) the list degenerates to
/// `[Scalar]` and the suite still passes — vacuously for the cross-level
/// comparisons, which is exactly the scalar-fallback guarantee.
fn levels() -> Vec<SimdLevel> {
    let mut out = vec![SimdLevel::Scalar];
    if simd::available(SimdLevel::Avx2) {
        out.push(SimdLevel::Avx2);
    }
    out
}

/// Bit `bit` of `mask` decides whether a stencil row gets neighbour `v`.
fn neighbour(mask: u32, bit: u32, v: &[f64]) -> Option<&[f64]> {
    (mask >> bit & 1 == 1).then_some(v)
}

/// Lengths straddling the 8-lane blocks and the 256-element tree leaves:
/// empty, sub-block, odd, around one block, around a leaf, and large+odd.
const LENGTHS: &[usize] = &[0, 1, 2, 3, 7, 8, 9, 17, 255, 256, 257, 1000, 4096, 4097];

#[test]
fn f64_leaf_kernels_bit_identical_across_levels() {
    for &n in LENGTHS {
        let x = data(n, 1);
        let y = data(n, 2);
        let z = data(n, 3);
        let run = |lvl: SimdLevel| {
            simd::with_level(lvl, || {
                let mut acc: Vec<u64> = Vec::new();
                acc.push(simd::leaf_dot(&x, &y).to_bits());
                let (d0, d1) = simd::leaf_dot2(&x, &y, &z);
                acc.push(d0.to_bits());
                acc.push(d1.to_bits());

                let (mut xv, mut rv) = (x.clone(), y.clone());
                acc.push(simd::leaf_update_xr(0.37, &y, &z, &mut xv, &mut rv).to_bits());
                acc.extend(xv.iter().chain(&rv).map(|v| v.to_bits()));

                let mut yv = y.clone();
                acc.push(simd::leaf_axpy_dot(-1.25, &x, &mut yv, &z).to_bits());
                acc.extend(yv.iter().map(|v| v.to_bits()));

                let mut yv = y.clone();
                acc.push(simd::leaf_axpy_norm2_sq(0.5, &x, &mut yv).to_bits());
                acc.extend(yv.iter().map(|v| v.to_bits()));

                let mut wv = vec![0.0; n];
                for nt in [false, true] {
                    simd::leaf_waxpby(1.5, &x, -0.5, &y, &mut wv, nt);
                    acc.extend(wv.iter().map(|v| v.to_bits()));
                }

                let mut yv = y.clone();
                simd::leaf_axpy(0.75, &x, &mut yv);
                acc.extend(yv.iter().map(|v| v.to_bits()));
                simd::leaf_xpay(&z, -1.5, &mut yv);
                acc.extend(yv.iter().map(|v| v.to_bits()));

                // the matrix-powers rows: x as the operator image, y the
                // current level, z the previous one
                let mut out = vec![0.0; n];
                simd::leaf_newton_row(1.7, 0.5, &x, &y, &mut out);
                acc.extend(out.iter().map(|v| v.to_bits()));
                simd::leaf_cheb0_row(4.1, 3.9, &x, &y, &mut out);
                acc.extend(out.iter().map(|v| v.to_bits()));
                simd::leaf_chebl_row(4.1, 3.9, &x, &y, &z, &mut out);
                acc.extend(out.iter().map(|v| v.to_bits()));

                // the stencil rows under every neighbour pattern
                for mask in 0..16u32 {
                    let on = |bit, v| neighbour(mask, bit, v);
                    if mask < 4 {
                        simd::leaf_stencil2d_row(4.2, 0.3, on(0, &x), on(1, &z), &y, &mut out);
                        acc.extend(out.iter().map(|v| v.to_bits()));
                    }
                    let (il, ih, jl, jh) = (on(0, &x), on(1, &z), on(2, &yv), on(3, &wv));
                    simd::leaf_stencil3d_row(il, ih, jl, jh, &y, &mut out);
                    acc.extend(out.iter().map(|v| v.to_bits()));
                }
                acc
            })
        };
        let lvls = levels();
        let base = run(lvls[0]);
        for &lvl in &lvls[1..] {
            assert_eq!(
                base,
                run(lvl),
                "n = {n}: {} diverged from scalar",
                lvl.name()
            );
        }
    }
}

#[test]
fn f32_widening_leaves_bit_identical_across_levels() {
    for &n in LENGTHS {
        let x = data_f32(n, 4);
        let y = data_f32(n, 5);
        let z = data_f32(n, 6);
        let run = |lvl: SimdLevel| {
            simd::with_level(lvl, || {
                let mut acc: Vec<u64> = Vec::new();
                acc.push(simd::leaf_dot_f32(&x, &y).to_bits());
                let (d0, d1) = simd::leaf_dot2_f32(&x, &y, &z);
                acc.push(d0.to_bits());
                acc.push(d1.to_bits());

                let (mut xv, mut rv) = (x.clone(), y.clone());
                acc.push(simd::leaf_update_xr_f32(0.37, &y, &z, &mut xv, &mut rv).to_bits());
                acc.extend(xv.iter().chain(&rv).map(|v| u64::from(v.to_bits())));

                let mut yv = y.clone();
                acc.push(simd::leaf_axpy_norm2_sq_f32(0.5, &x, &mut yv).to_bits());
                acc.extend(yv.iter().map(|v| u64::from(v.to_bits())));

                simd::leaf_axpy_f32(0.75, &x, &mut yv);
                acc.extend(yv.iter().map(|v| u64::from(v.to_bits())));
                simd::leaf_xpay_f32(&z, -1.5, &mut yv);
                acc.extend(yv.iter().map(|v| u64::from(v.to_bits())));
                acc
            })
        };
        let lvls = levels();
        let base = run(lvls[0]);
        for &lvl in &lvls[1..] {
            assert_eq!(
                base,
                run(lvl),
                "n = {n}: f32 {} diverged from scalar",
                lvl.name()
            );
        }
    }
}

/// Per-`DotMode` contract: `Tree` (and `Serial`, which never touches the
/// lane layout) must be exact across levels.
#[test]
fn dot_modes_across_levels_are_exact() {
    for &n in &[3usize, 17, 255, 257, 4097] {
        let x = data(n, 7);
        let y = data(n, 8);
        for mode in [DotMode::Serial, DotMode::Tree] {
            let vals: Vec<f64> = levels()
                .into_iter()
                .map(|lvl| simd::with_level(lvl, || kernels::dot(mode, &x, &y)))
                .collect();
            for v in &vals[1..] {
                assert_eq!(
                    v.to_bits(),
                    vals[0].to_bits(),
                    "n = {n} {mode:?}: bits diverged across levels"
                );
            }
        }
    }
}

/// Subnormals, signed zeros, and NaN payloads take the exact same path
/// through every backend: the lane-blocked layout never reassociates, so
/// even non-finite propagation is bit-reproducible.
#[test]
fn adversarial_values_bit_identical_across_levels() {
    let mut x = data(515, 9);
    let mut y = data(515, 10);
    // a subnormal run straddling a lane block
    for i in 40..60 {
        x[i] = f64::MIN_POSITIVE / (i as f64 + 2.0);
        y[i] = f64::MIN_POSITIVE * (i as f64 - 49.5);
    }
    // signed zeros in both operands
    x[71] = 0.0;
    y[71] = -0.0;
    x[72] = -0.0;
    y[72] = -0.0;
    // a run of alternating signed zeros across two lane blocks, so the
    // fused and stencil outputs include zeros of both signs, which must
    // match bit for bit
    for i in 80..97 {
        x[i] = if i % 2 == 0 { -0.0 } else { 0.0 };
        y[i] = if i % 3 == 0 { -0.0 } else { 0.0 };
    }
    // huge/tiny cancellation pairs
    x[100] = 1e300;
    y[100] = 1e-300;
    x[101] = -1e300;
    y[101] = 1e-300;
    let lvls = levels();

    let dots: Vec<u64> = lvls
        .iter()
        .map(|&lvl| simd::with_level(lvl, || simd::leaf_dot(&x, &y).to_bits()))
        .collect();
    assert!(
        dots.windows(2).all(|w| w[0] == w[1]),
        "finite adversarial dot"
    );

    // NaN in one lane: the same payload must come out of every backend
    x[300] = f64::from_bits(0x7ff8_0000_0000_beef);
    let nans: Vec<u64> = lvls
        .iter()
        .map(|&lvl| simd::with_level(lvl, || simd::leaf_dot(&x, &y).to_bits()))
        .collect();
    assert!(
        f64::from_bits(nans[0]).is_nan(),
        "NaN input must produce NaN"
    );
    assert!(
        nans.windows(2).all(|w| w[0] == w[1]),
        "NaN propagation diverged across levels: {nans:x?}"
    );

    // the same payloads through a fused update and a stencil row: outputs
    // and the returned sum, bit for bit
    let fused: Vec<Vec<u64>> = lvls
        .iter()
        .map(|&lvl| {
            simd::with_level(lvl, || {
                let (mut xv, mut rv) = (y.clone(), x.clone());
                let s = simd::leaf_update_xr(-0.5, &x, &y, &mut xv, &mut rv);
                let mut out = vec![0.0; x.len()];
                simd::leaf_stencil2d_row(4.0, 1.0, Some(&y), None, &x, &mut out);
                let mut bits = vec![s.to_bits()];
                bits.extend(xv.iter().chain(&rv).chain(&out).map(|v| v.to_bits()));
                bits
            })
        })
        .collect();
    assert!(
        fused.windows(2).all(|w| w[0] == w[1]),
        "adversarial fused update or stencil row diverged across levels"
    );

    // signed-zero preservation in the elementwise kernels
    for &lvl in &lvls {
        simd::with_level(lvl, || {
            let mut w = vec![0.0f64; 9];
            simd::leaf_waxpby(1.0, &[-0.0; 9], 1.0, &[-0.0; 9], &mut w, false);
            assert!(
                w.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()),
                "{}: -0.0 + -0.0 must stay -0.0",
                lvl.name()
            );
        });
    }
}

fn bits(r: &SolveResult) -> (Vec<u64>, Vec<u64>) {
    (
        r.x.iter().map(|v| v.to_bits()).collect(),
        r.residual_norms.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Whole-solve contract: for every registered variant under
/// `DotMode::Tree`, a solve produces the same iterate and residual trace
/// no matter which lane width is pinned on the solve thread (scalar,
/// every available level, and the auto-selected vector level).
#[test]
fn whole_solve_traces_bit_identical_for_all_registry_variants() {
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let opts = SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(300)
        .with_dot_mode(DotMode::Tree);
    for (key, solver) in keyed_variants(&a) {
        let base = simd::with_level(SimdLevel::Scalar, || {
            bits(&solver.solve(&a, &b, None, &opts))
        });
        // every available level
        for lvl in levels() {
            let got = simd::with_level(lvl, || bits(&solver.solve(&a, &b, None, &opts)));
            assert_eq!(
                base,
                got,
                "{key}: level {} diverged from pinned scalar",
                lvl.name()
            );
        }
        // the auto-selected vector level
        let got = simd::with_level(simd::auto_level(), || {
            bits(&solver.solve(&a, &b, None, &opts))
        });
        assert_eq!(base, got, "{key}: auto level diverged from scalar");
    }
}
