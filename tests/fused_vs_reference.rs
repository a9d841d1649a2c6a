//! Differential harness for the fused single-pass kernels (`KernelPolicy`).
//!
//! The contract under test: for every solver variant and every
//! configuration (dot mode × thread count), the `Fused` kernel policy
//! produces **exactly the bits** of the `Reference` two-pass policy —
//! same iteration count, same termination, same residual-norm sequence,
//! same solution vector. Under the order-preserving summation modes
//! (Serial, Tree) this is asserted bitwise; in Kahan mode the issue
//! contract only promises 1e-14 relative agreement, which we check (the
//! implementation happens to be bitwise there too, but the looser bound
//! is the API promise).
//!
//! The kernel-level cross-checks (fused vs two-pass composition on
//! random and adversarial inputs) and the aliasing regression live here
//! as well so the whole fused surface is locked down by one suite.

use cg_lookahead::cg::baselines::{ChronopoulosGearCg, PipelinedCg, PrecondCg, ThreeTermCg};
use cg_lookahead::cg::lookahead::LookaheadCg;
use cg_lookahead::cg::overlap_k1::OverlapK1Cg;
use cg_lookahead::cg::sstep::SStepCg;
use cg_lookahead::cg::standard::StandardCg;
use cg_lookahead::cg::{CgVariant, KernelPolicy, SolveOptions, SolveResult};
use cg_lookahead::linalg::kernels::{self, DotMode};
use cg_lookahead::linalg::precond::Jacobi;
use cg_lookahead::linalg::stencil::Stencil2d;
use cg_lookahead::linalg::{fused, gen, CsrMatrix};

/// The eight variants the fused policy is adopted by.
fn all_variants(a: &CsrMatrix) -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(StandardCg::new()),
        Box::new(OverlapK1Cg::new().with_resync(20)),
        Box::new(LookaheadCg::new(2).with_resync(12)),
        Box::new(SStepCg::monomial(3)),
        Box::new(ThreeTermCg::new()),
        Box::new(ChronopoulosGearCg::new()),
        Box::new(PipelinedCg::new()),
        Box::new(PrecondCg::new(Jacobi::new(a).unwrap(), "pcg-jacobi")),
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(r: &SolveResult, f: &SolveResult, ctx: &str) {
    assert_eq!(r.termination, f.termination, "{ctx}: termination");
    assert_eq!(r.iterations, f.iterations, "{ctx}: iterations");
    assert_eq!(
        bits(&r.residual_norms),
        bits(&f.residual_norms),
        "{ctx}: residual-norm scalar sequence"
    );
    assert_eq!(bits(&r.x), bits(&f.x), "{ctx}: solution vector");
}

#[test]
fn every_variant_bit_identical_under_order_preserving_summation() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for mode in [DotMode::Serial, DotMode::Tree] {
        for threads in [1usize, 4] {
            for s in all_variants(&a) {
                let base = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_dot_mode(mode)
                    .with_threads(threads);
                let reference = s.solve(
                    &a,
                    &b,
                    None,
                    &base.clone().with_kernel_policy(KernelPolicy::Reference),
                );
                let fused = s.solve(&a, &b, None, &base.with_kernel_policy(KernelPolicy::Fused));
                let ctx = format!("{} / {mode:?} / threads={threads}", s.name());
                assert_bit_identical(&reference, &fused, &ctx);
                assert!(reference.converged, "{ctx}: converged");
            }
        }
    }
}

#[test]
fn every_variant_agrees_to_1e14_in_kahan_mode() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for threads in [1usize, 4] {
        for s in all_variants(&a) {
            let base = SolveOptions::default()
                .with_tol(1e-8)
                .with_dot_mode(DotMode::Kahan)
                .with_threads(threads);
            let reference = s.solve(
                &a,
                &b,
                None,
                &base.clone().with_kernel_policy(KernelPolicy::Reference),
            );
            let fused = s.solve(&a, &b, None, &base.with_kernel_policy(KernelPolicy::Fused));
            let ctx = format!("{} / Kahan / threads={threads}", s.name());
            assert_eq!(reference.iterations, fused.iterations, "{ctx}");
            for (i, (r, f)) in reference
                .residual_norms
                .iter()
                .zip(&fused.residual_norms)
                .enumerate()
            {
                assert!(
                    (r - f).abs() <= 1e-14 * (1.0 + r.abs()),
                    "{ctx}: norm[{i}] {r} vs {f}"
                );
            }
            for (i, (r, f)) in reference.x.iter().zip(&fused.x).enumerate() {
                assert!(
                    (r - f).abs() <= 1e-14 * (1.0 + r.abs()),
                    "{ctx}: x[{i}] {r} vs {f}"
                );
            }
        }
    }
}

#[test]
fn fused_ops_are_tallied_and_reference_work_is_preserved() {
    // The fused policy must not change the *logical* operation counts —
    // a fused kernel reports the same matvec/dot/vector-op tallies as its
    // two-pass composition, plus a nonzero fused_ops tally of its own.
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    for s in all_variants(&a) {
        let base = SolveOptions::default().with_tol(1e-8);
        let reference = s.solve(
            &a,
            &b,
            None,
            &base.clone().with_kernel_policy(KernelPolicy::Reference),
        );
        let fused = s.solve(&a, &b, None, &base.with_kernel_policy(KernelPolicy::Fused));
        let name = s.name();
        assert_eq!(reference.counts.matvecs, fused.counts.matvecs, "{name}");
        assert_eq!(reference.counts.dots, fused.counts.dots, "{name}");
        assert_eq!(
            reference.counts.vector_ops, fused.counts.vector_ops,
            "{name}"
        );
        assert_eq!(reference.counts.fused_ops, 0, "{name}: reference fused");
        assert!(fused.counts.fused_ops > 0, "{name}: fused tally");
    }
}

#[test]
fn standard_cg_bit_matches_reference_on_stencil() {
    // On a matrix-free stencil the fused policy runs the branch-free
    // row-sweep kernels (apply_dot + fused update_xr) — the very code the
    // E16 headline measures. It must still be bit-for-bit the reference CG.
    let op = Stencil2d::poisson(24);
    let b = gen::rand_vector(24 * 24, 7);
    for mode in [DotMode::Serial, DotMode::Tree, DotMode::Kahan] {
        let base = SolveOptions::default().with_tol(1e-8).with_dot_mode(mode);
        let s = StandardCg::new();
        let reference = s.solve(
            &op,
            &b,
            None,
            &base.clone().with_kernel_policy(KernelPolicy::Reference),
        );
        let fused = s.solve(&op, &b, None, &base.with_kernel_policy(KernelPolicy::Fused));
        let ctx = format!("standard-cg stencil / {mode:?}");
        assert_bit_identical(&reference, &fused, &ctx);
        assert!(fused.counts.fused_ops > 0, "{ctx}: fused tally");
    }
}

#[test]
fn nostore_kernels_bit_match_two_pass_composition_on_all_operators() {
    // The no-store kernels (never materializing w = A·p) are the
    // whole-iteration sweep engine's recompute epochs, which stage rows of
    // A·p in cache-resident scratch. Lock down their bit contract against
    // the two-pass composition directly, on every operator family the
    // engine accepts: both stencil dims and general CSR (structured and
    // random sparsity). The engine reduces in the fixed-layout chunk tree,
    // so the composition's dot is `par_dot_in`.
    use cg_lookahead::linalg::stencil::Stencil3d;
    use cg_lookahead::linalg::sweep::FusedIterationSweep;
    use cg_lookahead::linalg::LinearOperator;
    use cg_lookahead::par::reduce::par_dot_in;
    let ops: Vec<Box<dyn LinearOperator>> = vec![
        Box::new(Stencil2d::poisson(17)),
        Box::new(Stencil2d::anisotropic(5, 31, 0.25)),
        Box::new(Stencil2d::anisotropic(31, 5, 4.0)),
        Box::new(Stencil3d::new(9)),
        Box::new(gen::poisson2d(19)),
        Box::new(gen::rand_spd(300, 7, 4.0, 21)),
    ];
    for op in &ops {
        let n = op.dim();
        let p = pseudo(n, 11);
        let sweep = op.as_sweep().expect("operator supports the sweep engine");
        let mut eng = FusedIterationSweep::new(sweep, None, None, None);
        let mut w = vec![0.0; n];
        op.apply(&p, &mut w);
        let pap = eng.epoch_matvec_dot_nostore(None, &p);
        assert_eq!(
            pap.to_bits(),
            par_dot_in(None, &w, &p).to_bits(),
            "n={n}: matvec_dot_nostore"
        );

        let lambda = 0.41;
        let mut x1 = pseudo(n, 12);
        let mut r1 = pseudo(n, 13);
        let mut x2 = x1.clone();
        let mut r2 = r1.clone();
        let rr = eng.epoch_update_xr_recompute(None, lambda, &p, &mut x1, &mut r1);
        kernels::axpy(lambda, &p, &mut x2);
        kernels::axpy(-lambda, &w, &mut r2);
        assert_eq!(bits(&x1), bits(&x2), "n={n}: update_xr_recompute x");
        assert_eq!(bits(&r1), bits(&r2), "n={n}: update_xr_recompute r");
        assert_eq!(
            rr.to_bits(),
            par_dot_in(None, &r2, &r2).to_bits(),
            "n={n}: update_xr_recompute rr"
        );
    }
}

// ---------------------------------------------------------------------
// kernel-level cross-checks: fused vs two-pass composition
// ---------------------------------------------------------------------

/// Deterministic pseudo-random vector (xorshift64*).
fn pseudo(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Adversarial magnitudes: huge, tiny, and mixed-sign entries that make
/// naive summation lose everything — exactly where "same bits" matters.
fn adversarial(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 5 {
            0 => 1e300,
            1 => -1e300,
            2 => 1e-300,
            3 => -3.5,
            _ => 1e8,
        })
        .collect()
}

#[test]
fn fused_kernels_match_two_pass_composition_elementwise() {
    for inputs in [
        (pseudo(257, 1), pseudo(257, 2), pseudo(257, 3)),
        (adversarial(64), pseudo(64, 4), adversarial(64)),
    ] {
        let (p, w, seed) = inputs;
        let n = p.len();
        for mode in [DotMode::Serial, DotMode::Tree, DotMode::Kahan] {
            // update_xr vs axpy; axpy; dot
            let lambda = 0.37;
            let mut x1 = seed.clone();
            let mut r1 = pseudo(n, 9);
            let mut x2 = x1.clone();
            let mut r2 = r1.clone();
            let rr = fused::update_xr(mode, lambda, &p, &w, &mut x1, &mut r1);
            kernels::axpy(lambda, &p, &mut x2);
            kernels::axpy(-lambda, &w, &mut r2);
            assert_eq!(bits(&x1), bits(&x2), "{mode:?}: update_xr x");
            assert_eq!(bits(&r1), bits(&r2), "{mode:?}: update_xr r");
            assert_eq!(
                rr.to_bits(),
                kernels::dot(mode, &r2, &r2).to_bits(),
                "{mode:?}: update_xr rr"
            );

            // axpy_norm2_sq vs axpy; dot
            let mut y1 = r1.clone();
            let mut y2 = y1.clone();
            let s1 = fused::axpy_norm2_sq(mode, -lambda, &w, &mut y1);
            kernels::axpy(-lambda, &w, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "{mode:?}: axpy_norm2_sq y");
            assert_eq!(
                s1.to_bits(),
                kernels::dot(mode, &y2, &y2).to_bits(),
                "{mode:?}: axpy_norm2_sq sum"
            );

            // axpy_dot vs axpy; dot
            let mut y1 = x1.clone();
            let mut y2 = y1.clone();
            let d1 = fused::axpy_dot(mode, 1.5, &p, &mut y1, &w);
            kernels::axpy(1.5, &p, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "{mode:?}: axpy_dot y");
            assert_eq!(
                d1.to_bits(),
                kernels::dot(mode, &y2, &w).to_bits(),
                "{mode:?}: axpy_dot sum"
            );

            // dot2 vs two separate dots
            let (d_a, d_b) = fused::dot2(mode, &p, &w, &r1);
            assert_eq!(d_a.to_bits(), kernels::dot(mode, &p, &w).to_bits());
            assert_eq!(d_b.to_bits(), kernels::dot(mode, &p, &r1).to_bits());
        }
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "x aliases r")]
fn update_xr_rejects_aliased_x_and_r_in_debug_builds() {
    // Regression: fused update_xr writes x and r in the same sweep; if a
    // caller hands it the same buffer twice the result is silently wrong.
    // The debug aliasing guard must catch it.
    let p = vec![1.0; 16];
    let w = vec![1.0; 16];
    let mut buf = vec![0.5; 16];
    let ptr = buf.as_mut_ptr();
    let len = buf.len();
    // Deliberately construct the aliasing view the guard exists to reject.
    let x = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
    let r = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
    let _ = fused::update_xr(DotMode::Serial, 0.25, &p, &w, x, r);
}
