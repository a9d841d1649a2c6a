//! Differential suite for whole-iteration sweep fusion.
//!
//! [`Execution::WholeIteration`] promises *bit-identical* whole-solve
//! traces to the per-kernel fused path: same `x`, same recorded residual
//! norms, same iteration count, termination, and operation tallies — at
//! any staging tile size, any team width, on every sweep-capable operator.
//! This suite pins that promise differentially (no golden files: the
//! unfused solve on the same inputs *is* the oracle), and pins the
//! explicit [`Termination::Unsupported`] rejection for every variant and
//! configuration outside the sweep's eligibility envelope.

use std::sync::Arc;
use vr_cg::baselines::{ChronopoulosGearCg, PipelinedCg};
use vr_cg::overlap_k1::OverlapK1Cg;
use vr_cg::registry;
use vr_cg::standard::StandardCg;
use vr_cg::{CgVariant, Execution, SolveOptions, SolveResult, Termination};
use vr_linalg::kernels::DotMode;
use vr_linalg::stencil::{Stencil2d, Stencil3d};
use vr_linalg::{gen, LinearOperator};
use vr_par::team::{dispatch_width, Team};

/// The four sweep-eligible variants, constructed as the registry does.
fn eligible_variants() -> Vec<(&'static str, Box<dyn CgVariant>)> {
    vec![
        (
            "standard",
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
        ),
        ("overlap_k1", Box::new(OverlapK1Cg::new().with_resync(20))),
        ("chronopoulos_gear", Box::new(ChronopoulosGearCg::new())),
        ("pipelined", Box::new(PipelinedCg::new())),
    ]
}

/// Operators sized so the 256-leaf layout gives multi-element chunks whose
/// boundaries cut grid rows mid-way (ghost-zone adversarial): n = 1073
/// with ny = 29 for the 2-D stencil, n = 1331 with row length 11 for the
/// 3-D stencil, and an n = 1089 assembled CSR matrix.
fn operators() -> Vec<(&'static str, Box<dyn LinearOperator>)> {
    vec![
        (
            "stencil2d",
            Box::new(Stencil2d::anisotropic(37, 29, 0.35)) as Box<dyn LinearOperator>,
        ),
        ("stencil3d", Box::new(Stencil3d::new(11))),
        ("csr", Box::new(gen::poisson2d(33))),
    ]
}

fn base_opts(threads: usize) -> SolveOptions {
    let mut opts = SolveOptions::default()
        .with_dot_mode(DotMode::Tree)
        .with_tol(1e-8)
        .with_max_iters(400)
        .with_threads(threads);
    opts.record_residuals = true;
    opts
}

/// Assert every observable of the two results is bit-identical.
fn assert_bits_eq(label: &str, fused: &SolveResult, sweep: &SolveResult) {
    assert_eq!(
        fused.termination, sweep.termination,
        "{label}: termination diverged"
    );
    assert_eq!(
        fused.iterations, sweep.iterations,
        "{label}: iteration count diverged"
    );
    assert_eq!(fused.counts, sweep.counts, "{label}: op tallies diverged");
    assert_eq!(
        fused.residual_norms.len(),
        sweep.residual_norms.len(),
        "{label}: norm history length diverged"
    );
    for (i, (f, s)) in fused
        .residual_norms
        .iter()
        .zip(&sweep.residual_norms)
        .enumerate()
    {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{label}: residual norm {i} diverged: {f:e} vs {s:e}"
        );
    }
    for (i, (f, s)) in fused.x.iter().zip(&sweep.x).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{label}: x[{i}] diverged: {f:e} vs {s:e}"
        );
    }
}

/// The tentpole pin: every eligible variant, on every sweep-capable
/// operator shape, at serial and team width, across degenerate (1-element,
/// whole-domain) and row-straddling staging tiles, produces the same bits
/// as the per-kernel fused path.
#[test]
fn whole_iteration_sweep_is_bit_identical_to_fused() {
    for (vkey, variant) in eligible_variants() {
        for (okey, op) in operators() {
            let a = op.as_ref();
            let n = a.dim();
            let b = gen::rand_vector(n, 17);
            for threads in [1, 4] {
                let opts = base_opts(threads);
                let fused = variant.solve(a, &b, None, &opts);
                assert!(
                    fused.iterations > 3,
                    "{vkey}/{okey}: trivial baseline ({} iterations)",
                    fused.iterations
                );
                // 1-element, row-straddling (3 and ny+1), L1-heuristic,
                // and whole-domain staging tiles must all be inert.
                for tile in [Some(1), Some(3), Some(30), None, Some(n)] {
                    let sopts = opts
                        .clone()
                        .with_execution(Execution::WholeIteration { tile });
                    let sweep = variant.solve(a, &b, None, &sopts);
                    assert_bits_eq(
                        &format!("{vkey}/{okey}/threads={threads}/tile={tile:?}"),
                        &fused,
                        &sweep,
                    );
                }
            }
        }
    }
}

/// The operators above are small enough (n ≈ 1k, below one team grain)
/// that every kernel and every epoch runs as a single shard. At n ≈ 37k an
/// explicit team of width 2 or 4 dispatches that many shards on any host,
/// so this pins the sweep's multi-shard epochs (chunk-aligned shard
/// ownership, `try_run_shards`) against the team kernels.
#[test]
fn sweep_matches_fused_across_multi_shard_teams() {
    let ops: Vec<(&str, Box<dyn LinearOperator>)> = vec![
        (
            "stencil2d",
            Box::new(Stencil2d::anisotropic(193, 191, 0.35)),
        ),
        ("stencil3d", Box::new(Stencil3d::new(34))),
        ("csr", Box::new(gen::poisson2d(193))),
    ];
    for width in [2, 4] {
        let team = Arc::new(Team::new(width));
        for (okey, op) in &ops {
            let a = op.as_ref();
            let n = a.dim();
            assert_eq!(
                dispatch_width(n, width),
                width,
                "{okey}: n = {n} must dispatch {width} shards"
            );
            let b = gen::rand_vector(n, 31);
            let opts = SolveOptions::default()
                .with_dot_mode(DotMode::Tree)
                .with_tol(1e-8)
                .with_max_iters(30)
                .with_team(Arc::clone(&team));
            for (vkey, variant) in eligible_variants() {
                let fused = variant.solve(a, &b, None, &opts);
                let sweep = variant.solve(
                    a,
                    &b,
                    None,
                    &opts
                        .clone()
                        .with_execution(Execution::WholeIteration { tile: None }),
                );
                assert_bits_eq(&format!("{vkey}/{okey}/team={width}"), &fused, &sweep);
            }
        }
    }
}

/// A warm start must round-trip identically too (the `x0` residual setup
/// runs outside the sweep engine but feeds its first epoch).
#[test]
fn sweep_matches_fused_from_nonzero_x0() {
    let a = Stencil2d::anisotropic(37, 29, 0.35);
    let b = gen::rand_vector(a.dim(), 23);
    let x0 = gen::rand_vector(a.dim(), 29);
    for (vkey, variant) in eligible_variants() {
        for threads in [1, 4] {
            let opts = base_opts(threads);
            let fused = variant.solve(&a, &b, Some(&x0), &opts);
            let sweep = variant.solve(
                &a,
                &b,
                Some(&x0),
                &opts
                    .clone()
                    .with_execution(Execution::WholeIteration { tile: None }),
            );
            assert_bits_eq(&format!("{vkey}/x0/threads={threads}"), &fused, &sweep);
        }
    }
}

/// The overlap-k1 resync block (periodic direct recomputation of the
/// carried scalars) runs serial kernels outside the epochs; exercise it.
#[test]
fn sweep_matches_fused_through_overlap_resync() {
    let variant = OverlapK1Cg::new().with_resync(3);
    let a = gen::poisson2d(33);
    let b = gen::poisson2d_rhs(33);
    for threads in [1, 4] {
        let opts = base_opts(threads);
        let fused = variant.solve(&a, &b, None, &opts);
        let sweep = variant.solve(
            &a,
            &b,
            None,
            &opts
                .clone()
                .with_execution(Execution::WholeIteration { tile: None }),
        );
        assert_bits_eq(
            &format!("overlap_resync3/threads={threads}"),
            &fused,
            &sweep,
        );
    }
}

/// Every registry variant without a single-pass schedule must reject a
/// whole-iteration request with `Unsupported` after zero iterations —
/// and the registry's `supports` answers must match the hard-coded
/// eligibility set this suite sweeps.
#[test]
fn ineligible_variants_reject_explicitly() {
    const ELIGIBLE: [&str; 4] = ["standard", "overlap_k1", "chronopoulos_gear", "pipelined"];
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    let sweep = Execution::WholeIteration { tile: None };
    let opts = base_opts(1).with_execution(sweep);
    let mut seen = 0;
    for (key, variant) in registry::keyed_variants(&a) {
        seen += 1;
        let expect_eligible = ELIGIBLE.contains(&key);
        assert_eq!(
            variant.supports(sweep),
            expect_eligible,
            "{key}: supports(WholeIteration) disagrees with the suite's eligibility set"
        );
        let res = variant.solve(&a, &b, None, &opts);
        if expect_eligible {
            assert!(res.converged, "{key}: {:?}", res.termination);
        } else {
            assert_eq!(
                res.termination,
                Termination::Unsupported,
                "{key}: ineligible variant must reject the sweep request"
            );
            assert_eq!(res.iterations, 0, "{key}: rejection must do no work");
        }
    }
    assert_eq!(seen, registry::VARIANT_COUNT);
}

/// Eligible variants must also reject configurations whose unfused bits
/// the sweep schedule cannot reproduce: the `Serial` dot order and
/// checksum-guarded reductions.
#[test]
fn eligible_variants_reject_unsupported_configurations() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for (vkey, variant) in eligible_variants() {
        let cases: Vec<(&str, SolveOptions)> = vec![
            (
                "serial-dot",
                base_opts(1)
                    .with_dot_mode(DotMode::Serial)
                    .with_execution(Execution::WholeIteration { tile: None }),
            ),
            (
                "checksum",
                base_opts(1)
                    .with_reduction_checksum(true)
                    .with_execution(Execution::WholeIteration { tile: None }),
            ),
        ];
        for (ckey, opts) in cases {
            let res = variant.solve(&a, &b, None, &opts);
            assert_eq!(
                res.termination,
                Termination::Unsupported,
                "{vkey}/{ckey}: must reject"
            );
            assert_eq!(
                res.iterations, 0,
                "{vkey}/{ckey}: rejection must do no work"
            );
        }
    }
}

/// An operator with no sweep decomposition (here: a dense matrix) rejects
/// even on an eligible variant.
#[test]
fn non_sweepable_operator_rejects() {
    let a = vr_linalg::DenseMatrix::identity(24);
    let b = vec![1.0; 24];
    let res = StandardCg::new().solve(
        &a,
        &b,
        None,
        &base_opts(1).with_execution(Execution::WholeIteration { tile: None }),
    );
    assert_eq!(res.termination, Termination::Unsupported);
}
