//! Differential lockdown: a depth-1 deep pipeline IS Ghysels-Vanroose.
//!
//! `DeepPipelinedCg::new(1)` delegates to the same `solve_gv` loop as
//! `PipelinedCg`, and this suite pins that equivalence at the bit level —
//! across dot modes, kernel policies, thread widths, warm starts, and
//! recovery configurations — so the delegation (and any future refactor
//! of the shared loop) cannot silently fork the two entry points.

use cg_lookahead::cg::baselines::PipelinedCg;
use cg_lookahead::cg::pipelined_deep::DeepPipelinedCg;
use cg_lookahead::cg::{CgVariant, Execution, SolveOptions, SolveResult};
use cg_lookahead::linalg::gen;
use cg_lookahead::linalg::kernels::DotMode;
use cg_lookahead::par::Team;
use std::sync::Arc;

fn assert_bitwise_equal(a: &SolveResult, b: &SolveResult, ctx: &str) {
    assert_eq!(a.termination, b.termination, "{ctx}: termination");
    assert_eq!(a.iterations, b.iterations, "{ctx}: iterations");
    assert_eq!(
        a.residual_norms.len(),
        b.residual_norms.len(),
        "{ctx}: trace length"
    );
    for (i, (x, y)) in a.residual_norms.iter().zip(&b.residual_norms).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: residual bits diverge at iteration {i}: {x:e} vs {y:e}"
        );
    }
    for (i, (x, y)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: x[{i}] bits diverge");
    }
}

#[test]
fn depth1_matches_pipelined_across_modes_and_policies() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for mode in [DotMode::Serial, DotMode::Tree] {
        for execution in [Execution::Fused, Execution::Reference] {
            let opts = SolveOptions::default()
                .with_tol(1e-9)
                .with_dot_mode(mode)
                .with_execution(execution);
            let gv = PipelinedCg::new().solve(&a, &b, None, &opts);
            let d1 = DeepPipelinedCg::new(1).solve(&a, &b, None, &opts);
            assert_bitwise_equal(&gv, &d1, &format!("{mode:?}/{execution:?}"));
        }
    }
}

#[test]
fn depth1_matches_pipelined_across_thread_widths() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    for width in [1usize, 2, 4] {
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_dot_mode(DotMode::Tree)
            .with_team(Arc::new(Team::new(width)));
        let gv = PipelinedCg::new().solve(&a, &b, None, &opts);
        let d1 = DeepPipelinedCg::new(1).solve(&a, &b, None, &opts);
        assert_bitwise_equal(&gv, &d1, &format!("width {width}"));
    }
}

#[test]
fn depth1_matches_pipelined_on_warm_start_and_anisotropic() {
    let a = gen::anisotropic2d(12, 0.05);
    let b = gen::rand_vector(144, 11);
    let x0 = gen::rand_vector(144, 3);
    let opts = SolveOptions::default().with_tol(1e-8);
    let gv = PipelinedCg::new().solve(&a, &b, Some(&x0), &opts);
    let d1 = DeepPipelinedCg::new(1).solve(&a, &b, Some(&x0), &opts);
    assert_bitwise_equal(&gv, &d1, "warm-start anisotropic");
}

#[test]
fn depth1_matches_pipelined_under_checkpointing() {
    let a = gen::poisson2d(12);
    let b = gen::poisson2d_rhs(12);
    let policy = cg_lookahead::cg::resilience::RecoveryPolicy::default().with_checkpoint_period(8);
    let opts = SolveOptions::default().with_tol(1e-9).with_recovery(policy);
    let gv = PipelinedCg::new().solve(&a, &b, None, &opts);
    let d1 = DeepPipelinedCg::new(1).solve(&a, &b, None, &opts);
    assert_bitwise_equal(&gv, &d1, "checkpointed");
}

#[test]
fn depth1_matches_pipelined_op_counts() {
    // the delegation must not even diverge in its instrumentation
    let a = gen::poisson2d(10);
    let b = gen::poisson2d_rhs(10);
    let opts = SolveOptions::default().with_tol(1e-9);
    let gv = PipelinedCg::new().solve(&a, &b, None, &opts);
    let d1 = DeepPipelinedCg::new(1).solve(&a, &b, None, &opts);
    assert_eq!(gv.counts.matvecs, d1.counts.matvecs);
    assert_eq!(gv.counts.dots, d1.counts.dots);
    assert_eq!(gv.counts.vector_ops, d1.counts.vector_ops);
    assert_eq!(gv.counts.scalar_ops, d1.counts.scalar_ops);
}
