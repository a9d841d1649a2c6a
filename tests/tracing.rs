//! Tracing is observation, never perturbation.
//!
//! The `vr_obs` tracer rides inside the solve loop, so the one property
//! everything else rests on is that attaching it changes *nothing*: the
//! iterates, the recorded residual history, and the iteration count of a
//! traced solve must be bit-identical to the untraced solve, for every
//! variant, at every team width, under both basis engines (the operator's
//! tiled matrix-powers kernel and the `mpk::NaivePowers` oracle). On top
//! of that the trace itself must be coherent: iteration marks match the
//! reported iteration count, the expected span kinds show up for each
//! variant's dependency structure, and the critical-path aggregator
//! conserves time.

use std::sync::Arc;
use vr_cg::baselines::{ChronopoulosGearCg, PipelinedCg, ThreeTermCg};
use vr_cg::lookahead::LookaheadCg;
use vr_cg::overlap_k1::OverlapK1Cg;
use vr_cg::sstep::SStepCg;
use vr_cg::standard::StandardCg;
use vr_cg::{CgVariant, SolveOptions};
use vr_linalg::gen;
use vr_linalg::kernels::DotMode;
use vr_linalg::mpk::NaivePowers;
use vr_linalg::LinearOperator;
use vr_obs::{PhaseClass, SpanKind, Tracer};

fn variants() -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(StandardCg::new()),
        Box::new(ThreeTermCg::new()),
        Box::new(ChronopoulosGearCg::new()),
        Box::new(PipelinedCg::new()),
        Box::new(OverlapK1Cg::new()),
        Box::new(LookaheadCg::new(2)),
        Box::new(LookaheadCg::new(4)),
        Box::new(SStepCg::monomial(4)),
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn attached_tracer_leaves_every_variant_bit_identical() {
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let naive = NaivePowers(&a);
    let engines: [(&dyn LinearOperator, &str); 2] = [(&a, "mpk"), (&naive, "naive")];
    for threads in [1usize, 2] {
        for (op, engine) in engines {
            let opts = SolveOptions::default()
                .with_tol(1e-10)
                .with_max_iters(400)
                .with_dot_mode(DotMode::Tree)
                .with_threads(threads);
            for v in variants() {
                let plain = v.solve(op, &b, None, &opts);
                let tracer = Arc::new(Tracer::for_width(threads));
                let traced_opts = opts.clone().with_tracer(Arc::clone(&tracer));
                let traced = v.solve(op, &b, None, &traced_opts);
                let ctx = format!("{} (threads {threads}, {engine})", v.name());
                assert_eq!(plain.iterations, traced.iterations, "{ctx}: iterations");
                assert_eq!(bits(&plain.x), bits(&traced.x), "{ctx}: iterate bits");
                assert_eq!(
                    bits(&plain.residual_norms),
                    bits(&traced.residual_norms),
                    "{ctx}: residual history bits"
                );
                assert!(
                    !tracer.drain().spans.is_empty(),
                    "{ctx}: traced solve recorded no spans"
                );
            }
        }
    }
}

#[test]
fn iteration_marks_match_reported_iterations() {
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let tracer = Arc::new(Tracer::for_width(1));
    let opts = SolveOptions::default()
        .with_tol(0.0)
        .with_max_iters(25)
        .with_tracer(Arc::clone(&tracer));
    let res = StandardCg::new().solve(&a, &b, None, &opts);
    let log = tracer.drain();
    let marks = log
        .spans
        .iter()
        .filter(|(_, s)| s.kind == SpanKind::IterMark)
        .count();
    assert_eq!(marks, res.iterations, "one IterMark per iteration");
    assert_eq!(log.dropped, 0);
}

/// The dependency structure the accounting is built around: standard CG's
/// `p·Ap` is an eager, whole-call reduction wait, while overlap-k1 only
/// ever *launches* reductions from the loop body and pays a deferred
/// fan-in at the consume point. The span kinds in the trace are that
/// structure, reified.
#[test]
fn span_kinds_reflect_each_variants_dependency_structure() {
    // n must exceed the dispatch grain (8192): a deferred reduction over a
    // single leaf partial has no fan-in to record, so the split-phase
    // kinds only appear once the chunk tree is real.
    let a = gen::poisson2d(96);
    let b = gen::poisson2d_rhs(96);
    let kinds_of = |v: &dyn CgVariant| {
        let tracer = Arc::new(Tracer::for_width(1));
        let opts = SolveOptions::default()
            .with_tol(0.0)
            .with_max_iters(10)
            .with_dot_mode(DotMode::Tree)
            .with_tracer(Arc::clone(&tracer));
        let _ = v.solve(&a, &b, None, &opts);
        let log = tracer.drain();
        move |kind: SpanKind| log.spans.iter().filter(|(_, s)| s.kind == kind).count()
    };

    let std_count = kinds_of(&StandardCg::new());
    assert!(std_count(SpanKind::Matvec) > 0, "standard: matvec spans");
    assert!(
        std_count(SpanKind::DotWait) > 0,
        "standard: eager dots gate the iteration"
    );
    assert_eq!(
        std_count(SpanKind::DeferredWait),
        0,
        "standard has nothing deferred"
    );

    let ovl_count = kinds_of(&OverlapK1Cg::new());
    assert!(
        ovl_count(SpanKind::DotLaunch) > 0,
        "overlap-k1: reductions are launched, not awaited"
    );
    assert!(
        ovl_count(SpanKind::DeferredWait) > 0,
        "overlap-k1: deferred fan-ins at the consume points"
    );
    assert!(
        ovl_count(SpanKind::MpkBuild) > 0,
        "overlap-k1 (default Mpk engine): matvec pair is one powers call"
    );
}

#[test]
fn aggregator_conserves_time_and_counts_iterations() {
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let tracer = Arc::new(Tracer::for_width(1));
    let opts = SolveOptions::default()
        .with_tol(0.0)
        .with_max_iters(30)
        .with_tracer(Arc::clone(&tracer));
    let res = OverlapK1Cg::new().solve(&a, &b, None, &opts);
    let report = vr_obs::critpath::attribute(&tracer.drain());
    assert_eq!(report.iters.len(), res.iterations);
    assert_eq!(report.dropped, 0);
    for it in &report.iters {
        let p = it.phases;
        assert_eq!(
            p.reduction_wait_ns + p.matvec_ns + p.vector_ns + p.overhead_ns,
            p.total_ns,
            "iteration {}: phases must sum to wall time",
            it.iter
        );
    }
    assert!(report.totals.total_ns > 0);
    let share_sum = [
        PhaseClass::ReductionWait,
        PhaseClass::Matvec,
        PhaseClass::Vector,
        PhaseClass::Overhead,
    ]
    .iter()
    .map(|c| report.totals.share(*c))
    .sum::<f64>();
    assert!((share_sum - 1.0).abs() < 1e-12, "shares sum to 1");
}

/// Satellite contract for the overlap-k1 MPK routing: the two matvecs per
/// iteration (`A·p`, `A·(A·p)`) go through the blocked matrix-powers
/// kernel as one s = 2 call, and that must be invisible in the numbers —
/// engine choice changes neither the iterates nor the residual history.
#[test]
fn overlap_k1_mpk_and_naive_engines_are_bit_identical() {
    let a = gen::poisson2d(20);
    let b = gen::poisson2d_rhs(20);
    for threads in [1usize, 2] {
        let base = SolveOptions::default()
            .with_tol(1e-10)
            .with_max_iters(600)
            .with_dot_mode(DotMode::Tree)
            .with_threads(threads);
        let mpk = OverlapK1Cg::new().solve(&a, &b, None, &base);
        let naive = OverlapK1Cg::new().solve(&NaivePowers(&a), &b, None, &base);
        assert_eq!(mpk.iterations, naive.iterations, "threads {threads}");
        assert_eq!(bits(&mpk.x), bits(&naive.x), "threads {threads}: x bits");
        assert_eq!(
            bits(&mpk.residual_norms),
            bits(&naive.residual_norms),
            "threads {threads}: residual bits"
        );
        // and the op accounting still reports two logical matvecs per
        // iteration, not one fused oddity
        assert_eq!(
            mpk.counts.matvecs, naive.counts.matvecs,
            "threads {threads}"
        );
    }
}
