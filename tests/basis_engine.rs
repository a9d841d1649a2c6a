//! Solver-level differential harness for the two basis engines.
//!
//! Solvers always build block Krylov bases through the operator's own
//! [`LinearOperator::matrix_powers`] — for CSR and stencils the
//! cache-blocked matrix-powers ("mpk") kernel. The contract: that kernel
//! produces **exactly the bits** of the level-by-level reference engine
//! (`mpk::naive_powers`, which a solve reaches through the
//! [`NaivePowers`] oracle operator) for every s-step basis kind and for
//! look-ahead startup — same termination, same iteration count, same
//! residual-norm sequence, same solution vector — at every team width and
//! for explicit as well as heuristic tile sizes. Order-preserving
//! summation (`DotMode::Tree`) makes the whole solve deterministic, so any
//! single differing bit in the basis would surface in the trace.

use std::sync::Arc;

use cg_lookahead::cg::lookahead::LookaheadCg;
use cg_lookahead::cg::sstep::SStepCg;
use cg_lookahead::cg::{CgVariant, SolveOptions, SolveResult};
use cg_lookahead::linalg::gen;
use cg_lookahead::linalg::kernels::DotMode;
use cg_lookahead::linalg::mpk::NaivePowers;
use cg_lookahead::linalg::{CsrMatrix, LinearOperator};
use cg_lookahead::obs::{SpanKind, Tracer};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn assert_trace_identical(n_label: &str, r: &SolveResult, m: &SolveResult, ctx: &str) {
    assert_eq!(r.termination, m.termination, "{n_label} {ctx}: termination");
    assert_eq!(r.iterations, m.iterations, "{n_label} {ctx}: iterations");
    assert_eq!(
        bits(&r.residual_norms),
        bits(&m.residual_norms),
        "{n_label} {ctx}: residual-norm sequence"
    );
    assert_eq!(bits(&r.x), bits(&m.x), "{n_label} {ctx}: solution vector");
}

fn engine_users() -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(SStepCg::monomial(4)),
        Box::new(SStepCg::newton(4)),
        Box::new(SStepCg::chebyshev(4)),
        Box::new(LookaheadCg::new(2)),
        Box::new(LookaheadCg::new(3).with_resync(16)),
    ]
}

fn opts(width: usize, tile: Option<usize>) -> SolveOptions {
    SolveOptions::default()
        .with_tol(1e-8)
        .with_dot_mode(DotMode::Tree)
        .with_threads(width)
        .with_mpk_tile(tile)
}

/// Solve once through the operator's own kernel and once through the
/// naive oracle, in that order.
fn run_both(
    v: &dyn CgVariant,
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolveOptions,
) -> (SolveResult, SolveResult) {
    let mpk = v.solve(a, b, None, opts);
    let naive = v.solve(&NaivePowers(a), b, None, opts);
    (mpk, naive)
}

#[test]
fn mpk_engine_traces_bit_identical_to_naive_across_widths_and_tiles() {
    let a = gen::poisson2d(24);
    let b = gen::poisson2d_rhs(24);
    for v in engine_users() {
        for width in [1usize, 2, 4] {
            for tile in [None, Some(512)] {
                let (mpk, naive) = run_both(v.as_ref(), &a, &b, &opts(width, tile));
                let ctx = format!("width={width} tile={tile:?}");
                assert_trace_identical(&v.name(), &naive, &mpk, &ctx);
                assert!(naive.converged, "{} {ctx}: converged", v.name());
            }
        }
    }
}

#[test]
fn mpk_engine_traces_bit_identical_on_grain_spanning_system() {
    // n = 136² = 18 496 exceeds twice the dispatch grain, so width-4 team
    // runs genuinely shard the sweeps instead of clamping to serial.
    let a = gen::poisson2d(136);
    let b = gen::poisson2d_rhs(136);
    let variants: Vec<Box<dyn CgVariant>> = vec![
        Box::new(SStepCg::monomial(4)),
        Box::new(LookaheadCg::new(2)),
    ];
    for v in variants {
        for width in [1usize, 4] {
            let (mpk, naive) = run_both(v.as_ref(), &a, &b, &opts(width, None));
            let ctx = format!("width={width}");
            assert_trace_identical(&v.name(), &naive, &mpk, &ctx);
        }
    }
}

/// With no engine option, the tiled kernel is what a default solve runs:
/// a traced s-step solve records `MpkTile` spans, the same solve through
/// the oracle records none, and both land on the same bits. The tile
/// override round-trips through its builder.
#[test]
fn default_engine_is_mpk_and_builder_round_trips() {
    assert_eq!(SolveOptions::default().mpk_tile, None);
    let o = SolveOptions::default().with_mpk_tile(Some(4096));
    assert_eq!(o.mpk_tile, Some(4096));

    let a = gen::poisson2d(24);
    let b = gen::poisson2d_rhs(24);
    let traced = |op: &dyn LinearOperator| {
        let tracer = Arc::new(Tracer::for_width(1));
        // explicit tile: the CSR kernel's auto heuristic may decline to
        // block a system this small
        let o = opts(1, Some(64)).with_tracer(Arc::clone(&tracer));
        let res = SStepCg::monomial(4).solve(op, &b, None, &o);
        let log = tracer.drain();
        let tiles = log
            .spans
            .iter()
            .filter(|(_, s)| s.kind == SpanKind::MpkTile)
            .count();
        (res, tiles)
    };
    let (mpk, mpk_tiles) = traced(&a);
    let (naive, naive_tiles) = traced(&NaivePowers(&a));
    assert!(
        mpk_tiles > 0,
        "default solve never reached the tiled kernel"
    );
    assert_eq!(naive_tiles, 0, "the oracle must build bases level by level");
    assert_trace_identical("sstep-monomial-4", &naive, &mpk, "traced");
}
