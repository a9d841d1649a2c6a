//! E23 — whole-iteration sweep fusion: one cache-resident pass per
//! CG iteration.
//!
//! E22 established that the fused per-kernel sweeps are pinned to the
//! memory wall: bytes per iteration is the metric, FLOPs are free. This
//! experiment measures the next rung — [`Execution::WholeIteration`]
//! executes an *entire* CG iteration as a handful of barrier epochs over
//! cache-resident row slices, so intermediate vectors (the stored `A·p`
//! stream above all) never round-trip through memory. The engine recomputes
//! the operator application inside the update epoch instead of storing it:
//! arithmetic goes up, traffic goes down, and at the memory wall that trade
//! is a win.
//!
//! Three parts:
//!
//! 1. **Execution shoot-out** — the four sweep-eligible variants {standard,
//!    overlap-k1, chronopoulos-gear, pipelined} on 2-D Poisson at
//!    N = 2^20, single thread, fixed iteration budget, `Fused` vs
//!    `WholeIteration`, reps interleaved across executions. One traced rep
//!    per cell harvests logical bytes/iteration (`IterSweep` spans for the
//!    sweep path, the per-kernel spans for the fused path) and must not
//!    perturb the untraced bits.
//! 2. **Headlines** (asserted outside `--smoke`): for standard CG at
//!    N = 2^20 the whole-iteration sweep moves ≤ 0.7× the measured
//!    bytes/iteration of `Execution::Fused` (the logical tally says
//!    72n vs 104n = 0.69×) and sustains ≥ 1.15× single-thread wall-clock
//!    iteration throughput.
//! 3. **Bit-identity** (asserted in smoke *and* full runs) — every
//!    eligible variant at thread widths {1, 4} and staging tiles
//!    {1, 3, L1-heuristic, whole-domain} produces bit-identical iterates,
//!    residual traces, and op tallies to the per-kernel fused path.

use std::sync::Arc;
use std::time::Instant;
use vr_bench::{write_json, Table};
use vr_cg::baselines::{ChronopoulosGearCg, PipelinedCg};
use vr_cg::overlap_k1::OverlapK1Cg;
use vr_cg::standard::StandardCg;
use vr_cg::{CgVariant, Execution, SolveOptions, Termination};
use vr_linalg::kernels::DotMode;
use vr_linalg::stencil::Stencil2d;
use vr_linalg::{gen, LinearOperator};
use vr_obs::Tracer;

vr_bench::jsonable! {
    struct PolicyRow {
    variant: String,
    n: usize,
    policy: String,
    iterations: usize,
    best_secs: f64,
    secs_per_iter: f64,
    bytes_per_iter: f64,
    bytes_vs_fused: f64,
    speedup_vs_fused: f64,
}
}

vr_bench::jsonable! {
    struct IdentityRow {
    variant: String,
    n: usize,
    threads: usize,
    tiles: String,
    iterations: usize,
    bit_identical: bool,
}
}

/// The four sweep-eligible variants, constructed as the registry does.
fn eligible_variants() -> Vec<(&'static str, Box<dyn CgVariant>)> {
    vec![
        (
            "standard",
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
        ),
        ("overlap-k1", Box::new(OverlapK1Cg::new().with_resync(20))),
        ("chronopoulos-gear", Box::new(ChronopoulosGearCg::new())),
        ("pipelined", Box::new(PipelinedCg::new())),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // --- part 1: Fused vs WholeIteration at N = 2^20, single thread ----
    let (grid, iters, reps) = if smoke { (64, 10, 1) } else { (1024, 40, 5) };
    let op = Stencil2d::poisson(grid);
    let n = grid * grid;
    let b = vec![1.0; n];
    // the sweep's eligibility envelope: Tree dots, no injector, recovery
    // or checksum — identical options on both sides except the execution
    let base = SolveOptions::default()
        .with_tol(0.0)
        .with_max_iters(iters)
        .with_dot_mode(DotMode::Tree)
        .with_threads(1);
    let policies = [
        ("fused", Execution::Fused),
        ("sweep", Execution::WholeIteration { tile: None }),
    ];
    println!("E23 — whole-iteration sweep fusion: 2-D Poisson {grid}x{grid} (N = {n}), 1 thread");
    let mut rows: Vec<PolicyRow> = Vec::new();
    let mut table = Table::new(&[
        "variant", "policy", "iters", "s/iter", "B/iter", "B-ratio", "speedup",
    ]);
    for (vname, solver) in eligible_variants() {
        // interleave reps across the two policies so machine noise hits
        // both arms of every ratio, not just whichever ran second
        let mut best = [f64::INFINITY; 2];
        let mut last: [Option<vr_cg::SolveResult>; 2] = [None, None];
        for _ in 0..reps {
            for (k, (_, policy)) in policies.iter().enumerate() {
                let opts = base.clone().with_execution(*policy);
                let t0 = Instant::now();
                let res = solver.solve(&op, &b, None, &opts);
                best[k] = best[k].min(t0.elapsed().as_secs_f64());
                last[k] = Some(res);
            }
        }
        let mut cell = [(0usize, 0.0f64, 0.0f64); 2]; // iters, s/iter, B/iter
        for (k, (pname, policy)) in policies.iter().enumerate() {
            let res = last[k].take().expect("reps >= 1");
            assert_eq!(
                res.termination,
                Termination::MaxIterations,
                "{vname}/{pname}: expected the full iteration budget"
            );
            // one traced rep harvests logical bytes/iteration; tracing
            // must observe, never perturb
            let tracer = Arc::new(Tracer::for_width(1));
            let opts = base
                .clone()
                .with_execution(*policy)
                .with_tracer(Arc::clone(&tracer));
            let traced = solver.solve(&op, &b, None, &opts);
            assert_eq!(
                traced.x, res.x,
                "{vname}/{pname}: traced solve diverged from untraced"
            );
            let report = vr_obs::critpath::attribute(&tracer.drain());
            assert_eq!(report.dropped, 0, "tracer ring wrapped — size capacity up");
            let bytes_per_iter = report.total_bytes() as f64 / res.iterations as f64;
            cell[k] = (
                res.iterations,
                best[k] / res.iterations as f64,
                bytes_per_iter,
            );
        }
        let (fused_spi, fused_bpi) = (cell[0].1, cell[0].2);
        for (k, (pname, _)) in policies.iter().enumerate() {
            let (it, spi, bpi) = cell[k];
            let bytes_ratio = bpi / fused_bpi;
            let speedup = fused_spi / spi;
            table.row(&[
                vname.into(),
                (*pname).into(),
                it.to_string(),
                format!("{spi:.3e}"),
                format!("{bpi:.3e}"),
                format!("{bytes_ratio:.3}"),
                format!("{speedup:.2}x"),
            ]);
            rows.push(PolicyRow {
                variant: vname.into(),
                n,
                policy: (*pname).into(),
                iterations: it,
                best_secs: spi * it as f64,
                secs_per_iter: spi,
                bytes_per_iter: bpi,
                bytes_vs_fused: bytes_ratio,
                speedup_vs_fused: speedup,
            });
        }
    }
    println!("{}", table.render());

    // --- part 2: headlines ---------------------------------------------
    let mut headline_bytes = f64::NAN;
    let mut headline_speedup = f64::NAN;
    if !smoke {
        assert!(n == 1 << 20, "headline must run at N = 2^20");
        let pick = |policy: &str| {
            rows.iter()
                .find(|r| r.variant == "standard" && r.policy == policy)
                .expect("headline row")
        };
        let (fused, sweep) = (pick("fused"), pick("sweep"));
        headline_bytes = sweep.bytes_per_iter / fused.bytes_per_iter;
        headline_speedup = fused.secs_per_iter / sweep.secs_per_iter;
        println!(
            "headline: standard CG at N = 2^20: fused moves {:.3e} B/iter, whole-iteration \
             sweep {:.3e} B/iter (ratio {:.3}) at {:.2}x iteration throughput",
            fused.bytes_per_iter, sweep.bytes_per_iter, headline_bytes, headline_speedup
        );
        assert!(
            headline_bytes <= 0.7,
            "headline regression: sweep moves {headline_bytes:.3}x the bytes of fused (need <= 0.7x)"
        );
        assert!(
            headline_speedup >= 1.15,
            "headline regression: sweep is only {headline_speedup:.2}x fused throughput (need >= 1.15x)"
        );
    } else {
        println!("(--smoke: tiny sizes, headline assertions skipped)");
    }

    // --- part 3: bit-identity across tiles and widths -------------------
    // sized so the fixed 256-leaf chunk layout cuts grid rows mid-way
    let ia = gen::poisson2d(33);
    let ib = gen::poisson2d_rhs(33);
    let id_n = ia.dim();
    let mut identity_rows: Vec<IdentityRow> = Vec::new();
    for (vname, solver) in eligible_variants() {
        for threads in [1usize, 4] {
            let mut opts = SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(400)
                .with_dot_mode(DotMode::Tree)
                .with_threads(threads);
            opts.record_residuals = true;
            let fused = solver.solve(&ia, &ib, None, &opts);
            assert!(fused.converged, "{vname}: {:?}", fused.termination);
            let tiles = [Some(1), Some(3), None, Some(id_n)];
            let mut identical = true;
            for tile in tiles {
                let sopts = opts
                    .clone()
                    .with_execution(Execution::WholeIteration { tile });
                let sweep = solver.solve(&ia, &ib, None, &sopts);
                identical &= sweep.x == fused.x
                    && sweep.residual_norms == fused.residual_norms
                    && sweep.iterations == fused.iterations
                    && sweep.counts == fused.counts;
            }
            assert!(
                identical,
                "{vname}/threads={threads}: the sweep changed the bits"
            );
            identity_rows.push(IdentityRow {
                variant: vname.into(),
                n: id_n,
                threads,
                tiles: "1,3,l1,whole".into(),
                iterations: fused.iterations,
                bit_identical: identical,
            });
        }
    }
    println!(
        "bit-identity: {} variant/width cells identical across staging tiles {{1, 3, l1, whole}}",
        identity_rows.len()
    );

    write_json(
        "BENCH_sweep",
        &vr_bench::json::envelope(
            "e23_sweep_fusion",
            smoke,
            &[
                (
                    "config",
                    vr_bench::json!({
                        "grid": grid,
                        "n": n,
                        "iters": iters,
                        "reps": reps,
                        "threads": 1,
                    }),
                ),
                ("policy_rows", vr_bench::json!(rows)),
                ("identity_rows", vr_bench::json!(identity_rows)),
                (
                    "headlines",
                    vr_bench::json!({
                        "sweep_bytes_ratio": headline_bytes,
                        "sweep_speedup": headline_speedup,
                    }),
                ),
            ],
        ),
    );
}
