//! E16 — extension: fused single-pass kernels and iteration throughput.
//!
//! The paper removes inner-product *latency* from the critical path; this
//! experiment measures the complementary sequential cost: memory traffic.
//! Standard CG touches its vectors in six separate sweeps per iteration
//! (matvec, (p,Ap), two axpys, (r,r), direction update); the
//! `Execution::Fused` kernels collapse those to three on a matrix-free
//! stencil — `apply_dot` evaluates the stencil and accumulates (p,Ap) in
//! one branch-free row sweep, and the fused `update_xr` kernel applies
//! both vector updates and the (r,r) reduction in a second single pass. The
//! scalar iterates are bit-identical by construction (the differential
//! suite enforces this), so the comparison is pure throughput.
//!
//! Sweep: grid size × variant × execution {`Reference`, `Fused`}, fixed
//! iteration budget, min-of-reps wall clock. Headline (asserted outside
//! `--smoke`): on the 2-D Poisson stencil at N ≥ 1e6, fused standard CG
//! sustains ≥ 1.3× the single-thread iteration throughput of the
//! reference kernels.

use std::time::Instant;
use vr_bench::{write_json, Table};
use vr_cg::baselines::{ChronopoulosGearCg, PipelinedCg};
use vr_cg::standard::StandardCg;
use vr_cg::{CgVariant, Execution, SolveOptions};
use vr_linalg::stencil::Stencil2d;

vr_bench::jsonable! {
    struct Row {
    grid: usize,
    n: usize,
    variant: String,
    policy: String,
    iterations: usize,
    best_secs: f64,
    secs_per_iter: f64,
    iters_per_sec: f64,
    fused_ops: usize,
    speedup_vs_reference: f64,
}
}

fn variants() -> Vec<(&'static str, Box<dyn CgVariant>)> {
    vec![
        (
            "standard",
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
        ),
        ("chronopoulos-gear", Box::new(ChronopoulosGearCg::new())),
        ("pipelined", Box::new(PipelinedCg::new())),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // fixed iteration budget (tol 0 never triggers), so both policies do
    // exactly the same logical work and wall clock divides cleanly
    let (grids, iters, reps): (&[usize], usize, usize) = if smoke {
        (&[48, 64], 10, 1)
    } else {
        (&[256, 512, 1024], 50, 5)
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(&[
        "grid", "N", "variant", "policy", "iters", "best s", "s/iter", "iter/s", "speedup",
    ]);

    for &g in grids {
        let op = Stencil2d::poisson(g);
        let n = g * g;
        let b = vec![1.0; n];
        for (vname, solver) in variants() {
            // interleave the reps across policies so transient machine noise
            // (frequency shifts, noisy neighbors) hits both sides of the
            // ratio, not just whichever happened to run second
            let policies = [
                (Execution::Reference, "reference"),
                (Execution::Fused, "fused"),
            ];
            let mut best = [f64::INFINITY; 2];
            let mut last = [None, None];
            for _ in 0..reps {
                for (k, &(execution, _)) in policies.iter().enumerate() {
                    let opts = SolveOptions::default()
                        .with_tol(0.0)
                        .with_max_iters(iters)
                        .with_execution(execution);
                    let t0 = Instant::now();
                    let res = solver.solve(&op, &b, None, &opts);
                    best[k] = best[k].min(t0.elapsed().as_secs_f64());
                    last[k] = Some(res);
                }
            }
            let mut ref_spi = f64::NAN;
            for (k, (_, plabel)) in policies.into_iter().enumerate() {
                let best = best[k];
                let res = last[k].take().expect("reps >= 1");
                assert!(
                    res.iterations == iters,
                    "{vname}/{plabel} grid {g}: expected {iters} iterations, ran {}",
                    res.iterations
                );
                let spi = best / res.iterations as f64;
                // the reference row comes first and is the ratio's base
                let speedup = if k == 0 {
                    ref_spi = spi;
                    1.0
                } else {
                    ref_spi / spi
                };
                table.row(&[
                    g.to_string(),
                    n.to_string(),
                    vname.into(),
                    plabel.into(),
                    res.iterations.to_string(),
                    format!("{best:.4}"),
                    format!("{spi:.3e}"),
                    format!("{:.1}", 1.0 / spi),
                    format!("{speedup:.2}x"),
                ]);
                rows.push(Row {
                    grid: g,
                    n,
                    variant: vname.into(),
                    policy: plabel.into(),
                    iterations: res.iterations,
                    best_secs: best,
                    secs_per_iter: spi,
                    iters_per_sec: 1.0 / spi,
                    fused_ops: res.counts.fused_ops,
                    speedup_vs_reference: speedup,
                });
            }
        }
    }

    println!("E16 — fused single-pass kernels (2-D Poisson stencil, single thread)");
    println!("{}", table.render());

    // --- headline: ≥ 1.3× fused standard-CG throughput at N ≥ 1e6 ---
    if !smoke {
        let big = *grids.last().unwrap();
        assert!(big * big >= 1_000_000, "headline grid must reach N >= 1e6");
        let head = rows
            .iter()
            .find(|r| r.grid == big && r.variant == "standard" && r.policy == "fused")
            .expect("headline row");
        println!(
            "headline: standard CG, N = {}: fused = {:.2}x reference throughput",
            head.n, head.speedup_vs_reference
        );
        assert!(
            head.speedup_vs_reference >= 1.3,
            "headline regression: fused standard CG at N = {} is only {:.2}x reference (need >= 1.3x)",
            head.n,
            head.speedup_vs_reference
        );
    } else {
        println!("(--smoke: tiny grids, headline assertion skipped)");
    }

    write_json(
        "BENCH_fused",
        &vr_bench::json::envelope(
            "e16_fused_kernels",
            smoke,
            &[("rows", vr_bench::json!(rows))],
        ),
    );
}
