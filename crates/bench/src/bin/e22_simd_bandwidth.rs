//! E22 — SIMD lanes, mixed precision, and the memory wall.
//!
//! E17 showed thread scaling flattening out: the fused sweeps are
//! memory-bandwidth-bound, so the next factor must come from within a
//! core. This experiment measures the two in-core levers this repo adds —
//! explicit SIMD lanes (pinned with [`simd::with_level`]) and f32 working vectors with f64
//! guard arithmetic ([`Execution::Mixed`]) — against a STREAM-triad-style
//! roofline measured on the same host, using the `vr_obs` bytes-moved
//! counter to report every configuration as a *fraction of measured host
//! streaming bandwidth per iteration* (the 2205.08909 framing: bytes per
//! iteration is the primary metric, FLOPs are free).
//!
//! Four parts:
//!
//! 1. **Roofline** — best-of-reps STREAM triad (`w = x + s·y`, via the
//!    repo's own `leaf_waxpby` with non-temporal stores) over arrays far
//!    past L2, counted at the STREAM convention of 24 B/element.
//! 2. **Sweep kernels** — the fused standard-CG sweeps (`update_xr`,
//!    `axpy_dot`, `dot`) at N = 2^20, scalar vs the vector level
//!    [`simd::auto_level`], single thread, reps interleaved across
//!    levels. Headline (asserted outside `--smoke`): the best fused
//!    sweep sustains ≥ 1.2× scalar throughput (the dot-carrying sweeps
//!    in practice; the rmw-heavy `update_xr` is store-bound).
//! 3. **Whole solves** — grid × variant {standard, overlap-k1, pipelined}
//!    × lanes {scalar, auto} × execution {Fused, Mixed}, fixed
//!    iteration budget, fused kernels, one traced rep per cell harvesting
//!    logical bytes/iteration from the tracer. Headline: mixed precision
//!    moves measurably fewer bytes per iteration than f64 (≤ 0.75×) on
//!    standard CG at the largest grid, reported as a fraction of the
//!    measured triad bandwidth.
//! 4. **Bit-identity** — every registry variant solved under
//!    `DotMode::Tree` at lane widths 1 (scalar) and 4 (AVX2, where the
//!    host has it): iterates and residual traces must be bit-for-bit
//!    identical (asserted in smoke *and* full runs — the lane-blocked
//!    reduction layout makes lane width unobservable).

use std::sync::Arc;
use std::time::Instant;
use vr_bench::{write_json, Table};
use vr_cg::baselines::PipelinedCg;
use vr_cg::overlap_k1::OverlapK1Cg;
use vr_cg::standard::StandardCg;
use vr_cg::{registry, CgVariant, Execution, SolveOptions, Termination};
use vr_linalg::gen;
use vr_linalg::kernels::DotMode;
use vr_linalg::stencil::Stencil2d;
use vr_linalg::LinearOperator;
use vr_obs::Tracer;
use vr_par::simd::{self, SimdLevel};

vr_bench::jsonable! {
    struct SweepRow {
    kernel: String,
    n: usize,
    level: String,
    bytes_per_elem: usize,
    best_secs: f64,
    gbps: f64,
    speedup_vs_scalar: f64,
}
}

vr_bench::jsonable! {
    struct SolveRow {
    grid: usize,
    n: usize,
    variant: String,
    simd: String,
    precision: String,
    iterations: usize,
    best_secs: f64,
    secs_per_iter: f64,
    bytes_per_iter: f64,
    logical_gbps: f64,
    frac_of_triad: f64,
}
}

vr_bench::jsonable! {
    struct IdentityRow {
    variant: String,
    n: usize,
    iterations: usize,
    levels: String,
    bit_identical: bool,
}
}

/// Best-of-reps STREAM triad bandwidth in GB/s (24 B/element, the STREAM
/// convention: two read streams + one write stream, write-allocate not
/// counted). Uses the repo's own `leaf_waxpby` with non-temporal stores at
/// the ambient (widest) SIMD level — this is the bandwidth every solve row
/// is normalized against.
fn triad_gbps(n: usize, reps: usize) -> f64 {
    let x = vec![1.000001f64; n];
    let y = vec![0.999999f64; n];
    let mut w = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        simd::leaf_waxpby(1.0, &x, 3.0, &y, &mut w, true);
        simd::nt_fence();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&w);
    }
    24.0 * n as f64 / best / 1e9
}

/// Time one fused sweep kernel at each level, returning best-of-reps
/// seconds per level. Reps are interleaved across levels so transient
/// machine noise (frequency shifts, noisy neighbors) hits both sides of
/// the ratio, not just whichever ran second.
fn sweep_secs(kernel: &str, levels: &[SimdLevel], n: usize, reps: usize) -> Vec<f64> {
    let p = vec![1.000001f64; n];
    let w = vec![0.999999f64; n];
    let mut x = vec![0.0f64; n];
    let mut r = vec![1.0f64; n];
    let mut best = vec![f64::INFINITY; levels.len()];
    for _ in 0..reps {
        for (k, &level) in levels.iter().enumerate() {
            simd::with_level(level, || {
                let t0 = Instant::now();
                let s = match kernel {
                    "update_xr" => simd::leaf_update_xr(1e-6, &p, &w, &mut x, &mut r),
                    "axpy_dot" => simd::leaf_axpy_dot(1e-6, &p, &mut r, &w),
                    "dot" => simd::leaf_dot(&p, &w),
                    _ => unreachable!("unknown kernel {kernel}"),
                };
                std::hint::black_box(s);
                best[k] = best[k].min(t0.elapsed().as_secs_f64());
            });
        }
    }
    best
}

fn eligible_variants() -> Vec<(&'static str, Box<dyn CgVariant>)> {
    vec![
        (
            "standard",
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
        ),
        ("overlap-k1", Box::new(OverlapK1Cg::new())),
        ("pipelined", Box::new(PipelinedCg::new())),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // --- part 1: roofline ---------------------------------------------
    let (triad_n, triad_reps) = if smoke { (1 << 19, 2) } else { (1 << 23, 7) };
    let triad = triad_gbps(triad_n, triad_reps);
    println!(
        "E22 — roofline: STREAM triad (leaf_waxpby nt, {} MiB/array) = {triad:.2} GB/s",
        triad_n * 8 / (1 << 20)
    );
    println!("      simd level: ambient = {}", simd::current().name());

    // --- part 2: fused sweep kernels, scalar vs simd ------------------
    let (sweep_n, sweep_reps) = if smoke { (1 << 16, 3) } else { (1 << 20, 30) };
    // the vector arm is auto_level(), i.e. AVX2 on x86 hosts
    let vector_level = simd::auto_level();
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    let mut sweep_table = Table::new(&["kernel", "N", "level", "B/elem", "GB/s", "speedup"]);
    for (kernel, bpe) in [("update_xr", 48usize), ("axpy_dot", 32), ("dot", 16)] {
        let levels = [SimdLevel::Scalar, vector_level];
        let bests = sweep_secs(kernel, &levels, sweep_n, sweep_reps);
        let scalar_secs = bests[0];
        for (level, best) in levels.into_iter().zip(bests) {
            let speedup = scalar_secs / best;
            let gbps = bpe as f64 * sweep_n as f64 / best / 1e9;
            sweep_table.row(&[
                kernel.into(),
                sweep_n.to_string(),
                level.name().into(),
                bpe.to_string(),
                format!("{gbps:.2}"),
                format!("{speedup:.2}x"),
            ]);
            sweep_rows.push(SweepRow {
                kernel: kernel.into(),
                n: sweep_n,
                level: level.name().into(),
                bytes_per_elem: bpe,
                best_secs: best,
                gbps,
                speedup_vs_scalar: speedup,
            });
        }
    }
    println!("{}", sweep_table.render());

    // --- part 3: whole solves, simd × precision ------------------------
    let (grids, iters, reps): (&[usize], usize, usize) = if smoke {
        (&[48, 64], 10, 1)
    } else {
        (&[256, 512, 1024], 40, 3)
    };
    // lanes are pinned on the solve thread with `simd::with_level`
    let configs: [(SimdLevel, Execution, &str, &str); 4] = [
        (SimdLevel::Scalar, Execution::Fused, "scalar", "f64"),
        (vector_level, Execution::Fused, "simd", "f64"),
        (SimdLevel::Scalar, Execution::Mixed, "scalar", "mixed"),
        (vector_level, Execution::Mixed, "simd", "mixed"),
    ];
    let mut solve_rows: Vec<SolveRow> = Vec::new();
    let mut solve_table = Table::new(&[
        "grid", "variant", "simd", "prec", "iters", "s/iter", "B/iter", "GB/s", "of-triad",
    ]);
    for &g in grids {
        let op = Stencil2d::poisson(g);
        let n = g * g;
        let b = vec![1.0; n];
        for (vname, solver) in eligible_variants() {
            // interleave reps across the four configs so machine noise hits
            // every arm of the comparison, not just whichever ran last
            let mut best = [f64::INFINITY; 4];
            let mut last: [Option<vr_cg::SolveResult>; 4] = [None, None, None, None];
            let opts_for = |&(_, execution, _, _): &(SimdLevel, Execution, &str, &str)| {
                SolveOptions::default()
                    .with_tol(0.0)
                    .with_max_iters(iters)
                    .with_execution(execution)
            };
            for _ in 0..reps {
                for (k, cfg) in configs.iter().enumerate() {
                    let t0 = Instant::now();
                    let res =
                        simd::with_level(cfg.0, || solver.solve(&op, &b, None, &opts_for(cfg)));
                    best[k] = best[k].min(t0.elapsed().as_secs_f64());
                    last[k] = Some(res);
                }
            }
            for (k, cfg) in configs.iter().enumerate() {
                let res = last[k].take().expect("reps >= 1");
                assert_eq!(
                    res.termination,
                    Termination::MaxIterations,
                    "{vname}/{}/{} grid {g}: expected the full iteration budget",
                    cfg.2,
                    cfg.3
                );
                // one traced rep harvests logical bytes/iteration; tracing
                // must observe, never perturb
                let tracer = Arc::new(Tracer::for_width(1));
                let traced = simd::with_level(cfg.0, || {
                    solver.solve(
                        &op,
                        &b,
                        None,
                        &opts_for(cfg).with_tracer(Arc::clone(&tracer)),
                    )
                });
                assert_eq!(
                    traced.x, res.x,
                    "{vname}/{}/{} grid {g}: traced solve diverged from untraced",
                    cfg.2, cfg.3
                );
                let report = vr_obs::critpath::attribute(&tracer.drain());
                assert_eq!(report.dropped, 0, "tracer ring wrapped — size capacity up");
                let bytes_per_iter = report.total_bytes() as f64 / res.iterations as f64;
                let spi = best[k] / res.iterations as f64;
                let gbps = bytes_per_iter / spi / 1e9;
                let frac = gbps / triad;
                solve_table.row(&[
                    g.to_string(),
                    vname.into(),
                    cfg.2.into(),
                    cfg.3.into(),
                    res.iterations.to_string(),
                    format!("{spi:.3e}"),
                    format!("{bytes_per_iter:.3e}"),
                    format!("{gbps:.2}"),
                    format!("{:.2}", frac),
                ]);
                solve_rows.push(SolveRow {
                    grid: g,
                    n,
                    variant: vname.into(),
                    simd: cfg.2.into(),
                    precision: cfg.3.into(),
                    iterations: res.iterations,
                    best_secs: best[k],
                    secs_per_iter: spi,
                    bytes_per_iter,
                    logical_gbps: gbps,
                    frac_of_triad: frac,
                });
            }
        }
    }
    println!("{}", solve_table.render());

    // --- part 4: lane-width bit-identity across the registry -----------
    let a = gen::poisson2d(if smoke { 12 } else { 24 });
    let bb = gen::poisson2d_rhs(if smoke { 12 } else { 24 });
    let id_opts = SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(400)
        .with_dot_mode(DotMode::Tree);
    let mut identity_rows: Vec<IdentityRow> = Vec::new();
    for (key, solver) in registry::keyed_variants(&a) {
        // width 1: pinned scalar on the solve thread
        let base = simd::with_level(SimdLevel::Scalar, || solver.solve(&a, &bb, None, &id_opts));
        let mut levels = vec!["scalar".to_string()];
        let mut identical = true;
        // width 4: AVX2, where the host has it
        if simd::available(SimdLevel::Avx2) {
            levels.push(SimdLevel::Avx2.name().to_string());
            let res = simd::with_level(SimdLevel::Avx2, || solver.solve(&a, &bb, None, &id_opts));
            identical &= res.x == base.x && res.residual_norms == base.residual_norms;
        }
        assert!(
            identical,
            "{key}: lane width changed the bits under DotMode::Tree"
        );
        identity_rows.push(IdentityRow {
            variant: key.into(),
            n: a.dim(),
            iterations: base.iterations,
            levels: levels.join(","),
            bit_identical: identical,
        });
    }
    println!(
        "bit-identity: {} registry variants identical across lane widths {{{}}}",
        identity_rows.len(),
        identity_rows[0].levels
    );

    // --- headlines ------------------------------------------------------
    let mut headline_sweep = f64::NAN;
    let mut headline_bytes_ratio = f64::NAN;
    if !smoke {
        assert!(sweep_n == 1 << 20, "headline sweep must run at N = 2^20");
        // headline = the best of the three fused-sweep speedups: on this
        // class of host the rmw-heavy update_xr is store-bound (~1.15x)
        // while the dot-carrying sweeps sustain ~1.25x; all three rows are
        // reported, the assertion tracks the strongest
        let head = sweep_rows
            .iter()
            .filter(|r| r.level != "scalar")
            .max_by(|a, b| a.speedup_vs_scalar.total_cmp(&b.speedup_vs_scalar))
            .expect("headline sweep row");
        headline_sweep = head.speedup_vs_scalar;
        println!(
            "headline: best fused CG sweep ({}) at N = 2^20: simd = {headline_sweep:.2}x scalar",
            head.kernel
        );
        assert!(
            headline_sweep >= 1.2,
            "headline regression: best simd fused sweep at N = 2^20 is only {headline_sweep:.2}x scalar (need >= 1.2x)"
        );

        let big = *grids.last().unwrap();
        let pick = |prec: &str| {
            solve_rows
                .iter()
                .find(|r| {
                    r.grid == big
                        && r.variant == "standard"
                        && r.simd == "simd"
                        && r.precision == prec
                })
                .expect("headline solve row")
        };
        let f64_row = pick("f64");
        let mixed_row = pick("mixed");
        headline_bytes_ratio = mixed_row.bytes_per_iter / f64_row.bytes_per_iter;
        println!(
            "headline: standard CG at N = {}: f64 moves {:.3e} B/iter ({:.2} of triad bw), \
             mixed {:.3e} B/iter ({:.2} of triad bw) — ratio {:.2}",
            f64_row.n,
            f64_row.bytes_per_iter,
            f64_row.frac_of_triad,
            mixed_row.bytes_per_iter,
            mixed_row.frac_of_triad,
            headline_bytes_ratio
        );
        assert!(
            headline_bytes_ratio <= 0.75,
            "headline regression: mixed moves {headline_bytes_ratio:.2}x the bytes of f64 (need <= 0.75x)"
        );
    } else {
        println!("(--smoke: tiny sizes, headline assertions skipped)");
    }

    write_json(
        "BENCH_simd",
        &vr_bench::json::envelope(
            "e22_simd_bandwidth",
            smoke,
            &[
                (
                    "roofline",
                    vr_bench::json!({
                        "triad_gbps": triad,
                        "triad_elems": triad_n,
                        "ambient_level": simd::current().name(),
                    }),
                ),
                ("sweep_rows", vr_bench::json!(sweep_rows)),
                ("solve_rows", vr_bench::json!(solve_rows)),
                ("identity_rows", vr_bench::json!(identity_rows)),
                (
                    "headlines",
                    vr_bench::json!({
                        "simd_sweep_speedup": headline_sweep,
                        "mixed_bytes_ratio": headline_bytes_ratio,
                    }),
                ),
            ],
        ),
    );
}
