//! E18 — extension: cache-blocked matrix-powers kernel (MPK).
//!
//! s-step CG builds its block Krylov basis `[r, Ar, …, A^{s−1}r]` with `s`
//! operator applications. Done column by column (the `naive` engine,
//! [`mpk::naive_powers`], reached here through the [`mpk::NaivePowers`]
//! oracle operator), each application streams the whole vector through
//! memory — `s` full passes of traffic for data that is touched `s` times.
//! The stencil's own `mpk` engine (its `matrix_powers` override, which
//! every solver calls) blocks the sweep into tiles sized to the L2 working
//! set and computes all `s` levels of a tile before moving on, recomputing
//! ghost zones redundantly so the result is **bit-identical** to the naive
//! engine (the sixth-wave property tests and `tests/basis_engine.rs`
//! enforce this; this binary re-asserts it on every measured
//! configuration).
//!
//! Sweep: grid × s ∈ {2,4,8} × basis kind × engine × team width, fixed
//! repetition count, interleaved min-of-reps wall clock. Headlines
//! (asserted outside `--smoke`):
//!
//! * single-thread MPK basis build at N = 2²⁰ (1024² Poisson stencil),
//!   s = 8, Newton basis sustains ≥ 1.4× the naive build throughput (the
//!   Newton/Chebyshev recurrences are where blocking pays most — naive
//!   needs a separate full-vector transform pass per level — and Newton is
//!   the basis s-step actually runs at s = 8, where the monomial basis is
//!   numerically dead per E9/E11);
//! * (host_cpus ≥ 4 only) the width-4 team MPK build at the same point
//!   sustains ≥ 2.0× the width-1 MPK throughput.

use std::time::Instant;
use vr_bench::{write_json, Table};
use vr_cg::sstep::basis::{self, BasisKind, BasisParams, KrylovBasis};
use vr_cg::OpCounts;
use vr_linalg::mpk::{self, MpkWorkspace, NaivePowers};
use vr_linalg::stencil::Stencil2d;
use vr_linalg::LinearOperator;
use vr_par::team::{Team, GRAIN};

vr_bench::jsonable! {
    struct Row {
    grid: usize,
    n: usize,
    s: usize,
    basis: String,
    engine: String,
    threads: usize,
    tile_rows: usize,
    best_secs: f64,
    secs_per_build: f64,
    builds_per_sec: f64,
    speedup_vs_naive: f64,
}
}

const KINDS: [BasisKind; 3] = [BasisKind::Monomial, BasisKind::Newton, BasisKind::Chebyshev];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism().map_or(1, |v| v.get());
    let (grids, svals, widths, reps): (&[usize], &[usize], &[usize], usize) = if smoke {
        (&[48, 64], &[2, 4], &[1], 1)
    } else {
        (&[256, 1024], &[2, 4, 8], &[1, 2, 4], 5)
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(&[
        "grid", "N", "s", "basis", "engine", "threads", "tile", "best s", "s/build", "speedup",
    ]);

    for &g in grids {
        let op = Stencil2d::poisson(g);
        let naive_op = NaivePowers(&op);
        // the two engines, as the operators that select them
        let engines: [&dyn LinearOperator; 2] = [&naive_op, &op];
        let n = g * g;
        let r = vr_linalg::gen::rand_vector(n, 42);
        for &s in svals {
            for kind in KINDS {
                let mut counts = OpCounts::default();
                let params = BasisParams::estimate(kind, &op, s, &mut counts);
                for &threads in widths {
                    let team = (threads > 1).then(|| Team::new(threads));
                    let mut best = [f64::INFINITY; 2];
                    let mut out = [KrylovBasis::default(), KrylovBasis::default()];
                    let mut ws = MpkWorkspace::new();
                    // one untimed warm-up per engine sizes every workspace,
                    // then reps interleave across engines so machine noise
                    // hits both
                    for (e, &engine) in engines.iter().enumerate() {
                        basis::build_into(
                            engine,
                            &r,
                            s,
                            &params,
                            team.as_ref(),
                            None,
                            &mut ws,
                            &mut out[e],
                            &mut counts,
                        );
                    }
                    for _ in 0..reps {
                        for (e, &engine) in engines.iter().enumerate() {
                            let t0 = Instant::now();
                            basis::build_into(
                                engine,
                                &r,
                                s,
                                &params,
                                team.as_ref(),
                                None,
                                &mut ws,
                                &mut out[e],
                                &mut counts,
                            );
                            best[e] = best[e].min(t0.elapsed().as_secs_f64());
                        }
                    }
                    // the engines' entire reason to coexist: same bits
                    for l in 0..s {
                        assert_eq!(
                            out[0].v[l], out[1].v[l],
                            "grid {g} s={s} {kind:?} threads={threads}: v[{l}] diverged"
                        );
                        assert_eq!(
                            out[0].av[l], out[1].av[l],
                            "grid {g} s={s} {kind:?} threads={threads}: av[{l}] diverged"
                        );
                    }
                    let tile = mpk::default_tile_rows(g, s);
                    for (e, engine) in ["naive", "mpk"].iter().enumerate() {
                        let spb = best[e];
                        let speedup = best[0] / spb;
                        table.row(&[
                            g.to_string(),
                            n.to_string(),
                            s.to_string(),
                            kind.label().into(),
                            (*engine).into(),
                            threads.to_string(),
                            if e == 1 { tile.to_string() } else { "-".into() },
                            format!("{spb:.4}"),
                            format!("{spb:.3e}"),
                            format!("{speedup:.2}x"),
                        ]);
                        rows.push(Row {
                            grid: g,
                            n,
                            s,
                            basis: kind.label().into(),
                            engine: (*engine).to_string(),
                            threads,
                            tile_rows: if e == 1 { tile } else { 0 },
                            best_secs: spb,
                            secs_per_build: spb,
                            builds_per_sec: 1.0 / spb,
                            speedup_vs_naive: speedup,
                        });
                    }
                }
            }
        }
    }

    println!("E18 — cache-blocked matrix-powers kernel (2-D Poisson stencil basis build)");
    println!(
        "(host CPUs: {host_cpus}, dispatch grain: {GRAIN}, L2 budget: {} KiB)",
        mpk::mpk_l2_budget_bytes() >> 10
    );
    println!("{}", table.render());

    if smoke {
        println!("(--smoke: tiny grids, headline assertions skipped)");
    } else {
        let big = *grids.last().unwrap();
        assert!(big * big >= 1 << 20, "headline grid must reach N = 2^20");
        let spb = |basis: &str, engine: &str, threads: usize| {
            rows.iter()
                .find(|r| {
                    r.grid == big
                        && r.s == 8
                        && r.basis == basis
                        && r.engine == engine
                        && r.threads == threads
                })
                .expect("headline row")
                .secs_per_build
        };
        let naive1 = spb("newton", "naive", 1);
        let mpk1 = spb("newton", "mpk", 1);
        println!(
            "headline: newton basis, N = {}, s = 8, single thread: MPK = {:.2}x naive",
            big * big,
            naive1 / mpk1
        );
        println!(
            "          (monomial at the same point: {:.2}x)",
            spb("monomial", "naive", 1) / spb("monomial", "mpk", 1)
        );
        assert!(
            naive1 / mpk1 >= 1.4,
            "headline regression: single-thread MPK Newton basis build at N = 2^20, s = 8 is \
             only {:.2}x naive (need >= 1.4x)",
            naive1 / mpk1
        );
        if host_cpus < 4 {
            println!("(host has {host_cpus} CPUs: width-4 team headline not measurable, skipped)");
        } else {
            let mpk4 = spb("newton", "mpk", 4);
            println!(
                "headline: width-4 team MPK build = {:.2}x width-1 MPK",
                mpk1 / mpk4
            );
            assert!(
                mpk1 / mpk4 >= 2.0,
                "headline regression: width-4 MPK build is only {:.2}x width-1 (need >= 2.0x)",
                mpk1 / mpk4
            );
        }
    }

    write_json(
        "BENCH_mpk",
        &vr_bench::json::envelope(
            "e18_matrix_powers",
            smoke,
            &[("rows", vr_bench::json!(rows))],
        ),
    );
}
