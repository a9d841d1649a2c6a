//! `solve-large`: one caller solving backward-Euler heat steps through the
//! library. `σI + L` on a 2048² grid, L the 5-point Laplacian assembled as
//! CSR by `gen::poisson2d`: one iteration reads 480 MiB of operator and
//! vectors, 4.6× the 105 MiB shared L3, so DRAM-bound kernels and Tree
//! reductions at width 2 do all the work and `vr-svc` does none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_linalg::{gen, CsrMatrix};
use vr_par::Team;

use crate::host::{self, Regime, WIDTH};
use crate::probes::{library_solve, shift_diagonal, tree_opts, LibSolve};
use crate::stats::{median, mix, tail, tail_note};
use crate::{Args, Metric, Report};

/// Mesh side: `GRID²` = 4.19 M unknowns.
pub const GRID: usize = 2048;
/// Backward-Euler shift `h²/Δt`.
const SIGMA: f64 = 4.0;
pub const TOL: f64 = 1e-8;
pub const MAX_ITERS: usize = 1000;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;
/// The window runs past `--seconds` until this many solves finished, so
/// the tail (ten samples beyond it) is never below the median.
const MIN_SOLVES: usize = 21;

/// Per-iteration bytes of standard CG: CSR values, column indices and
/// row pointers, plus `x`, `r`, `p` and `A·p`.
pub fn working_set_bytes(a: &CsrMatrix) -> usize {
    16 * a.nnz() + 8 * (a.nrows() + 1) + 32 * a.nrows()
}

/// `σI + L` on the `GRID²` mesh.
pub fn heat_operator() -> CsrMatrix {
    let mut a = gen::poisson2d(GRID);
    shift_diagonal(&mut a, SIGMA);
    a
}

pub fn rhs(seed: u64, k: u64) -> Vec<f64> {
    gen::rand_vector(GRID * GRID, mix(seed, k))
}

/// One standard-CG solve of `b`, certified by its true residual.
pub fn solve(a: &CsrMatrix, b: Vec<f64>, team: &Arc<Team>) -> Result<LibSolve, String> {
    library_solve(a, "standard", &[b], &tree_opts(TOL, MAX_ITERS, team), None)
}

/// Cold to ready: team start, operator assembly with the σ shift, and one
/// warm-up solve.
fn setup(seed: u64, k: u64) -> Result<(Arc<Team>, CsrMatrix, LibSolve, f64), String> {
    let t0 = Instant::now();
    let team = Arc::new(Team::new(WIDTH));
    let a = heat_operator();
    let warm = solve(&a, rhs(seed, k), &team)?;
    Ok((team, a, warm, t0.elapsed().as_secs_f64()))
}

/// Untraced run: set up `SETUPS` times, then solve seeded right-hand
/// sides back to back for `--seconds`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut ready = None;
    for k in 0..SETUPS as u64 {
        drop(ready.take());
        let (team, a, warm, s) = setup(args.seed, 1_000_000 + k)?;
        failures.extend(
            warm.uncertified()
                .map(|c| format!("warm-up solve {k}: {c}")),
        );
        setups.push(s);
        ready = Some((team, a));
    }
    let (team, a) = ready.expect("at least one set-up");
    let (mut latencies, mut iterations) = (Vec::new(), 0usize);
    let window = Duration::from_secs_f64(args.seconds);
    let regime = Regime::start();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < window || k < MIN_SOLVES {
        let s = solve(&a, rhs(args.seed, k as u64), &team)?;
        match s.uncertified() {
            Some(cause) => failures.push(format!("solve {k}: {cause}")),
            None => {
                latencies.push(1e3 * s.secs);
                iterations += s.iterations;
            }
        }
        k += 1;
    }
    let context = regime.finish();
    let (tail_ms, pct) = tail(&latencies)
        .ok_or_else(|| format!("fewer than eleven certified solves: {failures:?}"))?;
    let n = latencies.len();
    let solve_secs: f64 = latencies.iter().sum::<f64>() / 1e3;
    Ok(Report {
        title: format!(
            "solve-large seed {}: library, 1 caller, closed loop, width {WIDTH}, n={} (grid {GRID}, \
             nnz {}), {:.0} MiB per iteration, {:.1} iterations per solve",
            args.seed,
            a.nrows(),
            a.nnz(),
            working_set_bytes(&a) as f64 / 1048576.0,
            iterations as f64 / n as f64,
        ),
        attempted: SETUPS + k,
        failures,
        metrics: vec![
            Metric::new(
                "setup_s",
                median(&setups),
                "s",
                format!("(median of {SETUPS} set-ups: {setups:.3?})"),
            ),
            Metric::new(
                "solves_per_s",
                n as f64 / solve_secs,
                "1/s",
                format!("({n} solves in {solve_secs:.2} s of solving)"),
            ),
            Metric::new(
                "latency_p50_ms",
                median(&latencies),
                "ms",
                format!("(n={n} solves)"),
            ),
            Metric::new("latency_tail_ms", tail_ms, "ms", tail_note(pct, n)),
            Metric::new(
                "peak_rss_mib",
                host::peak_rss_mib("self")?,
                "MiB",
                "(this process, VmHWM)",
            ),
        ],
        context,
    })
}
