//! Loop-protocol golden files: every solve loop under every protocol path.
//!
//! `golden_trace.rs` pins the default-option residual norms of the
//! registry variants. This suite pins what the loop *around* each
//! recurrence does — set-up tallies, the loop top (progress stream,
//! cancellation, checkpoint saves), rollback, restarts, the exit rules,
//! the mixed-precision twins, and the whole-iteration sweep — for every
//! solve loop in `vr-cg`: the registry variants, block CG with two
//! columns, Chebyshev iteration, conjugate residual, and overlapped CR.
//!
//! Each loop runs under each configuration of [`CONFIGS`]; the rendered
//! block records iterations, termination, the residual-norm bits, a hash of
//! the bits of `x`, every `OpCounts` and `RecoveryStats` field, and the
//! `(iter, value)` progress stream. One file per loop lives under
//! `tests/golden/protocol/`.
//!
//! The `floor` rows solve the E21 floor problem at tol 1e-12, just below
//! the attainable floor of most recurrences: they pin the driver's
//! certification ladder at work — refuted convergence claims that warm
//! restart and converge a few iterations later, restarts that stop at the
//! floor, and the exit measurement that makes `final_residual` the true
//! residual of the returned iterate.
//!
//! When an *intentional* behaviour change lands, regenerate with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test golden_protocol
//! ```
//!
//! and review the diff of `tests/golden/protocol/` like any other change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cg_lookahead::cg::baselines::{ChebyshevIteration, ConjugateResidual, OverlapCr};
use cg_lookahead::cg::block::BlockCg;
use cg_lookahead::cg::registry::{keyed_variants, VARIANT_COUNT};
use cg_lookahead::cg::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
use cg_lookahead::cg::{CgVariant, Execution, SolveOptions};
use cg_lookahead::linalg::kernels::DotMode;
use cg_lookahead::linalg::{gen, CsrMatrix};
use cg_lookahead::par::Team;

/// Every protocol configuration, in file order.
const CONFIGS: [&str; 9] = [
    "default",
    "tree_team2",
    "warm_start",
    "max_iters_3",
    "cancel_at_5",
    "nan_faults_checkpointed",
    "floor_1e-12",
    "mixed",
    "sweep",
];

/// Iteration at which the progress hook raises the cancel flag.
const CANCEL_AT: usize = 5;

/// The recorded progress stream: `(iter, value bits)` per callback.
type Stream = Arc<Mutex<Vec<(usize, u64)>>>;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("protocol")
}

/// FNV-1a over a stream of 64-bit words: a compact, exact fingerprint of
/// a bit sequence (any flipped bit or reordering changes it).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The system a configuration solves: the golden-trace Poisson problem,
/// or the E21 floor problem.
fn problem(config: &str) -> (CsrMatrix, Vec<f64>) {
    if config == "floor_1e-12" {
        let a = gen::tridiag_toeplitz(2000, 2.0 + 4e-4, -1.0);
        let b = gen::rand_vector(2000, 5);
        (a, b)
    } else {
        (gen::poisson2d(12), gen::poisson2d_rhs(12))
    }
}

/// Options for a configuration, with a progress hook that records the
/// streamed `(iter, value)` pairs (and, for `cancel_at_5`, raises the
/// cancel flag from inside the hook at [`CANCEL_AT`]).
fn options(config: &str, team: &Arc<Team>) -> (SolveOptions, Stream) {
    let stream: Stream = Arc::new(Mutex::new(Vec::new()));
    let flag = Arc::new(AtomicBool::new(false));
    let cancel = config == "cancel_at_5";
    let (sink, hook_flag) = (Arc::clone(&stream), Arc::clone(&flag));
    let mut o = SolveOptions::default().with_progress(move |it, v| {
        sink.lock().unwrap().push((it, v.to_bits()));
        if cancel && it == CANCEL_AT {
            hook_flag.store(true, Ordering::Relaxed);
        }
    });
    match config {
        "default" | "warm_start" => {}
        "tree_team2" => {
            o = o.with_dot_mode(DotMode::Tree).with_team(Arc::clone(team));
        }
        "max_iters_3" => o = o.with_max_iters(3),
        "cancel_at_5" => o = o.with_cancel_flag(flag),
        "nan_faults_checkpointed" => {
            o = o
                .with_injector(Arc::new(SeededInjector::new(7, 2e-4, FaultKind::Nan)))
                .with_recovery(RecoveryPolicy::default().with_checkpoint_period(8));
        }
        "floor_1e-12" => o = o.with_tol(1e-12),
        "mixed" => o = o.with_execution(Execution::Mixed),
        // The sweep requires Tree dots; other modes reject.
        "sweep" => {
            o = o
                .with_dot_mode(DotMode::Tree)
                .with_execution(Execution::WholeIteration { tile: None });
        }
        other => panic!("unknown config {other}"),
    }
    (o, stream)
}

fn render_progress(out: &mut String, stream: &[(usize, u64)]) {
    let words = stream.iter().flat_map(|&(it, v)| [it as u64, v]);
    write!(out, "progress {} {:016x}", stream.len(), fnv(words)).unwrap();
    if let Some(&(it, v)) = stream.last() {
        write!(out, " last {it} {v:016x}").unwrap();
    }
    out.push('\n');
}

/// Render one single-rhs solve of `solver` under `config`.
fn render_single(solver: &dyn CgVariant, config: &str, team: &Arc<Team>) -> String {
    let (a, b) = problem(config);
    let (opts, stream) = options(config, team);
    let x0 = (config == "warm_start").then(|| gen::rand_vector(a.nrows(), 11));
    let res = solver.solve(&a, &b, x0.as_deref(), &opts);
    let mut out = String::new();
    writeln!(out, "[{config}]").unwrap();
    writeln!(out, "iterations {}", res.iterations).unwrap();
    writeln!(out, "termination {:?}", res.termination).unwrap();
    writeln!(out, "final_residual {:016x}", res.final_residual.to_bits()).unwrap();
    writeln!(
        out,
        "residual_norms {} {:016x}",
        res.residual_norms.len(),
        fnv(res.residual_norms.iter().map(|v| v.to_bits()))
    )
    .unwrap();
    writeln!(out, "x {:016x}", fnv(res.x.iter().map(|v| v.to_bits()))).unwrap();
    writeln!(out, "counts {:?}", res.counts).unwrap();
    writeln!(out, "recovery {:?}", res.recovery).unwrap();
    render_progress(&mut out, &stream.lock().unwrap());
    out
}

/// Render one two-column block CG solve under `config`. Block CG takes no
/// starting point, so `warm_start` has no row.
fn render_block(config: &str, team: &Arc<Team>) -> String {
    if config == "warm_start" {
        return String::new();
    }
    let (a, b) = problem(config);
    let cols = vec![b, gen::rand_vector(a.nrows(), 6)];
    let (opts, stream) = options(config, team);
    let res = BlockCg::new().solve(&a, &cols, &opts);
    let mut out = String::new();
    writeln!(out, "[{config}]").unwrap();
    writeln!(out, "iterations {}", res.iterations).unwrap();
    writeln!(out, "termination {:?}", res.termination).unwrap();
    for (j, h) in res.residual_norms.iter().enumerate() {
        writeln!(
            out,
            "residual_norms[{j}] {} {:016x}",
            h.len(),
            fnv(h.iter().map(|v| v.to_bits()))
        )
        .unwrap();
    }
    let x_bits = res.x.iter().flatten().map(|v| v.to_bits());
    writeln!(out, "x {:016x}", fnv(x_bits)).unwrap();
    writeln!(out, "counts {:?}", res.counts).unwrap();
    render_progress(&mut out, &stream.lock().unwrap());
    out
}

/// Every single-rhs loop by file key: the registry, then the three
/// non-registry solvers.
fn single_rhs_loops(a: &CsrMatrix) -> Vec<(String, Box<dyn CgVariant>)> {
    let mut loops: Vec<(String, Box<dyn CgVariant>)> = keyed_variants(a)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(loops.len(), VARIANT_COUNT, "registry drifted");
    loops.push(("chebyshev".into(), Box::new(ChebyshevIteration::auto())));
    loops.push((
        "conjugate_residual".into(),
        Box::new(ConjugateResidual::new()),
    ));
    loops.push(("overlap_cr".into(), Box::new(OverlapCr::new())));
    loops
}

#[test]
fn loop_protocol_matches_golden_files() {
    let team = Arc::new(Team::new(2));
    let regen = std::env::var_os("REGENERATE_GOLDEN").is_some();
    let dir = golden_dir();
    // The Jacobi variant reads only the diagonal, which both problems
    // share in sign; each config builds its solver for its own matrix.
    let keys: Vec<String> = single_rhs_loops(&gen::poisson2d(4))
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let mut files: Vec<(String, String)> =
        keys.iter().map(|k| (k.clone(), String::new())).collect();
    files.push(("block_cg_2".into(), String::new()));
    for config in CONFIGS {
        let (a, _) = problem(config);
        for (i, (_, solver)) in single_rhs_loops(&a).into_iter().enumerate() {
            files[i]
                .1
                .push_str(&render_single(solver.as_ref(), config, &team));
        }
        let last = files.len() - 1;
        files[last].1.push_str(&render_block(config, &team));
    }

    let mut mismatches = Vec::new();
    for (key, text) in &files {
        let path = dir.join(format!("{key}.txt"));
        if regen {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, text).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} — run with REGENERATE_GOLDEN=1",
                path.display()
            )
        });
        if &golden != text {
            mismatches.push(format!("{key}:\n--- golden\n{golden}+++ now\n{text}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} loop(s) drifted from tests/golden/protocol/:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
