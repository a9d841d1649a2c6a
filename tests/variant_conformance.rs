//! Cross-variant conformance: one table, every registered solver, every
//! contract.
//!
//! The rows come from [`cg_lookahead::cg::registry::keyed_variants`] — the
//! same canonical list the golden traces and the E21 stability shoot-out
//! sweep — so a solver added to the crate is automatically held to every
//! column here, and a solver missing from the registry trips the
//! [`VARIANT_COUNT`] assertion. The columns:
//!
//! 1. **SPD convergence** — converges on well- and ill-conditioned SPD
//!    systems and the claimed convergence is corroborated by the *true*
//!    residual `b − A·x`, not just the recurrence's internal scalar.
//! 2. **Honest termination** — on indefinite and singular operators a
//!    variant may break down or run out of budget, but must never report
//!    `Converged` while the true residual says otherwise.
//! 3. **Tracing is observation** — an attached tracer changes no bits.
//! 4. **Width invariance** — under the order-preserving `Tree` reduction,
//!    team widths 1/2/4 produce identical bits.
//! 5. **Fused ≡ Reference** — `Execution::Fused` matches the two-pass
//!    `Execution::Reference` bitwise under Serial and Tree.
//! 6. **Zero hot-path allocations** — after warm-up, extra iterations
//!    allocate nothing (counting global allocator, 10- vs 40-iteration
//!    budgets).
//! 7. **Mixed precision** — eligible variants converge to an
//!    f32-attainable floor with the claim confirmed against the f64 true
//!    residual (never false convergence); ineligible variants reject with
//!    [`Termination::Unsupported`] and zero iterations, not a silent f64
//!    fallback.
//! 8. **Whole-iteration sweep** — variants that support
//!    `Execution::WholeIteration` produce bits identical to the per-kernel
//!    fused path under it; the rest reject with
//!    [`Termination::Unsupported`] and zero iterations.
//! 9. **Cancellation** — a raised cancel flag stops every variant at a
//!    loop top with honest partial state.
//! 10. **Block CG** — the multi-rhs solver holds columns 1, 2, 4 and 9.
//! 11. **One reduction path** — every inner product a solver tallies in
//!     `OpCounts::dots` reaches the solve's fault injector, so each one
//!     runs on the solve's team and reduction order.
//! 12. **Certified exits at the attainable floor** — on a problem whose
//!     recurrences drift near their floor, a `converged` claim is backed
//!     by the true residual, and `final_residual` *is* the true residual
//!     on every exit.
//!
//! The allocation column needs a quiet window, so a process-wide mutex
//! serializes every test in this binary against the measured solves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cg_lookahead::cg::baselines::{ChebyshevIteration, ConjugateResidual, OverlapCr};
use cg_lookahead::cg::registry::{keyed_variants, VARIANT_COUNT};
use cg_lookahead::cg::{CgVariant, Execution, SolveOptions, SolveResult, Termination};
use cg_lookahead::linalg::kernels::{self, DotMode};
use cg_lookahead::linalg::{gen, CsrMatrix, LinearOperator};
use cg_lookahead::obs::Tracer;
use cg_lookahead::par::fault::{FaultInjector, FaultSite};
use cg_lookahead::par::team::{dispatch_width, GRAIN};
use cg_lookahead::par::Team;

// ---------------------------------------------------------------- plumbing

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests in this binary: the allocation column measures a
/// global counter, and libtest's parallel runner would otherwise bleed
/// another test's allocations into the window.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(a: &SolveResult, b: &SolveResult, ctx: &str) {
    assert_eq!(a.termination, b.termination, "{ctx}: termination");
    assert_eq!(a.iterations, b.iterations, "{ctx}: iterations");
    assert_eq!(
        bits(&a.residual_norms),
        bits(&b.residual_norms),
        "{ctx}: residual history bits"
    );
    assert_eq!(bits(&a.x), bits(&b.x), "{ctx}: solution bits");
}

/// Singular SPSD operator: the 1-D Neumann Laplacian (row sums zero, the
/// constant vector spans the nullspace). Its diagonal is strictly positive
/// so the registry's Jacobi variant still constructs.
fn neumann_laplacian(n: usize) -> CsrMatrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row = vec![0.0; n];
            row[i] = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
            row
        })
        .collect();
    CsrMatrix::from_dense(&rows, 0.0)
}

// ----------------------------------------------------- column 1: converge

#[test]
fn every_variant_converges_on_spd_problems_with_corroborated_residual() {
    let _g = gate();
    let problems: Vec<(&str, CsrMatrix, Vec<f64>)> = vec![
        ("poisson2d", gen::poisson2d(16), gen::poisson2d_rhs(16)),
        (
            "anisotropic2d",
            gen::anisotropic2d(12, 0.05),
            gen::rand_vector(144, 17),
        ),
        (
            "rand_spd",
            gen::rand_spd(300, 7, 4.0, 21),
            gen::rand_vector(300, 9),
        ),
    ];
    for (pname, a, b) in &problems {
        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(2000);
        let bnorm = kernels::norm2(b);
        let variants = keyed_variants(a);
        assert_eq!(variants.len(), VARIANT_COUNT, "registry drifted");
        for (key, solver) in variants {
            let res = solver.solve(a, b, None, &opts);
            assert!(
                res.converged,
                "{key} on {pname}: {:?} after {} iterations",
                res.termination, res.iterations
            );
            let rel = res.true_residual(a, b) / bnorm;
            assert!(
                rel < 1e-6,
                "{key} on {pname}: claimed convergence but true relative \
                 residual is {rel:e}"
            );
        }
    }
}

// ------------------------------------------------------ column 2: honesty

#[test]
fn no_variant_claims_false_convergence_on_indefinite_or_singular() {
    let _g = gate();
    // indefinite: eigenvalues 0.2 − 2·cos(kπ/(n+1)) straddle zero
    let indefinite = gen::tridiag_toeplitz(48, 0.2, -1.0);
    // singular and inconsistent: a random rhs has a nullspace component
    let singular = neumann_laplacian(48);
    let b = gen::rand_vector(48, 5);
    let bnorm = kernels::norm2(&b);
    for (mname, a) in [("indefinite", &indefinite), ("singular", &singular)] {
        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(400);
        for (key, solver) in keyed_variants(a) {
            let res = solver.solve(a, &b, None, &opts);
            // Breakdown or MaxIterations are both honest outcomes here;
            // a Converged claim must be backed by the actual residual.
            if res.converged {
                let rel = res.true_residual(a, &b) / bnorm;
                assert!(
                    rel < 1e-5,
                    "{key} on {mname}: reported {:?} but true relative \
                     residual is {rel:e}",
                    res.termination
                );
            }
        }
    }
}

// ------------------------------------------------------ column 3: tracing

#[test]
fn attached_tracer_changes_no_bits_for_any_variant() {
    let _g = gate();
    let a = gen::poisson2d(14);
    let b = gen::poisson2d_rhs(14);
    for threads in [1usize, 2] {
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_dot_mode(DotMode::Tree)
            .with_team(Arc::new(Team::new(threads)));
        for (key, solver) in keyed_variants(&a) {
            let plain = solver.solve(&a, &b, None, &opts);
            let tracer = Arc::new(Tracer::for_width(threads));
            let traced_opts = opts.clone().with_tracer(Arc::clone(&tracer));
            let traced = solver.solve(&a, &b, None, &traced_opts);
            assert_bit_identical(&plain, &traced, &format!("{key} (threads {threads})"));
            assert!(
                !tracer.drain().spans.is_empty(),
                "{key} (threads {threads}): traced solve recorded no spans"
            );
        }
    }
}

// ------------------------------------------------- column 4: width invariance

#[test]
fn thread_width_is_bit_invariant_under_tree_reduction() {
    let _g = gate();
    // n = 33,124 ≥ 4·GRAIN, so widths 2 and 4 really split every vector
    // kernel and every reduction across that many shards.
    let a = gen::anisotropic2d(182, 0.1);
    let n = a.dim();
    assert!(n >= 4 * GRAIN);
    for width in [2usize, 4] {
        assert_eq!(dispatch_width(n, width), width, "width {width}");
    }
    let b = gen::rand_vector(n, 23);
    let solve_at = |width: usize| {
        // tol 0 with a 40-iteration budget bounds the debug runtime
        let opts = SolveOptions::default()
            .with_tol(0.0)
            .with_max_iters(40)
            .with_dot_mode(DotMode::Tree)
            .with_team(Arc::new(Team::new(width)));
        keyed_variants(&a)
            .into_iter()
            .map(|(key, solver)| (key, solver.solve(&a, &b, None, &opts)))
            .collect::<Vec<_>>()
    };
    let base = solve_at(1);
    for width in [2usize, 4] {
        for ((key, one), (_, wide)) in base.iter().zip(solve_at(width)) {
            assert_bit_identical(one, &wide, &format!("{key} (width 1 vs {width})"));
        }
    }
}

// --------------------------------------------- column 5: fused execution

#[test]
fn fused_policy_matches_reference_for_every_variant_and_dot_mode() {
    let _g = gate();
    let a = gen::poisson2d(14);
    let b = gen::poisson2d_rhs(14);
    for mode in [DotMode::Serial, DotMode::Tree] {
        let base = SolveOptions::default().with_tol(1e-8).with_dot_mode(mode);
        for (key, solver) in keyed_variants(&a) {
            let reference = solver.solve(
                &a,
                &b,
                None,
                &base.clone().with_execution(Execution::Reference),
            );
            let fused = solver.solve(&a, &b, None, &base.clone().with_execution(Execution::Fused));
            assert_bit_identical(&reference, &fused, &format!("{key} / {mode:?}"));
        }
    }
}

// -------------------------------------------------- column 6: allocations

#[test]
fn hot_loops_allocate_nothing_per_iteration_after_warmup() {
    let _g = gate();
    let a = gen::poisson2d(48);
    let b = gen::poisson2d_rhs(48);

    let opts = |max_iters: usize| {
        let mut o = SolveOptions::default()
            .with_tol(0.0) // never converges → exact MaxIterations run
            .with_max_iters(max_iters)
            .with_dot_mode(DotMode::Serial)
            .with_threads(1);
        o.record_residuals = false; // norms Vec must not grow per iteration
        o
    };
    // warm-up solve, then minimum over repeats: solver allocation behaviour
    // is deterministic, so the minimum strips any stray harness allocations
    let allocs_for = |solver: &dyn cg_lookahead::cg::CgVariant, max_iters: usize| {
        let o = opts(max_iters);
        let _ = solver.solve(&a, &b, None, &o);
        let mut best = u64::MAX;
        for _ in 0..3 {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            let res = solver.solve(&a, &b, None, &o);
            let after = ALLOC_CALLS.load(Ordering::Relaxed);
            assert_eq!(
                res.termination,
                Termination::MaxIterations,
                "{}: tol=0 run must exhaust its budget",
                solver.name()
            );
            best = best.min(after - before);
        }
        best
    };

    for (key, solver) in keyed_variants(&a) {
        let short = allocs_for(solver.as_ref(), 10);
        let long = allocs_for(solver.as_ref(), 40);
        assert_eq!(
            short, long,
            "{key}: a 40-iteration solve allocated {long} times vs {short} \
             for 10 iterations — the extra 30 iterations must be \
             allocation-free"
        );
    }
}

// -------------------------------------------- column 7: mixed precision

/// Eligible variants run the mixed-precision path to an f32-attainable
/// floor and the claim is corroborated by the *f64* true residual (the
/// never-false-convergence invariant); ineligible variants reject the
/// request explicitly with zero iterations — never a silent f64 fallback
/// whose numbers the caller would misattribute.
#[test]
fn mixed_precision_converges_or_rejects_explicitly_per_eligibility() {
    let _g = gate();
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let bnorm = kernels::norm2(&b);
    let opts = SolveOptions::default()
        .with_tol(1e-5) // comfortably above the f32 recurrence floor
        .with_max_iters(2000)
        .with_execution(Execution::Mixed);
    let variants = keyed_variants(&a);
    assert_eq!(variants.len(), VARIANT_COUNT, "registry drifted");
    let mut eligible = 0;
    for (key, solver) in variants {
        let res = solver.solve(&a, &b, None, &opts);
        if solver.supports(Execution::Mixed) {
            eligible += 1;
            assert!(
                res.converged,
                "{key}: mixed-eligible but {:?} after {} iterations",
                res.termination, res.iterations
            );
            let rel = res.true_residual(&a, &b) / bnorm;
            assert!(
                rel < 1e-4,
                "{key}: mixed claimed convergence but f64 true relative \
                 residual is {rel:e}"
            );
        } else {
            assert_eq!(
                res.termination,
                Termination::Unsupported,
                "{key}: mixed-ineligible must reject explicitly, got {:?}",
                res.termination
            );
            assert_eq!(res.iterations, 0, "{key}: rejection must do no work");
            assert!(!res.converged);
            assert!(
                res.x.iter().all(|&v| v == 0.0),
                "{key}: rejection must not scribble on the iterate"
            );
        }
    }
    assert!(
        eligible >= 3,
        "expected standard/overlap-k1/pipelined to be mixed-eligible, got {eligible}"
    );
}

// ----------------------------------------- column 8: whole-iteration sweep

/// Variants that support `Execution::WholeIteration` must run the sweep
/// bit-identically to the per-kernel fused path (same x, norms, iteration
/// count); every other registered variant must reject the request
/// explicitly with zero iterations — never silently fall back to the
/// per-kernel loop.
#[test]
fn sweep_policy_matches_fused_or_rejects_explicitly_per_eligibility() {
    let _g = gate();
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    for threads in [1usize, 2] {
        let base = SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(2000)
            .with_dot_mode(DotMode::Tree)
            .with_threads(threads);
        let variants = keyed_variants(&a);
        assert_eq!(variants.len(), VARIANT_COUNT, "registry drifted");
        let mut eligible = 0;
        for (key, solver) in variants {
            let sweep = solver.solve(
                &a,
                &b,
                None,
                &base
                    .clone()
                    .with_execution(Execution::WholeIteration { tile: None }),
            );
            if solver.supports(Execution::WholeIteration { tile: None }) {
                eligible += 1;
                let fused = solver.solve(&a, &b, None, &base);
                assert_bit_identical(&fused, &sweep, &format!("{key} (sweep, threads {threads})"));
                assert!(sweep.converged, "{key}: {:?}", sweep.termination);
            } else {
                assert_eq!(
                    sweep.termination,
                    Termination::Unsupported,
                    "{key}: sweep-ineligible must reject explicitly, got {:?}",
                    sweep.termination
                );
                assert_eq!(sweep.iterations, 0, "{key}: rejection must do no work");
                assert!(
                    sweep.x.iter().all(|&v| v == 0.0),
                    "{key}: rejection must not scribble on the iterate"
                );
            }
        }
        assert_eq!(
            eligible, 4,
            "expected standard/overlap-k1/chronopoulos-gear/pipelined to be \
             sweep-eligible, got {eligible}"
        );
    }
}

/// Below the f32-attainable floor the mixed path must stay honest: it may
/// stagnate or exhaust its budget, but a `Converged` claim must survive
/// the f64 true-residual check at the requested tolerance.
#[test]
fn mixed_precision_never_reports_unbacked_convergence_below_f32_floor() {
    let _g = gate();
    let a = gen::poisson2d(16);
    let b = gen::poisson2d_rhs(16);
    let bnorm = kernels::norm2(&b);
    let tol = 1e-14; // unreachable with f32 working vectors
    let opts = SolveOptions::default()
        .with_tol(tol)
        .with_max_iters(800)
        .with_execution(Execution::Mixed);
    for (key, solver) in keyed_variants(&a) {
        if !solver.supports(Execution::Mixed) {
            continue;
        }
        let res = solver.solve(&a, &b, None, &opts);
        if res.converged {
            let rel = res.true_residual(&a, &b) / bnorm;
            assert!(
                rel <= 10.0 * tol,
                "{key}: mixed reported {:?} at tol {tol:e} but the f64 \
                 true relative residual is {rel:e}",
                res.termination
            );
        }
    }
}

// ------------------------------------------------ column 9: cancellation

/// A cancel flag raised before the solve starts must stop every variant at
/// its first loop top: [`Termination::Cancelled`], zero iterations, and no
/// convergence claim. This is the service-layer contract — a daemon
/// cancelling a queued job must never receive a half-trusted "converged".
#[test]
fn pre_set_cancel_flag_stops_every_variant_before_any_iteration() {
    let _g = gate();
    let a = gen::poisson2d(14);
    let b = gen::poisson2d_rhs(14);
    let flag = Arc::new(AtomicBool::new(true));
    let opts = SolveOptions::default()
        .with_tol(1e-9)
        .with_cancel_flag(Arc::clone(&flag));
    let variants = keyed_variants(&a);
    assert_eq!(variants.len(), VARIANT_COUNT, "registry drifted");
    for (key, solver) in variants {
        let res = solver.solve(&a, &b, None, &opts);
        assert_eq!(
            res.termination,
            Termination::Cancelled,
            "{key}: pre-set cancel flag must yield Cancelled"
        );
        assert!(
            !res.converged,
            "{key}: cancelled must not claim convergence"
        );
        assert_eq!(
            res.iterations, 0,
            "{key}: pre-set flag must stop before any iteration"
        );
    }
}

/// Raising the flag from the progress stream mid-solve stops every variant
/// promptly (within its pipeline depth) and the partial result stays
/// honest: cancelled, not converged, iterations no greater than the
/// uncancelled run, and the streamed (iter, residual) pairs well-formed —
/// iterations non-decreasing from 0, residuals finite and non-negative.
#[test]
fn mid_solve_cancellation_stops_promptly_with_honest_partial_state() {
    let _g = gate();
    let a = gen::poisson2d(14);
    let b = gen::poisson2d_rhs(14);
    // tol 0 never converges: the cancel is the only way out before budget
    let base = SolveOptions::default().with_tol(0.0).with_max_iters(200);
    const CUTOFF: usize = 3;
    for (key, solver) in keyed_variants(&a) {
        let full = solver.solve(&a, &b, None, &base);
        let flag = Arc::new(AtomicBool::new(false));
        let streamed: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let opts = {
            let flag = Arc::clone(&flag);
            let streamed = Arc::clone(&streamed);
            base.clone()
                .with_cancel_flag(Arc::clone(&flag))
                .with_progress(move |iter, residual| {
                    streamed.lock().unwrap().push((iter, residual));
                    if iter >= CUTOFF {
                        flag.store(true, Ordering::Relaxed);
                    }
                })
        };
        let res = solver.solve(&a, &b, None, &opts);
        assert_eq!(
            res.termination,
            Termination::Cancelled,
            "{key}: mid-solve cancel must yield Cancelled, got {:?}",
            res.termination
        );
        assert!(!res.converged, "{key}");
        assert!(
            res.iterations <= full.iterations,
            "{key}: cancelled run did {} iterations vs {} uncancelled",
            res.iterations,
            full.iterations
        );
        let events = streamed.lock().unwrap();
        assert!(!events.is_empty(), "{key}: no progress events streamed");
        assert_eq!(events[0].0, 0, "{key}: stream must start at iteration 0");
        for w in events.windows(2) {
            assert!(
                w[1].0 >= w[0].0,
                "{key}: streamed iterations regressed: {} then {}",
                w[0].0,
                w[1].0
            );
        }
        for &(it, rn) in events.iter() {
            assert!(
                rn.is_finite() && rn >= 0.0,
                "{key}: streamed residual at iter {it} is {rn}"
            );
        }
    }
}

// --------------------------------------------------- column 10: block CG

/// Block CG (the paper's spatial dual: one batched Gram reduction serves
/// s right-hand sides) converges on SPD systems for the widths the solve
/// service batches at, with every column corroborated by the true
/// residual.
#[test]
fn block_cg_converges_on_spd_for_widths_two_and_four() {
    let _g = gate();
    let problems: Vec<(&str, CsrMatrix)> = vec![
        ("poisson2d", gen::poisson2d(16)),
        ("anisotropic2d", gen::anisotropic2d(12, 0.05)),
    ];
    for (pname, a) in &problems {
        let n = a.nrows();
        for s in [2usize, 4] {
            let bs: Vec<Vec<f64>> = (0..s)
                .map(|k| gen::rand_vector(n, 100 + k as u64))
                .collect();
            let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(2000);
            let res = cg_lookahead::cg::block::BlockCg::new().solve(a, &bs, &opts);
            assert!(
                res.converged,
                "block s={s} on {pname}: {:?} after {}",
                res.termination, res.iterations
            );
            for (j, b) in bs.iter().enumerate() {
                let ax = a.spmv(&res.x[j]);
                let rnorm: f64 = b
                    .iter()
                    .zip(&ax)
                    .map(|(bi, ai)| (bi - ai) * (bi - ai))
                    .sum::<f64>()
                    .sqrt();
                let rel = rnorm / kernels::norm2(b);
                assert!(
                    rel < 1e-6,
                    "block s={s} on {pname} column {j}: true relative \
                     residual {rel:e}"
                );
            }
        }
    }
}

/// On a singular, inconsistent system block CG may break down or exhaust
/// its budget, but a `converged` claim must be backed by every column's
/// true residual — the block analogue of the honesty column.
#[test]
fn block_cg_never_claims_false_convergence_on_singular() {
    let _g = gate();
    let a = neumann_laplacian(48);
    let bs: Vec<Vec<f64>> = (0..3).map(|k| gen::rand_vector(48, 130 + k)).collect();
    let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(400);
    let res = cg_lookahead::cg::block::BlockCg::new().solve(&a, &bs, &opts);
    if res.converged {
        for (j, b) in bs.iter().enumerate() {
            let ax = a.spmv(&res.x[j]);
            let rnorm: f64 = b
                .iter()
                .zip(&ax)
                .map(|(bi, ai)| (bi - ai) * (bi - ai))
                .sum::<f64>()
                .sqrt();
            let rel = rnorm / kernels::norm2(b);
            assert!(
                rel < 1e-5,
                "block on singular: claimed convergence but column {j} \
                 true relative residual is {rel:e}"
            );
        }
    }
}

/// Under the order-preserving `Tree` reduction a block solve is
/// bit-invariant across team widths — the property the service layer
/// leans on when a degraded team finishes a batched job.
#[test]
fn block_cg_width_bit_invariant_under_tree_reduction() {
    let _g = gate();
    let a = gen::poisson2d(12);
    let n = a.nrows();
    let bs: Vec<Vec<f64>> = (0..3).map(|k| gen::rand_vector(n, 140 + k)).collect();
    let solve_at = |width: usize| {
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_dot_mode(DotMode::Tree)
            .with_team(Arc::new(Team::new(width)));
        cg_lookahead::cg::block::BlockCg::new().solve(&a, &bs, &opts)
    };
    let base = solve_at(1);
    assert!(base.converged, "{:?}", base.termination);
    for width in [2usize, 4] {
        let wide = solve_at(width);
        assert_eq!(base.termination, wide.termination, "width {width}");
        assert_eq!(base.iterations, wide.iterations, "width {width}");
        for (j, (bx, wx)) in base.x.iter().zip(&wide.x).enumerate() {
            assert_eq!(
                bits(bx),
                bits(wx),
                "width {width} column {j}: solution bits"
            );
        }
        for (j, (bh, wh)) in base
            .residual_norms
            .iter()
            .zip(&wide.residual_norms)
            .enumerate()
        {
            assert_eq!(
                bits(bh),
                bits(wh),
                "width {width} column {j}: residual history bits"
            );
        }
    }
}

/// Cancellation composes with the block solver exactly as with the
/// single-rhs variants: a pre-set flag stops the block before any
/// iteration with an honest `Cancelled`.
#[test]
fn block_cg_honours_cancellation() {
    let _g = gate();
    let a = gen::poisson2d(12);
    let n = a.nrows();
    let bs: Vec<Vec<f64>> = (0..2).map(|k| gen::rand_vector(n, 150 + k)).collect();
    let flag = Arc::new(AtomicBool::new(true));
    let opts = SolveOptions::default()
        .with_tol(1e-9)
        .with_cancel_flag(flag);
    let res = cg_lookahead::cg::block::BlockCg::new().solve(&a, &bs, &opts);
    assert_eq!(res.termination, Termination::Cancelled);
    assert!(!res.converged);
    assert_eq!(res.iterations, 0);
}

// ------------------------------------------- column 11: one reduction path

/// Pass-through injector counting the combined values of the reductions
/// it sees ([`FaultSite::DotFinal`]): one per inner product that takes
/// the solve's reduction path.
#[derive(Debug, Default)]
struct DotFinalCounter(AtomicU64);

impl FaultInjector for DotFinalCounter {
    fn corrupt(&self, site: FaultSite, value: f64) -> f64 {
        if site == FaultSite::DotFinal {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        value
    }
}

/// Every inner product an iteration tallies in `OpCounts::dots` goes
/// through `SolveOptions` — the solve's team, summation order and fault
/// injector — so a counting injector sees exactly as many combined
/// reductions as the tallies add. Start-up probes and exit checks run in
/// both the 10- and the 40-iteration solve, so the difference isolates
/// the iterations.
#[test]
fn every_tallied_inner_product_reaches_the_fault_injector() {
    let _g = gate();
    let a = gen::poisson2d(48);
    let b = gen::poisson2d_rhs(48);
    let mut solvers: Vec<(&str, Box<dyn CgVariant>)> = keyed_variants(&a);
    assert_eq!(solvers.len(), VARIANT_COUNT, "registry drifted");
    solvers.push(("conjugate_residual", Box::new(ConjugateResidual::new())));
    solvers.push(("overlap_cr", Box::new(OverlapCr::new())));
    solvers.push(("chebyshev", Box::new(ChebyshevIteration::auto())));
    let mut off_path = Vec::new();
    for mode in [DotMode::Serial, DotMode::Tree] {
        for (key, solver) in &solvers {
            let run = |max_iters: usize| {
                let counter = Arc::new(DotFinalCounter::default());
                let opts = SolveOptions::default()
                    .with_tol(0.0)
                    .with_max_iters(max_iters)
                    .with_dot_mode(mode)
                    .with_execution(Execution::Fused)
                    .with_injector(Arc::clone(&counter) as Arc<dyn FaultInjector>);
                let res = solver.solve(&a, &b, None, &opts);
                assert_eq!(
                    res.termination,
                    Termination::MaxIterations,
                    "{key} / {mode:?}"
                );
                (res.counts.dots as u64, counter.0.load(Ordering::Relaxed))
            };
            let (tallied_short, seen_short) = run(10);
            let (tallied_long, seen_long) = run(40);
            let (tallied, seen) = (tallied_long - tallied_short, seen_long - seen_short);
            if tallied != seen {
                off_path.push(format!("{key} / {mode:?}: tallied {tallied}, seen {seen}"));
            }
        }
    }
    assert!(
        off_path.is_empty(),
        "inner products off the reduction path in iterations 10..40:\n{}",
        off_path.join("\n")
    );
}

// ------------------------------------- column 12: certified exits at the floor

/// The E21 floor problem — `tridiag(−1, 2 + 4e-4, −1)`, `n = 2000` — at
/// tolerances from well above to just below the attainable floor of the
/// scalar-recurrence variants, under default options (no recovery policy,
/// as the solve daemon runs): every `converged` claim is backed by the
/// true residual to norm rounding, `final_residual` is the true residual
/// of the returned `x` on every exit, and overlapped CR — which ran away
/// from its solution before every exit was certified — converges above
/// its floor.
#[test]
fn every_exit_is_certified_by_the_true_residual_at_the_floor() {
    let _g = gate();
    let a = gen::tridiag_toeplitz(2000, 2.0 + 4e-4, -1.0);
    let b = gen::rand_vector(2000, 5);
    let bnorm = kernels::norm2(&b);
    let mut solvers: Vec<(&str, Box<dyn CgVariant>)> = keyed_variants(&a);
    assert_eq!(solvers.len(), VARIANT_COUNT, "registry drifted");
    solvers.push(("conjugate_residual", Box::new(ConjugateResidual::new())));
    solvers.push(("overlap_cr", Box::new(OverlapCr::new())));
    solvers.push(("chebyshev", Box::new(ChebyshevIteration::auto())));
    let mut failures = Vec::new();
    for tol in [1e-6, 1e-8, 1e-10, 1e-12] {
        let opts = SolveOptions::default().with_tol(tol).with_max_iters(20_000);
        for (key, solver) in &solvers {
            let res = solver.solve(&a, &b, None, &opts);
            let truth = res.true_residual(&a, &b);
            let ctx = format!(
                "{key} at tol {tol:e}: {:?} after {} iterations",
                res.termination, res.iterations
            );
            if res.converged && truth > tol * bnorm * (1.0 + 1e-12) {
                failures.push(format!(
                    "{ctx} claims convergence at a true relative residual of {:e}",
                    truth / bnorm
                ));
            }
            if (res.final_residual - truth).abs() > 1e-12 * truth {
                failures.push(format!(
                    "{ctx} reports final_residual {:e}, true residual {truth:e}",
                    res.final_residual
                ));
            }
            if *key == "overlap_cr" && tol >= 1e-10 && !res.converged {
                failures.push(format!("{ctx} does not converge above its floor"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "uncertified exits on the floor problem:\n{}",
        failures.join("\n")
    );
}
