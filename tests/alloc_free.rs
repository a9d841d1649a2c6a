//! Zero-allocation-per-iteration contract for the solver hot paths.
//!
//! A counting global allocator wraps [`System`] and tallies every
//! `alloc`/`realloc`/`alloc_zeroed`. Each variant is solved twice on the
//! same system with `tol = 0.0` (so both runs terminate on
//! `MaxIterations`) at two different iteration budgets; since setup,
//! warm-up, and teardown are identical, the extra iterations of the
//! longer run must contribute **zero** allocations for the two tallies to
//! match.
//!
//! Everything runs in ONE `#[test]` function: the counter is global, and
//! cargo's default parallel test runner would otherwise interleave
//! allocations from unrelated tests into the window being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vr_cg::lookahead::LookaheadCg;
use vr_cg::registry;
use vr_cg::sstep::SStepCg;
use vr_cg::standard::StandardCg;
use vr_cg::{CgVariant, SolveOptions, Termination};
use vr_linalg::gen;
use vr_linalg::kernels::DotMode;
use vr_linalg::mpk::NaivePowers;
use vr_linalg::LinearOperator;
use vr_par::team::{dispatch_width, Team};

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

fn opts(max_iters: usize) -> SolveOptions {
    let mut o = SolveOptions::default()
        .with_tol(0.0) // never converges → exact MaxIterations run
        .with_max_iters(max_iters)
        .with_dot_mode(DotMode::Serial)
        .with_threads(1);
    o.record_residuals = false; // norms Vec must not grow with iterations
    o
}

/// Allocation calls issued by one full solve at the given budget.
///
/// An untimed warm-up solve first absorbs process-level lazy
/// initialization (fmt machinery, thread-locals) that would otherwise be
/// charged to whichever configuration happens to run first. The
/// measurement is then the minimum over a few repeats: solver allocation
/// behaviour is deterministic, so the minimum strips any allocations the
/// libtest harness thread interleaves into the window.
fn allocs_for(variant: &dyn CgVariant, a: &dyn LinearOperator, b: &[f64], max_iters: usize) -> u64 {
    let o = opts(max_iters);
    let _ = variant.solve(a, b, None, &o);
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let res = variant.solve(a, b, None, &o);
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            res.termination,
            Termination::MaxIterations,
            "{}: tol=0 run must exhaust its budget",
            variant.name()
        );
        best = best.min(after - before);
    }
    best
}

#[test]
fn hot_loops_allocate_nothing_per_iteration_after_warmup() {
    let a = gen::poisson2d(48);
    let b = gen::poisson2d_rhs(48);
    // both basis engines: the CSR tiled matrix-powers kernel, and the
    // level-by-level oracle the `NaivePowers` wrapper exposes
    let naive = NaivePowers(&a);
    let engines: [(&dyn LinearOperator, &str); 2] = [(&a, "mpk"), (&naive, "naive")];

    // (variant, label). The short budget already covers every warm-up
    // transient: s-step's second direction block is first built on outer
    // step 2 (iteration s+1), look-ahead's window on its first pass.
    let variants: Vec<(Box<dyn CgVariant>, &str)> = vec![
        (Box::new(StandardCg::new()), "standard"),
        (Box::new(SStepCg::monomial(4)), "sstep-monomial"),
        (Box::new(SStepCg::newton(4)), "sstep-newton"),
        (Box::new(LookaheadCg::new(2)), "lookahead-k2"),
    ];

    for (variant, label) in &variants {
        for (op, engine) in engines {
            let short = allocs_for(variant.as_ref(), op, &b, 10);
            let long = allocs_for(variant.as_ref(), op, &b, 40);
            assert_eq!(
                short, long,
                "{label} ({engine}): a 40-iteration solve allocated \
                 {long} times vs {short} for 10 iterations — the extra 30 \
                 iterations must be allocation-free"
            );
        }
    }

    // The recovery hooks must keep the contract: with a checkpoint period
    // of 4, the 40-iteration run takes ~8 more snapshots than the
    // 10-iteration run, and every one of them must be pure
    // `copy_from_slice` into the ring preallocated at solve start. Standard
    // CG's residual guard also runs its periodic true-residual check (at
    // iteration 25) in the longer run; it measures into a buffer the guard
    // allocated at solve start.
    let ck = vr_cg::resilience::RecoveryPolicy::default().with_checkpoint_period(4);
    for (variant, label) in &variants {
        let o10 = opts(10).with_recovery(ck.clone());
        let o40 = opts(40).with_recovery(ck.clone());
        let measure = |o: &SolveOptions| {
            let _ = variant.solve(&a, &b, None, o);
            let mut best = u64::MAX;
            for _ in 0..3 {
                let before = ALLOC_CALLS.load(Ordering::Relaxed);
                let _ = variant.solve(&a, &b, None, o);
                let after = ALLOC_CALLS.load(Ordering::Relaxed);
                best = best.min(after - before);
            }
            best
        };
        let short = measure(&o10);
        let long = measure(&o40);
        assert_eq!(
            short, long,
            "{label}: checkpointing every 4 iterations must stay \
             allocation-free after warm-up ({long} vs {short} allocs)"
        );
    }

    // An *attached* tracer must add ZERO allocations: recording a span is
    // two stores into a pre-sized ring, so a traced solve's allocation
    // tally must equal the untraced solve's exactly, at every budget.
    // (Draining happens outside the measured window — `drain` does
    // allocate, by design. overlap-k1's own deferred-scalar launches
    // allocate a few times per iteration with or without a tracer, which
    // is why the assertion is traced == untraced rather than 10-iter ==
    // 40-iter.)
    // The SIMD policy is one thread-local store and the mixed-precision
    // path allocates its whole f32 working set (plus the f64 shadow-guard
    // buffers) at solve start: extra iterations must stay allocation-free
    // under both knobs — including the iteration that crosses the guard's
    // confirmation period, whose true-residual check runs entirely in
    // preallocated scratch. (The warm-up solve also fills the CsrMatrix
    // f32 value cache, so it is not charged to the measured window.)
    let mixed_variants: Vec<(Box<dyn CgVariant>, &str)> = vec![
        (Box::new(StandardCg::new()), "standard"),
        (
            Box::new(vr_cg::overlap_k1::OverlapK1Cg::new()),
            "overlap-k1",
        ),
        (Box::new(vr_cg::baselines::PipelinedCg::new()), "pipelined"),
    ];
    for (variant, label) in &mixed_variants {
        for execution in [vr_cg::Execution::Fused, vr_cg::Execution::Mixed] {
            let measure = |max_iters: usize| {
                let o = opts(max_iters).with_execution(execution);
                let _ = variant.solve(&a, &b, None, &o); // warm-up
                let mut best = u64::MAX;
                for _ in 0..3 {
                    let before = ALLOC_CALLS.load(Ordering::Relaxed);
                    let res = variant.solve(&a, &b, None, &o);
                    let after = ALLOC_CALLS.load(Ordering::Relaxed);
                    assert_eq!(
                        res.termination,
                        Termination::MaxIterations,
                        "{label} ({execution:?}): tol=0 run must exhaust its budget"
                    );
                    best = best.min(after - before);
                }
                best
            };
            let lanes = vr_par::simd::auto_level();
            let short = vr_par::simd::with_level(lanes, || measure(10));
            let long = vr_par::simd::with_level(lanes, || measure(40));
            assert_eq!(
                short, long,
                "{label} (simd, {execution:?}): a 40-iteration solve \
                 allocated {long} times vs {short} for 10 iterations — the \
                 extra 30 iterations must be allocation-free"
            );
        }
    }

    // Whole-iteration sweep fusion: the epoch engine preallocates its
    // staging bands and 256-leaf partial buffers at solve start, and every
    // epoch runs in that fixed storage — extra iterations must be
    // allocation-free for all four sweep-eligible variants. (overlap-k1's
    // per-kernel path allocates per-iteration deferred-scalar launches;
    // on the sweep engine the same step folds those reductions inside the
    // epochs, so here it is held to the exact 10-vs-40 contract as well.)
    let sweep_variants: Vec<(Box<dyn CgVariant>, &str)> = vec![
        (Box::new(StandardCg::new()), "standard"),
        (
            Box::new(vr_cg::overlap_k1::OverlapK1Cg::new()),
            "overlap-k1",
        ),
        (
            Box::new(vr_cg::baselines::ChronopoulosGearCg::new()),
            "chronopoulos-gear",
        ),
        (Box::new(vr_cg::baselines::PipelinedCg::new()), "pipelined"),
    ];
    for (variant, label) in &sweep_variants {
        let measure = |max_iters: usize| {
            let mut o = SolveOptions::default()
                .with_tol(0.0)
                .with_max_iters(max_iters)
                .with_dot_mode(DotMode::Tree)
                .with_threads(1)
                .with_execution(vr_cg::Execution::WholeIteration { tile: None });
            o.record_residuals = false;
            let _ = variant.solve(&a, &b, None, &o); // warm-up
            let mut best = u64::MAX;
            for _ in 0..3 {
                let before = ALLOC_CALLS.load(Ordering::Relaxed);
                let res = variant.solve(&a, &b, None, &o);
                let after = ALLOC_CALLS.load(Ordering::Relaxed);
                assert_eq!(
                    res.termination,
                    Termination::MaxIterations,
                    "{label} (sweep): tol=0 run must exhaust its budget, \
                     not reject"
                );
                best = best.min(after - before);
            }
            best
        };
        let short = measure(10);
        let long = measure(40);
        assert_eq!(
            short, long,
            "{label} (whole-iteration sweep): a 40-iteration solve \
             allocated {long} times vs {short} for 10 iterations — sweep \
             epochs must run entirely in the engine's preallocated storage"
        );
    }

    // `DotMode::Tree` on an attached team — the configuration the solve
    // daemon and the library benchmark run — must be allocation-free as
    // well: every Tree reduction keeps its chunk list and leaf partials in
    // fixed `CHUNKS`-sized stack buffers, and a deferred reduction holds
    // its partials inline, both copies of them when the duplicate-leaf
    // checksum guards it. Every registry variant runs on an explicit
    // two-worker team, at n = 16,384 (two shards) and on serve-small's
    // largest grid (one shard), with the checksum off and on.
    let team = Arc::new(Team::new(2));
    for ((grid, shards), checksum) in [(128usize, 2usize), (48, 1)]
        .into_iter()
        .flat_map(|g| [(g, false), (g, true)])
    {
        let a = gen::poisson2d(grid);
        let b = gen::poisson2d_rhs(grid);
        assert_eq!(
            dispatch_width(a.dim(), 2),
            shards,
            "grid {grid}: n = {} must dispatch {shards} shard(s)",
            a.dim()
        );
        for (key, variant) in registry::keyed_variants(&a) {
            let measure = |max_iters: usize| {
                let mut o = SolveOptions::default()
                    .with_tol(0.0)
                    .with_max_iters(max_iters)
                    .with_dot_mode(DotMode::Tree)
                    .with_reduction_checksum(checksum)
                    .with_team(Arc::clone(&team));
                o.record_residuals = false;
                let _ = variant.solve(&a, &b, None, &o); // warm-up
                let mut best = u64::MAX;
                for _ in 0..3 {
                    let before = ALLOC_CALLS.load(Ordering::Relaxed);
                    let res = variant.solve(&a, &b, None, &o);
                    let after = ALLOC_CALLS.load(Ordering::Relaxed);
                    assert_eq!(
                        res.termination,
                        Termination::MaxIterations,
                        "{key} (tree, grid {grid}, checksum {checksum}): tol=0 run \
                         must exhaust its budget"
                    );
                    best = best.min(after - before);
                }
                best
            };
            let short = measure(10);
            let long = measure(40);
            assert_eq!(
                short, long,
                "{key} (tree on a 2-wide team, grid {grid}, checksum \
                 {checksum}): a 40-iteration solve allocated {long} times vs \
                 {short} for 10 iterations — Tree reductions must run in \
                 fixed stack buffers"
            );
        }
    }

    let tracer = std::sync::Arc::new(vr_obs::Tracer::for_width(1));
    let traced_variants: Vec<(Box<dyn CgVariant>, &str)> = vec![
        (Box::new(StandardCg::new()), "standard"),
        (
            Box::new(vr_cg::overlap_k1::OverlapK1Cg::new()),
            "overlap-k1",
        ),
        (Box::new(LookaheadCg::new(2)), "lookahead-k2"),
    ];
    for (variant, label) in &traced_variants {
        for max_iters in [10usize, 40] {
            let untraced = allocs_for(variant.as_ref(), &a, &b, max_iters);
            let o = opts(max_iters).with_tracer(std::sync::Arc::clone(&tracer));
            let _ = variant.solve(&a, &b, None, &o); // warm-up
            let _ = tracer.drain();
            let mut best = u64::MAX;
            for _ in 0..3 {
                let before = ALLOC_CALLS.load(Ordering::Relaxed);
                let res = variant.solve(&a, &b, None, &o);
                let after = ALLOC_CALLS.load(Ordering::Relaxed);
                assert_eq!(res.termination, Termination::MaxIterations);
                best = best.min(after - before);
                let log = tracer.drain();
                assert!(!log.spans.is_empty(), "{label}: tracer recorded nothing");
            }
            assert_eq!(
                best, untraced,
                "{label} ({max_iters} iters): traced solve allocated {best} \
                 times vs {untraced} untraced — span recording must be \
                 allocation-free"
            );
        }
    }
}
