//! Traced run: the per-layer breakdown. Every traced run reports every
//! layer metric. A metric defined on solve-large's operator or on
//! serve-small's jobs is measured on those inputs whatever the workload;
//! the rest come from the workload's own traced window (solve-large, which
//! never reaches `vr-svc`, takes its `svc.*` from one served cycle of
//! serve-small). The harness records a span around every call it times,
//! and spans of one job share its id.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_cg::registry::keyed_variants;
use vr_cg::standard::StandardCg;
use vr_cg::CgVariant;
use vr_linalg::stencil::Stencil2d;
use vr_linalg::{gen, CsrMatrix};
use vr_obs::json::Json;
use vr_obs::Tracer;
use vr_par::Team;
use vr_svc::RoutingTable;

use crate::host::{self, Regime, WIDTH};
use crate::large::{self, GRID};
use crate::plan::{Plan, MAX_ITERS, ROUTING_TABLE, SMALL_GRIDS, SMALL_TOL};
use crate::probes::{
    self, epoch_us, library_solve, median_secs, op_cost, registry_keys, secs, tree_opts, wire_cost,
    LibSolve,
};
use crate::serve::{failures_of, split_metrics, verify, Expected, Session};
use crate::stats::{mean, median, Spans};
use crate::{Args, Metric, Report, Workload};

/// Doubles per triad array: three of them exceed solve-large's 480 MiB
/// working set.
const TRIAD_LEN: usize = 6 * GRID * GRID;

/// Right-hand sides per registry key and grid in the certification probes
/// behind `cg.false_converged`.
const PROBES: usize = 16;

/// Everything one section of the traced run measured and checked.
#[derive(Default)]
struct Section {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: usize,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(origin, true);
    let regime = Regime::start();
    let triad = spans.record("host.triad", None, None, || host::triad_gbps(TRIAD_LEN, 5));
    let mut out = Section::default();
    out.metrics.push(Metric::new(
        "host.triad_gbps",
        triad,
        "GB/s",
        format!("(3 arrays of {TRIAD_LEN} f64, {WIDTH} threads)"),
    ));

    let team = Arc::new(Team::new(WIDTH));
    let (a, build_s) = spans.record("linalg.build", None, None, || secs(large::heat_operator));
    let large_build_ms = 1e3 * build_s;
    merge(
        &mut out,
        large_layers(args.seed, &a, &team, triad, &mut spans)?,
    );
    let small = Plan::new(args.seed)?;
    merge(&mut out, small_layers(&small, &mut spans)?);

    let own = match args.workload {
        Workload::SolveLarge => {
            let mut own = large_window(args, &a, &team, &mut spans)?;
            own.metrics.push(Metric::new(
                "linalg.build_ms",
                large_build_ms,
                "ms",
                "(gen::poisson2d(2048) + σ shift)",
            ));
            drop(a);
            let mut served = serve_window(args, &small, None, &mut spans)?;
            served.metrics.retain(|m| m.name.starts_with("svc."));
            for m in &mut served.metrics {
                m.note = format!("{} [one served cycle of serve-small]", m.note);
            }
            merge(&mut own, served);
            own
        }
        Workload::ServeSmall => {
            drop(a);
            serve_window(args, &small, Some(args.seconds / 2.0), &mut spans)?
        }
    };
    merge(&mut out, own);
    out.metrics.extend(regime.finish());

    spans.write(
        &args
            .out
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed)),
        vec![
            ("workload".into(), Json::Str(args.workload.name().into())),
            ("seed".into(), Json::Int(args.seed as i64)),
        ],
    )?;
    Ok(Report {
        title: format!(
            "{} seed {} traced: per-layer breakdown",
            args.workload.name(),
            args.seed
        ),
        attempted: out.attempted,
        failures: out.failures,
        metrics: out.metrics,
        context: Vec::new(),
    })
}

fn merge(into: &mut Section, s: Section) {
    into.metrics.extend(s.metrics);
    into.failures.extend(s.failures);
    into.attempted += s.attempted;
}

fn check(s: &mut Section, what: &str, solve: &LibSolve) {
    s.attempted += 1;
    s.failures
        .extend(solve.uncertified().map(|c| format!("{what}: {c}")));
}

/// `linalg`, `par` and `cg` layers on solve-large's operator at width 2.
fn large_layers(
    seed: u64,
    a: &CsrMatrix,
    team: &Arc<Team>,
    triad: f64,
    spans: &mut Spans,
) -> Result<Section, String> {
    let mut s = Section::default();
    let cost = spans.record("linalg.kernels", None, None, || op_cost(a, team, 5));
    let epoch = spans.record("par.epoch", None, None, || epoch_us(team));
    let tracer = Arc::new(Tracer::for_width(WIDTH));
    let opts = tree_opts(large::TOL, large::MAX_ITERS, team);
    let traced = spans.record("cg.solve.traced", None, Some(0), || {
        library_solve(a, "standard", &[large::rhs(seed, 0)], &opts, Some(&tracer))
    })?;
    check(&mut s, "traced solve-large solve", &traced);
    // Width 1 against width 2, alternated so host drift cancels.
    let w1 = Arc::new(Team::new(1));
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for k in 1..=2 {
        let one = spans.record("cg.solve.width1", None, Some(k), || {
            large::solve(a, large::rhs(seed, k), &w1)
        })?;
        check(&mut s, "width-1 solve-large solve", &one);
        t1.push(one.secs);
        let two = spans.record("cg.solve.width2", None, Some(k), || {
            large::solve(a, large::rhs(seed, k), team)
        })?;
        check(&mut s, "width-2 solve-large solve", &two);
        t2.push(two.secs);
    }
    s.metrics.extend([
        Metric::new(
            "linalg.matvec_ms",
            cost.matvec_ms,
            "ms",
            format!("(CSR apply_team, width {WIDTH}, n={})", a.nrows()),
        ),
        Metric::new(
            "linalg.matvec_bw_frac",
            cost.matvec_bytes / (cost.matvec_ms / 1e3) / (triad * 1e9),
            "1",
            format!(
                "({:.0} MB computed ÷ time ÷ triad)",
                cost.matvec_bytes / 1e6
            ),
        ),
        Metric::new(
            "linalg.vector_ms",
            cost.vector_ms,
            "ms",
            "(fused update_xr plus dot at solve-large's length, width 2)",
        ),
        Metric::new(
            "par.dot_ms",
            cost.dot_ms,
            "ms",
            "(Tree dot at solve-large's length, width 2)",
        ),
        Metric::new(
            "par.epoch_us",
            epoch,
            "us",
            format!("(empty Team epoch, width {WIDTH}, median of 2000)"),
        ),
        Metric::new(
            "par.reduction_wait_share",
            traced.reduction_wait,
            "1",
            "(critpath ReductionWait share of a traced solve-large solve)",
        ),
        Metric::new(
            "par.speedup_w2",
            median(&t1) / median(&t2),
            "x",
            format!(
                "(solve-large width-1 ÷ width-2 solve time, {} each)",
                t1.len()
            ),
        ),
        Metric::new(
            "cg.bytes_per_iter",
            traced.traced_bytes as f64 / traced.iterations.max(1) as f64,
            "B",
            format!(
                "(computed from vr-obs span byte counts, {} iterations; analytic working set {} B)",
                traced.iterations,
                large::working_set_bytes(a)
            ),
        ),
    ]);
    Ok(s)
}

/// `cg` and `obs` layers, and the per-job variant build, on serve-small's
/// jobs in the library.
fn small_layers(plan: &Plan, spans: &mut Spans) -> Result<Section, String> {
    let mut s = Section::default();
    let w1 = Arc::new(Team::new(1));
    let solve = |spans: &mut Spans, t: usize, variant: &str, tol: f64, team: &Arc<Team>| {
        let tp = &plan.templates[t];
        spans.record("cg.solve.small", None, Some(t as u64), || {
            library_solve(
                &plan.ops[tp.op],
                variant,
                &plan.columns(t),
                &tree_opts(tol, plan.spec(t).max_iters, team),
                None,
            )
        })
    };

    // Time per iteration per registry key and for BlockCg, on the jobs
    // serve-small serves: each must certify, as its served twin does.
    for key in registry_keys().into_iter().chain(["block"]) {
        let (mut ms, mut iters, mut tols) = (0.0, 0, Vec::new());
        for t in 0..plan.cycle() {
            let tp = &plan.templates[t];
            let mine = match key {
                "block" => tp.cols > 1,
                _ => tp.variant == Some(key),
            };
            if !mine {
                continue;
            }
            let r = solve(spans, t, key, tp.tol, &w1)?;
            check(
                &mut s,
                &format!(
                    "library {key} on grid {} at tol {:.0e}",
                    SMALL_GRIDS[tp.op], tp.tol
                ),
                &r,
            );
            ms += 1e3 * r.secs;
            iters += r.iterations;
            tols.push(tp.tol);
        }
        let name = match key {
            "block" => "cg.block_ms_per_iter".to_string(),
            _ => format!("cg.ms_per_iter.{key}"),
        };
        s.metrics.push(Metric::new(
            name,
            ms / iters.max(1) as f64,
            "ms",
            format!(
                "(width-1 library solves of serve-small's {} jobs on grids {SMALL_GRIDS:?} at tol \
                 [{}], {iters} iterations)",
                tols.len(),
                tols.iter()
                    .map(|t| format!("{t:.0e}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    s.metrics.push(false_converged(plan, &w1, spans)?);

    // Standard CG per iteration on the assembled CSR against the
    // matrix-free stencil, on each grid's throughput-class job.
    let (mut csr, mut stencil) = (0.0, 0.0);
    for (gi, &g) in SMALL_GRIDS.iter().enumerate() {
        let t = (0..plan.cycle())
            .find(|&t| plan.templates[t].op == gi && plan.templates[t].variant.is_none())
            .expect("every grid has a routed job");
        let b = &plan.columns(t)[0];
        let opts = tree_opts(plan.templates[t].tol, plan.spec(t).max_iters, &w1);
        let op = Stencil2d::poisson(g);
        let per_iter = |spans: &mut Spans, a: &dyn vr_linalg::LinearOperator| {
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let (r, sec) =
                        spans.record("cg.solve.csr_stencil", None, Some(t as u64), || {
                            secs(|| StandardCg::new().solve(a, b, None, &opts))
                        });
                    sec / r.iterations.max(1) as f64
                })
                .collect();
            median(&times)
        };
        csr += per_iter(spans, &plan.ops[gi]);
        stencil += per_iter(spans, &op);
    }
    s.metrics.push(Metric::new(
        "linalg.csr_over_stencil",
        csr / stencil,
        "x",
        format!(
            "(standard CG per iteration, gen::poisson2d CSR ÷ Stencil2d, grids {SMALL_GRIDS:?})"
        ),
    ));

    // What the scheduler adds per job: a tracer at the daemon's width and
    // critical-path attribution, against the same solves without. Each
    // replay times the variant's solve and nothing else.
    let routing = RoutingTable::load(std::path::Path::new(ROUTING_TABLE))
        .map_err(|e| format!("{ROUTING_TABLE}: {e}"))?;
    let w2 = Arc::new(Team::new(WIDTH));
    let (mut plain, mut traced) = (0.0, 0.0);
    for _ in 0..3 {
        for t in (0..plan.cycle()).filter(|&t| plan.templates[t].cols == 1) {
            let tp = &plan.templates[t];
            let variant = match tp.variant {
                Some(v) => v.to_string(),
                None => routing.route(tp.class, tp.tol).0,
            };
            let solver = keyed_variants(&plan.ops[tp.op])
                .into_iter()
                .find_map(|(k, v)| (k == variant).then_some(v))
                .expect("routed keys are registry keys");
            let b = &plan.columns(t)[0];
            let opts = tree_opts(tp.tol, plan.spec(t).max_iters, &w2);
            let (_, p) = spans.record("cg.solve.job", None, Some(t as u64), || {
                secs(|| solver.solve(&plan.ops[tp.op], b, None, &opts))
            });
            let (_, q) = spans.record("cg.solve.job_traced", None, Some(t as u64), || {
                secs(|| {
                    let tracer = Arc::new(Tracer::for_width(WIDTH));
                    let opts = opts.clone().with_tracer(Arc::clone(&tracer));
                    let r = solver.solve(&plan.ops[tp.op], b, None, &opts);
                    std::hint::black_box(vr_obs::critpath::attribute(&tracer.drain()));
                    r
                })
            });
            plain += p;
            traced += q;
        }
    }
    s.metrics.push(Metric::new(
        "obs.job_trace_frac",
        (traced - plain) / plain,
        "1",
        format!(
            "(serve-small's singleton jobs at width 2, 3 replays: {:.1} ms with \
             Tracer::for_width + critpath::attribute, {:.1} ms without)",
            1e3 * traced,
            1e3 * plain
        ),
    ));

    let build_us: Vec<f64> = plan
        .ops
        .iter()
        .map(|a| 1e6 * median_secs(200, || drop(std::hint::black_box(keyed_variants(a)))))
        .collect();
    s.metrics.push(Metric::new(
        "svc.variants_build_us",
        median(&build_us),
        "us",
        format!("(registry::keyed_variants per serve-small operator, median over grids: {build_us:.2?})"),
    ));
    Ok(s)
}

/// `cg.false_converged`: certification probes of every registry key at
/// `SMALL_TOL` on every serve-small grid, `PROBES` seeded right-hand sides
/// each, counting the solves that report convergence while their true
/// residual misses tol. The probes measure the solvers' exit tests; they
/// are not jobs of a workload, so a false claim is counted and listed
/// here, where it shows at every seed, and not as a failed operation.
fn false_converged(plan: &Plan, w1: &Arc<Team>, spans: &mut Spans) -> Result<Metric, String> {
    let (mut claims, mut count, mut unconverged, mut probes) = (Vec::new(), 0, 0, 0);
    for key in registry_keys() {
        for (gi, &grid) in SMALL_GRIDS.iter().enumerate() {
            let opts = tree_opts(SMALL_TOL, MAX_ITERS, w1);
            let mut missed = Vec::new();
            for k in 0..PROBES {
                let b = plan.probe_rhs(gi, k);
                let r = spans.record("cg.solve.probe", None, Some(k as u64), || {
                    library_solve(&plan.ops[gi], key, &[b], &opts, None)
                })?;
                probes += 1;
                if !r.converged {
                    unconverged += 1;
                } else if r.uncertified().is_some() {
                    missed.push(r.true_rel);
                }
            }
            if !missed.is_empty() {
                let max = missed.iter().copied().fold(0.0, f64::max);
                claims.push(format!(
                    "{key} on grid {grid}: {} of {PROBES}, true relative residual up to {max:.3e}",
                    missed.len()
                ));
                count += missed.len();
            }
        }
    }
    Ok(Metric::new(
        "cg.false_converged",
        count as f64,
        "count",
        format!(
            "(of {probes} width-1 library solves, every key at tol {SMALL_TOL:.0e} on grids \
             {SMALL_GRIDS:?} with {PROBES} seeded right-hand sides each; {unconverged} did not \
             converge; false claims: {claims:?})"
        ),
    ))
}

/// solve-large's traced window: untraced and vr-obs-traced solves of the
/// same right-hand sides, alternated so host drift cancels.
fn large_window(
    args: &Args,
    a: &CsrMatrix,
    team: &Arc<Team>,
    spans: &mut Spans,
) -> Result<Section, String> {
    let mut s = Section::default();
    let window = Duration::from_secs_f64(args.seconds / 2.0);
    let (mut untraced, mut traced) = (0.0, 0.0);
    let (mut iters, mut dots, mut solves) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < window || k < 2 {
        let plain = spans.record("cg.solve", None, Some(100 + k), || {
            large::solve(a, large::rhs(args.seed, 100 + k), team)
        })?;
        check(&mut s, "untraced solve", &plain);
        let tracer = Arc::new(Tracer::for_width(WIDTH));
        let opts = tree_opts(large::TOL, large::MAX_ITERS, team);
        let with = spans.record("cg.solve.traced", None, Some(100 + k), || {
            library_solve(
                a,
                "standard",
                &[large::rhs(args.seed, 100 + k)],
                &opts,
                Some(&tracer),
            )
        })?;
        check(&mut s, "traced solve", &with);
        untraced += plain.secs;
        traced += with.secs;
        for r in [&plain, &with] {
            iters += r.iterations;
            dots += r.dots;
            solves += 1;
        }
        k += 1;
    }
    s.metrics.extend([
        Metric::new(
            "cg.iterations",
            iters as f64 / solves as f64,
            "count",
            format!("(per solve, {solves} solves)"),
        ),
        Metric::new(
            "cg.dots_per_iter",
            dots as f64 / iters as f64,
            "count",
            format!("({dots} Tree dots over {iters} iterations)"),
        ),
        Metric::new(
            "obs.trace_overhead_frac",
            (traced - untraced) / untraced,
            "1",
            format!("({k} vr-obs-traced vs {k} untraced solves)"),
        ),
    ]);
    Ok(s)
}

/// A serve workload's traced window on one warm daemon: an untraced pass
/// for `seconds` (one cycle when `None`), then the same jobs again with
/// the harness's spans on.
fn serve_window(
    args: &Args,
    plan: &Plan,
    seconds: Option<f64>,
    spans: &mut Spans,
) -> Result<Section, String> {
    let mut s = Section::default();
    let origin = Instant::now();
    let mut session = Session::open(args, plan, origin)?;
    let deadline = seconds.map(|x| Instant::now() + Duration::from_secs_f64(x));
    let jobs = match seconds {
        Some(_) => usize::MAX,
        None => plan.cycle(),
    };
    let mut quiet = Spans::new(origin, false);
    let first = session.serve(
        plan,
        (0..jobs).map(|j| plan.template(j)),
        deadline,
        &mut quiet,
    );
    let replay: Vec<usize> = session.records[first..]
        .iter()
        .map(|r| r.template)
        .collect();
    let second = session.serve(plan, replay.iter().copied(), None, spans);
    let (records, daemon_failures, _) = session.close()?;
    s.attempted += records.len();
    s.failures.extend(daemon_failures);
    s.failures.extend(failures_of(&records));
    let mut expected = Expected::new();
    s.failures.extend(verify(plan, &records, &mut expected));
    let wall = |r: &[crate::serve::JobRecord]| {
        r.last().map_or(0.0, |l| l.submit_ms + l.latency_ms)
            - r.first().map_or(0.0, |f| f.submit_ms)
    };
    let (untraced, traced) = (&records[first..second], &records[second..]);
    if traced.is_empty() {
        return Err("the traced window served no job".into());
    }

    // Wire cost on the exact messages of each distinct job.
    let mut seen = HashSet::new();
    let mut wire = Vec::new();
    for (i, r) in traced.iter().enumerate() {
        let Some(done) = &r.done else { continue };
        if !seen.insert(r.template) {
            continue;
        }
        match spans.record("svc.proto", None, Some((second + i) as u64), || {
            wire_cost(plan.spec(r.template), r.job_id, done)
        }) {
            Ok(w) => wire.push(w),
            Err(e) => s.failures.push(e),
        }
    }
    if wire.is_empty() {
        return Err("no traced job completed, so no wire cost".into());
    }
    let wire_med =
        |f: fn(&probes::WireCost) -> f64| median(&wire.iter().map(f).collect::<Vec<_>>());
    let per_job_iters: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.done.as_ref().map(|d| d.iterations as f64))
        .collect();
    let (lib_dots, lib_iters) = traced
        .iter()
        .filter_map(|r| {
            let d = r.done.as_ref()?;
            let lib = expected
                .get(&(r.template, d.routing.variant.clone()))?
                .as_ref()
                .ok()?;
            Some((lib.dots, lib.iterations))
        })
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    let served: Vec<usize> = records.iter().map(|r| r.template).collect();
    let rejected = records.iter().filter(|r| r.job_id == 0).count();

    s.metrics.extend([
        Metric::new(
            "cg.iterations",
            mean(&per_job_iters),
            "count",
            format!("(mean Done.iterations per job, n={})", per_job_iters.len()),
        ),
        Metric::new(
            "cg.dots_per_iter",
            lib_dots as f64 / lib_iters.max(1) as f64,
            "count",
            format!("(library twins of the traced jobs: {lib_dots} Tree dots over {lib_iters} iterations)"),
        ),
        Metric::new(
            "obs.trace_overhead_frac",
            (wall(traced) - wall(untraced)) / wall(untraced),
            "1",
            format!(
                "({} jobs: {:.3} s with the harness's spans, {:.3} s without)",
                traced.len(),
                wall(traced) / 1e3,
                wall(untraced) / 1e3
            ),
        ),
        Metric::new(
            "svc.proto.decode_ms",
            wire_med(|w| w.decode_ms),
            "ms",
            format!("(median over {} distinct submit lines: parse + Request::from_json)", wire.len()),
        ),
        Metric::new(
            "svc.proto.encode_ms",
            wire_med(|w| w.encode_ms),
            "ms",
            "(median per job: Request and every Event to_json().compact())",
        ),
        Metric::new(
            "svc.proto.fingerprint_ms",
            wire_med(|w| w.fingerprint_ms),
            "ms",
            "(median, OperatorSpec::fingerprint)",
        ),
        Metric::new(
            "svc.wire_bytes_per_job",
            wire_med(|w| w.bytes as f64),
            "B",
            format!(
                "(median per job, both directions; {}–{} B)",
                wire.iter().map(|w| w.bytes).min().unwrap_or(0),
                wire.iter().map(|w| w.bytes).max().unwrap_or(0)
            ),
        ),
        Metric::new(
            "svc.operator_reuse_frac",
            plan.reuse_frac(&served),
            "1",
            format!("(over the {} jobs this daemon served, warm-up first)", served.len()),
        ),
        Metric::new(
            "svc.rejected_frac",
            rejected as f64 / records.len() as f64,
            "1",
            format!("({rejected} of {} submits)", records.len()),
        ),
    ]);
    s.metrics.extend(split_metrics(traced));
    s.metrics.push(build_metric(plan, spans, &mut s.failures));
    Ok(s)
}

/// `linalg.build_ms`: each grid's operator built as the daemon builds it
/// on a cache miss, median over grids of the median of 3 builds.
fn build_metric(plan: &Plan, spans: &mut Spans, failures: &mut Vec<String>) -> Metric {
    let mut per_op = Vec::new();
    for (&grid, a) in SMALL_GRIDS.iter().zip(&plan.ops) {
        let mut times = Vec::new();
        for _ in 0..3 {
            let (built, sec) =
                spans.record("linalg.build", None, None, || secs(|| gen::poisson2d(grid)));
            if built != *a {
                failures.push(format!(
                    "grid {grid}: rebuilding its operator gives a different matrix"
                ));
            }
            times.push(1e3 * sec);
        }
        per_op.push(median(&times));
    }
    Metric::new(
        "linalg.build_ms",
        median(&per_op),
        "ms",
        format!("(gen::poisson2d per grid, median over grids {SMALL_GRIDS:?})"),
    )
}
