//! serve-small's jobs: a fixed-composition cycle of distinct jobs whose
//! order the seed shuffles anew each cycle, and the warm-up pass that ends
//! each set-up. The daemon only ever sees these generated jobs.

use std::collections::HashMap;

use vr_linalg::gen::{self, XorShift64};
use vr_linalg::CsrMatrix;
use vr_obs::json::Json;
use vr_svc::{DeadlineClass, JobSpec, OperatorSpec, RhsSpec};

use crate::probes::registry_keys;
use crate::stats::mix;

/// The committed routing table the daemon loads, `BENCH_stability.json` at
/// the root of the repository this harness is built in.
pub const ROUTING_TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_stability.json");
/// serve-small's grids: every registry variant solves each in at most
/// 20 ms, within the 40 ms delayed-ACK wait, and each stays below the
/// two-shard cutoff (2·GRAIN unknowns), so a served solve runs on the
/// scheduler thread alone.
pub const SMALL_GRIDS: [usize; 3] = [16, 32, 48];
pub const SMALL_TOL: f64 = 1e-8;
/// Keys that report convergence at `SMALL_TOL` on a grid while their true
/// residual misses it. Over 1000 seeded right-hand sides per grid,
/// `deep_pipelined_l2` did so for 316 on grid 32 and 88 on grid 48 (two
/// more did not converge there), and for none on grid 16; every other key
/// certified at `SMALL_TOL` for all of them on every grid. Pinned jobs of
/// these keys on these grids run at the router's tolerance for the key
/// instead ([`pinned_tol`]), so the workload has no failing operation; the
/// traced run still probes every key at `SMALL_TOL` on every grid and
/// reports the false claims as `cg.false_converged`.
pub const FALSE_AT_SMALL_TOL: [(&str, usize); 2] =
    [("deep_pipelined_l2", 32), ("deep_pipelined_l2", 48)];
pub const MAX_ITERS: usize = 4000;
/// The router's margin: a key reaches `tol` when ten times its committed
/// residual floor is at most `tol`.
const FLOOR_MARGIN: f64 = 10.0;
/// Least jobs per block: a window is cut into blocks of whole cycles, and
/// throughput and tail are medians over its blocks.
const BLOCK_JOBS: usize = 100;

/// One distinct job of the workload.
pub struct Template {
    /// Index into [`SMALL_GRIDS`] and the plan's operators.
    pub op: usize,
    /// Columns `rand_vector(n, rhs_seed + k)`, `k < cols`.
    pub rhs_seed: u64,
    pub cols: usize,
    pub tol: f64,
    pub class: DeadlineClass,
    pub events_every: usize,
    pub variant: Option<&'static str>,
}

/// serve-small's operators, distinct jobs and warm-up pass.
pub struct Plan {
    seed: u64,
    /// Library copies of the operators, `gen::poisson2d` per grid, for
    /// checks and probes.
    pub ops: Vec<CsrMatrix>,
    pub templates: Vec<Template>,
    /// Templates of the warm-up pass: every distinct operator, route and
    /// job shape once.
    pub warmup: Vec<usize>,
    /// Each template's job exactly as the client submits it.
    specs: Vec<JobSpec>,
}

impl Plan {
    pub fn new(seed: u64) -> Result<Plan, String> {
        let mut plan = small_plan(seed, &floors()?)?;
        plan.specs = (0..plan.templates.len())
            .map(|t| plan.build_spec(t))
            .collect();
        Ok(plan)
    }

    /// Distinct jobs per cycle.
    pub fn cycle(&self) -> usize {
        self.templates.len()
    }

    /// Template of window job `job`: each cycle holds every template once,
    /// in an order drawn from the seed and the cycle's index.
    pub fn template(&self, job: usize) -> usize {
        let n = self.cycle();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = XorShift64::new(mix(self.seed, 1_000 + (job / n) as u64));
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        order[job % n]
    }

    /// Jobs per block: the fewest whole cycles holding `BLOCK_JOBS` jobs.
    pub fn block(&self) -> usize {
        self.cycle() * BLOCK_JOBS.div_ceil(self.cycle())
    }

    pub fn dim(&self, op: usize) -> usize {
        self.ops[op].nrows()
    }

    pub fn columns(&self, t: usize) -> Vec<Vec<f64>> {
        let tp = &self.templates[t];
        let n = self.dim(tp.op);
        (0..tp.cols as u64)
            .map(|k| gen::rand_vector(n, tp.rhs_seed + k))
            .collect()
    }

    /// Right-hand side `k` of the certification probes on operator `op`,
    /// drawn from the seed apart from the jobs' own.
    pub fn probe_rhs(&self, op: usize, k: usize) -> Vec<f64> {
        let seed = mix(self.seed, 10_000 + (op * 1_000 + k) as u64) >> 12;
        gen::rand_vector(self.dim(op), seed)
    }

    /// The job of template `t` as the client submits it.
    pub fn spec(&self, t: usize) -> &JobSpec {
        &self.specs[t]
    }

    fn build_spec(&self, t: usize) -> JobSpec {
        let tp = &self.templates[t];
        JobSpec {
            operator: OperatorSpec::Poisson2d {
                grid: SMALL_GRIDS[tp.op],
            },
            rhs: RhsSpec::Seeded {
                seed: tp.rhs_seed,
                count: tp.cols,
            },
            tol: tp.tol,
            max_iters: MAX_ITERS,
            class: tp.class,
            events_every: tp.events_every,
            batch: false,
            variant: tp.variant.map(str::to_string),
        }
    }

    /// Share of jobs in `templates` (a sequence as served) whose operator
    /// appeared earlier in it.
    pub fn reuse_frac(&self, templates: &[usize]) -> f64 {
        let mut seen = vec![false; self.ops.len()];
        let reused = templates
            .iter()
            .filter(|&&t| std::mem::replace(&mut seen[self.templates[t].op], true))
            .count();
        reused as f64 / templates.len().max(1) as f64
    }
}

/// Committed residual floors per registry key.
fn floors() -> Result<HashMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(ROUTING_TABLE).map_err(|e| format!("{ROUTING_TABLE}: {e}"))?;
    let doc = vr_obs::json::parse(&text).map_err(|e| format!("{ROUTING_TABLE}: {e:?}"))?;
    let rows = doc
        .get("floor_rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ROUTING_TABLE}: no floor_rows"))?;
    Ok(rows
        .iter()
        .filter_map(|r| {
            let key = r.get("variant")?.as_str()?;
            Some((key.to_string(), r.get("floor_rel_residual")?.as_f64()?))
        })
        .collect())
}

/// Tolerance of a job pinned to `key` on `grid`: `SMALL_TOL`, unless the
/// key falsely claims convergence there ([`FALSE_AT_SMALL_TOL`]); then the
/// first decade the key reaches by the router's own rule (committed floor
/// × margin ≤ tol), never below `SMALL_TOL`.
pub fn pinned_tol(key: &str, grid: usize, floor: f64) -> f64 {
    if FALSE_AT_SMALL_TOL.contains(&(key, grid)) {
        10f64
            .powf((FLOOR_MARGIN * floor).log10().ceil())
            .max(SMALL_TOL)
    } else {
        SMALL_TOL
    }
}

fn job(op: usize, rhs_seed: u64, tol: f64, class: DeadlineClass) -> Template {
    Template {
        op,
        rhs_seed,
        cols: 1,
        tol,
        class,
        events_every: 0,
        variant: None,
    }
}

/// Per grid, one job per deadline class left to the router, one job pinned
/// to each registry key, and one multi-column (block CG) job; every third
/// template (15 singletons) streams progress, every iteration or every
/// tenth.
fn small_plan(seed: u64, floors: &HashMap<String, f64>) -> Result<Plan, String> {
    let keys = registry_keys();
    let rhs_seed = |t: usize| mix(seed, 100 + t as u64) >> 12;
    let mut templates = Vec::new();
    let mut warmup = Vec::new();
    for (gi, &grid) in SMALL_GRIDS.iter().enumerate() {
        for class in [
            DeadlineClass::Throughput,
            DeadlineClass::Latency,
            DeadlineClass::Accuracy,
        ] {
            templates.push(job(gi, rhs_seed(templates.len()), SMALL_TOL, class));
        }
        for (ki, &key) in keys.iter().enumerate() {
            let floor = floors
                .get(key)
                .ok_or_else(|| format!("{ROUTING_TABLE} has no floor for {key}"))?;
            if ki % SMALL_GRIDS.len() == gi {
                warmup.push(templates.len());
            }
            let mut tp = job(
                gi,
                rhs_seed(templates.len()),
                pinned_tol(key, grid, *floor),
                DeadlineClass::Throughput,
            );
            tp.variant = Some(key);
            templates.push(tp);
        }
        let mut multi = job(
            gi,
            rhs_seed(templates.len()),
            SMALL_TOL,
            DeadlineClass::Throughput,
        );
        multi.cols = 2 + gi % 2;
        warmup.push(templates.len());
        templates.push(multi);
    }
    for (i, tp) in templates.iter_mut().enumerate() {
        if tp.cols == 1 && i % 3 == 1 {
            tp.events_every = if i % 2 == 0 { 1 } else { 10 };
        }
    }
    Ok(Plan {
        seed,
        ops: SMALL_GRIDS.iter().map(|&g| gen::poisson2d(g)).collect(),
        templates,
        warmup,
        specs: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(plan: &Plan, jobs: usize) -> Vec<usize> {
        (0..jobs).map(|j| plan.template(j)).collect()
    }

    #[test]
    fn a_seed_yields_the_same_jobs_every_time() {
        let (a, b) = (Plan::new(7).unwrap(), Plan::new(7).unwrap());
        assert_eq!(sequence(&a, 500), sequence(&b, 500));
        assert_eq!(a.warmup, b.warmup);
        assert!(a.specs == b.specs, "specs differ");
        assert_eq!(a.probe_rhs(2, 5), b.probe_rhs(2, 5));
        assert_ne!(a.probe_rhs(2, 5), a.probe_rhs(2, 6));
        let other = Plan::new(8).unwrap();
        assert_ne!(sequence(&a, 500), sequence(&other, 500));
    }

    #[test]
    fn every_cycle_holds_every_template_once() {
        let plan = Plan::new(3).unwrap();
        let n = plan.cycle();
        let seq = sequence(&plan, 4 * n);
        for cycle in seq.chunks(n) {
            let mut sorted = cycle.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
        assert_ne!(&seq[..n], &seq[n..2 * n], "cycles are reshuffled");
        assert_eq!(plan.block() % n, 0);
        assert!(plan.block() >= BLOCK_JOBS);
    }

    #[test]
    fn serve_small_covers_every_key_and_stays_single_shard() {
        let plan = Plan::new(1).unwrap();
        let keys = registry_keys();
        for (gi, &grid) in SMALL_GRIDS.iter().enumerate() {
            let pins: Vec<_> = plan
                .templates
                .iter()
                .filter(|t| t.op == gi)
                .filter_map(|t| t.variant.map(|v| (v, t.tol)))
                .collect();
            assert_eq!(pins.iter().map(|p| p.0).collect::<Vec<_>>(), keys);
            // Every pin asks for SMALL_TOL but those that falsely claim it.
            for (key, tol) in pins {
                let loose = FALSE_AT_SMALL_TOL.contains(&(key, grid));
                assert_eq!(tol > SMALL_TOL, loose, "{key} on grid {grid} at {tol:e}");
            }
        }
        let warm_pins: Vec<_> = plan
            .warmup
            .iter()
            .filter_map(|&t| plan.templates[t].variant)
            .collect();
        assert_eq!(warm_pins.len(), keys.len());
        assert!(plan.ops.iter().all(|a| a.nrows() < 2 * vr_par::team::GRAIN));
    }
}
