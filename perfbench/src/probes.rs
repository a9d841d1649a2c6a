//! Single calls into each layer, timed from outside: `vr-linalg` kernels,
//! `vr-par` epochs and reductions, `vr-cg` solves with their certification,
//! and the `vr-svc` wire codec.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vr_cg::block::BlockCg;
use vr_cg::registry::keyed_variants;
use vr_cg::SolveOptions;
use vr_linalg::kernels::{self, DotMode};
use vr_linalg::{gen, CsrMatrix, LinearOperator};
use vr_obs::Tracer;
use vr_par::Team;
use vr_svc::{Completed, Event, JobSpec, Request};

use crate::stats::median;

/// Seconds a closure takes.
pub fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| secs(&mut f).1).collect();
    median(&times)
}

/// The eleven registry keys, in registry order.
pub fn registry_keys() -> Vec<&'static str> {
    keyed_variants(&gen::poisson2d(2))
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

/// Median microseconds of one empty epoch on `team`.
pub fn epoch_us(team: &Team) -> f64 {
    let job = |_shard: usize| {};
    1e6 * median_secs(2000, || team.try_run(&job).expect("team is healthy"))
}

/// Per-call costs of one operator's kernels.
pub struct OpCost {
    pub matvec_ms: f64,
    /// Computed bytes one CSR matvec moves: values, column indices and
    /// row pointers once, `x` read once, `y` written once.
    pub matvec_bytes: f64,
    pub vector_ms: f64,
    pub dot_ms: f64,
}

/// Time one matvec as the solver issues it on `team`, one fused CG
/// update-plus-dot, and one Tree dot, all at the operator's length.
pub fn op_cost(a: &CsrMatrix, team: &Team, reps: usize) -> OpCost {
    let n = a.nrows();
    let x = gen::rand_vector(n, 1);
    let mut y = vec![0.0; n];
    let matvec = median_secs(reps, || a.apply_team(Some(team), black_box(&x), &mut y));
    let (p, w) = (x.clone(), y.clone());
    let (mut xs, mut r) = (vec![0.0; n], x.clone());
    let vector = median_secs(reps, || {
        black_box(vr_linalg::fused::par_update_xr_in(
            Some(team),
            1e-9,
            &p,
            &w,
            &mut xs,
            &mut r,
        ));
    });
    let dot = median_secs(reps, || {
        black_box(vr_par::reduce::par_dot_in(Some(team), black_box(&p), &w));
    });
    OpCost {
        matvec_ms: 1e3 * matvec,
        matvec_bytes: (16 * a.nnz() + 8 * (n + 1) + 16 * n) as f64,
        vector_ms: 1e3 * vector,
        dot_ms: 1e3 * dot,
    }
}

/// Add `sigma` to every diagonal entry (a backward-Euler shift).
pub fn shift_diagonal(a: &mut CsrMatrix, sigma: f64) {
    let diag: Vec<usize> = (0..a.nrows())
        .map(|r| {
            let (lo, hi) = (a.indptr()[r], a.indptr()[r + 1]);
            lo + a.indices()[lo..hi]
                .binary_search(&r)
                .expect("generated rows store their diagonal")
        })
        .collect();
    let data = a.data_mut();
    for k in diag {
        data[k] += sigma;
    }
}

/// Options every library solve shares with the daemon: Tree dots on a
/// persistent team, so answers are bit-identical to served ones at any
/// width.
pub fn tree_opts(tol: f64, max_iters: usize, team: &Arc<Team>) -> SolveOptions {
    SolveOptions::default()
        .with_tol(tol)
        .with_max_iters(max_iters)
        .with_dot_mode(DotMode::Tree)
        .with_team(Arc::clone(team))
}

/// One library solve (registry variant for one column, `BlockCg` for
/// several), with what the checks and per-layer metrics need.
pub struct LibSolve {
    pub secs: f64,
    pub iterations: usize,
    /// Inner products computed from vectors (exact under Tree dots).
    pub dots: usize,
    pub converged: bool,
    pub termination: String,
    /// Final recursive residual per column.
    pub residuals: Vec<f64>,
    /// The tolerance the solve ran at.
    pub tol: f64,
    /// `‖b − A·x‖ / ‖b‖` of the column furthest past its bound, and that
    /// column's rounding slack (see [`library_solve`]).
    pub true_rel: f64,
    pub slack: f64,
    /// Logical bytes and the critical-path reduction-wait share from the
    /// attached tracer (0 untraced).
    pub traced_bytes: u64,
    pub reduction_wait: f64,
}

impl LibSolve {
    /// Why the solve fails certification: it did not converge, or reported
    /// convergence while its true residual misses its tolerance by more than
    /// the rounding error of computing that residual.
    pub fn uncertified(&self) -> Option<String> {
        if !self.converged {
            Some(format!("did not converge ({})", self.termination))
        } else if self.true_rel > self.tol + self.slack {
            Some(format!(
                "reports {} but its true relative residual {:.3e} misses tol {:.0e} \
                 (rounding slack {:.1e})",
                self.termination, self.true_rel, self.tol, self.slack
            ))
        } else {
            None
        }
    }
}

/// Largest absolute row sum, `‖A‖∞` (equal to `‖A‖₁` for the symmetric
/// operators here, so it bounds `‖|A|‖₂`).
fn inf_norm(a: &CsrMatrix) -> f64 {
    a.indptr()
        .windows(2)
        .map(|w| a.data()[w[0]..w[1]].iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Solve `cols` with `variant` (a registry key, or `"block"`), then
/// compute each column's true residual. A column's rounding slack is the
/// error bound of computing `b − A·x` in floating point,
/// `(k + 1)·ε·(‖A‖∞‖x‖ + ‖b‖) / ‖b‖` with `k` the longest row: rounding
/// level only, so a solve that reports convergence early is caught. It
/// matters only past the tolerance, so `‖A‖∞` is computed only then.
pub fn library_solve(
    a: &CsrMatrix,
    variant: &str,
    cols: &[Vec<f64>],
    opts: &SolveOptions,
    tracer: Option<&Arc<Tracer>>,
) -> Result<LibSolve, String> {
    let opts = match tracer {
        Some(t) => opts.clone().with_tracer(Arc::clone(t)),
        None => opts.clone(),
    };
    let name = vr_svc::scheduler::termination_name;
    let (xs, mut out) = if variant == "block" {
        let (res, secs) = secs(|| BlockCg::new().solve(a, cols, &opts));
        let residuals = res
            .residual_norms
            .iter()
            .map(|h| *h.last().unwrap_or(&f64::NAN))
            .collect();
        let solve = LibSolve {
            secs,
            iterations: res.iterations,
            dots: res.counts.dots,
            converged: res.converged,
            termination: name(res.termination).into(),
            residuals,
            tol: 0.0,
            true_rel: 0.0,
            slack: 0.0,
            traced_bytes: 0,
            reduction_wait: 0.0,
        };
        (res.x, solve)
    } else {
        let [b] = cols else {
            return Err(format!(
                "variant {variant} takes one column, got {}",
                cols.len()
            ));
        };
        let solver = keyed_variants(a)
            .into_iter()
            .find_map(|(key, s)| (key == variant).then_some(s))
            .ok_or_else(|| format!("unknown variant {variant}"))?;
        let (res, secs) = secs(|| solver.solve(a, b, None, &opts));
        let solve = LibSolve {
            secs,
            iterations: res.iterations,
            dots: res.counts.dots,
            converged: res.converged,
            termination: name(res.termination).into(),
            residuals: vec![res.final_residual],
            tol: 0.0,
            true_rel: 0.0,
            slack: 0.0,
            traced_bytes: 0,
            reduction_wait: 0.0,
        };
        (vec![res.x], solve)
    };
    let team = opts.team();
    let (mut norm_a, k) = (None, a.max_row_nnz() as f64);
    out.tol = opts.tol;
    let mut worst = f64::NEG_INFINITY;
    for (x, b) in xs.iter().zip(cols) {
        let mut r = vec![0.0; x.len()];
        a.apply_team(team.as_deref(), x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let nb = kernels::norm2(b);
        let true_rel = kernels::norm2(&r) / nb;
        let slack = if true_rel > out.tol {
            let norm_a = *norm_a.get_or_insert_with(|| inf_norm(a));
            (k + 1.0) * f64::EPSILON * (norm_a * kernels::norm2(x) + nb) / nb
        } else {
            0.0
        };
        if true_rel - slack > worst {
            worst = true_rel - slack;
            (out.true_rel, out.slack) = (true_rel, slack);
        }
    }
    if let Some(t) = tracer {
        let report = vr_obs::critpath::attribute(&t.drain());
        out.traced_bytes = report.total_bytes();
        out.reduction_wait = report.reduction_wait_share();
    }
    Ok(out)
}

/// Wire cost of one served job, measured on its exact messages.
pub struct WireCost {
    pub decode_ms: f64,
    pub fingerprint_ms: f64,
    pub encode_ms: f64,
    pub bytes: usize,
}

/// Encode the job's submit line and every event it received, decode the
/// submit line as the daemon does, and fingerprint its operator. Fails if
/// the decoded request differs from the one encoded.
pub fn wire_cost(spec: &JobSpec, job_id: u64, done: &Completed) -> Result<WireCost, String> {
    let request = Request::Submit {
        tag: 1,
        job: spec.clone(),
    };
    let mut events = vec![Event::Accepted {
        tag: 1,
        job_id,
        queue_depth: 1,
    }];
    events.extend(
        done.progress
            .iter()
            .map(|&(iter, residual)| Event::Progress {
                job_id,
                iter,
                residual,
            }),
    );
    events.push(Event::Done {
        job_id,
        termination: done.termination.clone(),
        converged: done.converged,
        iterations: done.iterations,
        residuals: done.residuals.clone(),
        solve_ms: done.solve_ms,
        routing: done.routing.clone(),
        phase_shares: done.phase_shares,
    });
    let (line, enc_request) = secs(|| request.to_json().compact());
    let (lines, enc_events) = secs(|| {
        events
            .iter()
            .map(|e| e.to_json().compact())
            .collect::<Vec<_>>()
    });
    let (decoded, decode) = secs(|| {
        vr_obs::json::parse(&line)
            .map_err(|e| format!("{e:?}"))
            .and_then(|doc| Request::from_json(&doc))
    });
    if decoded.as_ref() != Ok(&request) {
        return Err(format!(
            "job {job_id}: submit line does not decode to the request sent"
        ));
    }
    let (fp, fingerprint) = secs(|| spec.operator.fingerprint());
    black_box(fp);
    Ok(WireCost {
        decode_ms: 1e3 * decode,
        fingerprint_ms: 1e3 * fingerprint,
        encode_ms: 1e3 * (enc_request + enc_events),
        bytes: line.len() + 1 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certification_allows_rounding_slack_and_nothing_more() {
        let team = Arc::new(Team::new(1));
        let a = gen::poisson2d(16);
        let b = gen::rand_vector(a.nrows(), 3);
        let opts = tree_opts(1e-8, 1000, &team);
        let mut s = library_solve(&a, "standard", &[b], &opts, None).unwrap();
        assert_eq!(s.uncertified(), None);
        assert!(s.true_rel <= 1e-8 && s.tol == 1e-8);
        // A convergence claim whose true residual misses tol by more than
        // the rounding slack fails, as does a solve that did not converge.
        (s.true_rel, s.slack) = (1.19e-8, 1e-12);
        assert!(s.uncertified().unwrap().contains("misses tol"));
        s.converged = false;
        assert!(s.uncertified().unwrap().starts_with("did not converge"));
    }
}
