//! The shared breakdown/recovery guard.
//!
//! Before this module existed every variant carried its own ad-hoc
//! `is_finite()` / positivity checks. They are now centralized here so
//! that (a) every solver classifies failures the same way, and (b) the
//! recovery machinery has one choke point to observe faults at.
//!
//! Two layers:
//!
//! * **Scalar guards** ([`check_pivot`], [`check_finite`], [`all_finite`],
//!   [`guarded_dot`]) — pure classification of suspicious scalars, plus
//!   detect-and-retry for corrupted reductions.
//! * **[`ResidualGuard`]** — an in-loop monitor owning the recovery
//!   policy's *numerical* defenses: periodic true-residual recomputation,
//!   residual replacement, stagnation and divergence detection.

use crate::instrument::RecoveryStats;
use crate::resilience::recovery::RecoveryPolicy;
use crate::solver::{SolveOptions, Termination};
use vr_linalg::kernels;
use vr_linalg::LinearOperator;

/// How a scalar failed its guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownKind {
    /// NaN or ±∞ where a finite value is required.
    NonFinite,
    /// A pivot quantity (`pᵀAp`, `rᵀr` in a denominator, a Gram pivot)
    /// that must be strictly positive for an SPD system was ≤ 0.
    NonPositivePivot,
}

impl BreakdownKind {
    /// The [`Termination`] this failure maps to.
    #[must_use]
    pub fn termination(self) -> Termination {
        Termination::Breakdown
    }
}

/// Guard a pivot quantity: finite **and** strictly positive.
///
/// # Errors
/// [`BreakdownKind::NonFinite`] for NaN/∞, [`BreakdownKind::NonPositivePivot`]
/// for a finite value ≤ 0.
pub fn check_pivot(v: f64) -> Result<f64, BreakdownKind> {
    if !v.is_finite() {
        Err(BreakdownKind::NonFinite)
    } else if v <= 0.0 {
        Err(BreakdownKind::NonPositivePivot)
    } else {
        Ok(v)
    }
}

/// Guard a scalar that only needs to be finite (residual norms, β, …).
///
/// # Errors
/// [`BreakdownKind::NonFinite`] for NaN/∞.
pub fn check_finite(v: f64) -> Result<f64, BreakdownKind> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(BreakdownKind::NonFinite)
    }
}

/// Whether every scalar in the iterator is finite (block solvers guard
/// whole residual-norm vectors at once).
pub fn all_finite<I: IntoIterator<Item = f64>>(vals: I) -> bool {
    vals.into_iter().all(f64::is_finite)
}

/// Retries for a reduction that produced a non-finite value.
const MAX_REDUCTION_RETRIES: usize = 2;

/// Inner product with detect-and-retry.
///
/// Computes `xᵀy` through the options' fault path. If the result is
/// non-finite *and* a recovery policy is active, the reduction is
/// re-executed (still through the injector — a retry can fault too) up to
/// `MAX_REDUCTION_RETRIES` times, counting each detection in `stats`.
/// This models the checksum-detect-and-recompute defense for reductions:
/// a NaN/∞ in a global sum is detectable at the combine node, and
/// re-running one reduction is far cheaper than restarting the solve.
#[must_use]
pub fn guarded_dot(opts: &SolveOptions, x: &[f64], y: &[f64], stats: &mut RecoveryStats) -> f64 {
    let v = opts.dot(x, y);
    retry_reduction(opts, x, y, v, stats)
}

/// Fused matvec+dot ([`SolveOptions::matvec_dot`]) with detect-and-retry
/// on the reduction.
///
/// `y` holds `A·x` after the call, so a non-finite combined value is
/// repaired by re-running only the *reduction* (`xᵀy` through the fault
/// path) — the matvec result is already materialized and is not recomputed.
/// Retries are not tallied (matching [`guarded_dot`]).
#[must_use]
pub fn guarded_matvec_dot(
    opts: &SolveOptions,
    a: &dyn LinearOperator,
    x: &[f64],
    y: &mut [f64],
    counts: &mut crate::instrument::OpCounts,
    stats: &mut RecoveryStats,
) -> f64 {
    let v = opts.matvec_dot(a, x, y, counts);
    retry_reduction(opts, x, y, v, stats)
}

/// Fused solution/residual update ([`SolveOptions::update_xr`]) with
/// detect-and-retry on the `(r, r)` reduction.
///
/// The vector updates land exactly once; only the reduction re-runs on a
/// detected fault, reading the already-updated `r`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn guarded_update_xr(
    opts: &SolveOptions,
    lambda: f64,
    p: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    counts: &mut crate::instrument::OpCounts,
    stats: &mut RecoveryStats,
) -> f64 {
    let v = opts.update_xr(lambda, p, w, x, r, counts);
    retry_reduction(opts, r, r, v, stats)
}

/// Fused shared-left dot pair ([`SolveOptions::dot2`]) with independent
/// detect-and-retry on each component reduction.
#[must_use]
pub fn guarded_dot2(
    opts: &SolveOptions,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    counts: &mut crate::instrument::OpCounts,
    stats: &mut RecoveryStats,
) -> (f64, f64) {
    let (dy, dz) = opts.dot2(x, y, z, counts);
    (
        retry_reduction(opts, x, y, dy, stats),
        retry_reduction(opts, x, z, dz, stats),
    )
}

/// Shared retry tail: if `v` is non-finite and recovery is active,
/// re-execute the reduction `xᵀy` (still through the injector) up to
/// [`MAX_REDUCTION_RETRIES`] times. The same policy [`guarded_dot`]
/// applies after its first attempt.
fn retry_reduction(
    opts: &SolveOptions,
    x: &[f64],
    y: &[f64],
    v: f64,
    stats: &mut RecoveryStats,
) -> f64 {
    if v.is_finite() || opts.recovery.is_none() {
        return v;
    }
    let mut last = v;
    for _ in 0..MAX_REDUCTION_RETRIES {
        stats.faults_detected += 1;
        last = opts.dot(x, y);
        if last.is_finite() {
            return last;
        }
    }
    stats.faults_detected += 1;
    last
}

/// What the in-loop monitor tells the solver to do after inspecting one
/// iteration.
#[derive(Debug)]
pub enum GuardSignal {
    /// All checks passed — continue the recurrence.
    Proceed,
    /// Replace the recursive residual with the freshly computed true
    /// residual `b − A·x` (and restart the direction from it). Carries the
    /// new residual vector and its squared norm.
    Replace {
        /// The true residual `b − A·x`.
        r: Vec<f64>,
        /// Its squared norm `‖r‖²`.
        rr: f64,
    },
    /// Stop with the given termination (stagnated, diverged, or broken
    /// down beyond repair). Convergence is never signalled here: a
    /// replacement that lands below tolerance surfaces as `Replace`, and
    /// the variant's own threshold check converges on it.
    Halt(Termination),
}

/// In-loop residual monitor implementing the numerical half of a
/// [`RecoveryPolicy`]: periodic true-residual recomputation, residual
/// replacement, stagnation and divergence detection.
pub struct ResidualGuard<'a> {
    a: &'a dyn LinearOperator,
    b: &'a [f64],
    policy: RecoveryPolicy,
    initial_rr: f64,
    best_rr: f64,
    since_progress: usize,
    /// Scratch for `A·x` during true-residual recomputation, lazily sized
    /// on first use and reused across inspections.
    ax: Vec<f64>,
    /// Counters surfaced through `SolveResult::recovery`.
    pub stats: RecoveryStats,
    /// Extra matvecs spent on true-residual recomputation (for `OpCounts`).
    pub extra_matvecs: usize,
}

impl<'a> ResidualGuard<'a> {
    /// Monitor for the system `A·x = b`, starting from the squared
    /// initial residual norm `rr0`.
    #[must_use]
    pub fn new(a: &'a dyn LinearOperator, b: &'a [f64], policy: RecoveryPolicy, rr0: f64) -> Self {
        ResidualGuard {
            a,
            b,
            policy,
            initial_rr: rr0.max(f64::MIN_POSITIVE),
            best_rr: rr0.max(f64::MIN_POSITIVE),
            since_progress: 0,
            ax: Vec::new(),
            stats: RecoveryStats::default(),
            extra_matvecs: 0,
        }
    }

    fn true_residual(&mut self, x: &[f64]) -> (Vec<f64>, f64) {
        // Recorded through the solve thread's TLS attachment (the guard
        // has no handle on `SolveOptions`); a detached thread skips it.
        vr_obs::tls::with_span(vr_obs::SpanKind::Guard, || {
            self.ax.resize(self.b.len(), 0.0);
            self.a.apply(x, &mut self.ax);
            // The residual vector itself is still allocated: `GuardSignal::
            // Replace` hands ownership to the solver, and replacements only
            // fire on (rare) fault events — never on the per-iteration path.
            let mut r = vec![0.0; self.b.len()];
            kernels::sub(self.b, &self.ax, &mut r);
            self.extra_matvecs += 1;
            let rr = kernels::dot_serial(&r, &r);
            (r, rr)
        })
    }

    /// Inspect the state after iteration `iter` produced the recursive
    /// squared residual norm `rr` at iterate `x`.
    pub fn inspect(&mut self, iter: usize, x: &[f64], rr: f64) -> GuardSignal {
        // A non-finite iterate is beyond residual replacement: the solution
        // itself is poisoned and only a restart (the ladder) can help.
        if !all_finite(x.iter().copied()) {
            return GuardSignal::Halt(Termination::Breakdown);
        }

        // 1) detectable fault in the residual recurrence → replace
        if !rr.is_finite() {
            self.stats.faults_detected += 1;
            return self.replace(x);
        }

        // 2) divergence: the recursive residual exploded relative to the
        //    start. Validate against the true residual before giving up —
        //    a corrupted recurrence can *look* divergent while x is fine.
        let div_sq = self.policy.divergence_factor * self.policy.divergence_factor;
        if rr > div_sq * self.initial_rr {
            let (r_true, rr_true) = self.true_residual(x);
            if rr_true > div_sq * self.initial_rr {
                return GuardSignal::Halt(Termination::Diverged);
            }
            self.stats.replacements += 1;
            return self.finish_replacement(r_true, rr_true);
        }

        // 3) stagnation bookkeeping: "progress" = 1% reduction of the best
        //    squared norm seen so far.
        if rr < 0.99 * self.best_rr {
            self.best_rr = rr;
            self.since_progress = 0;
        } else {
            self.since_progress += 1;
            if self.policy.stagnation_window > 0
                && self.since_progress >= self.policy.stagnation_window
            {
                return GuardSignal::Halt(Termination::Stagnated);
            }
        }

        // 4) periodic drift check: recompute the true residual and replace
        //    if the recursive one has silently drifted away (the defense
        //    against Perturb-style silent data corruption).
        if self.policy.true_residual_period > 0
            && iter > 0
            && iter.is_multiple_of(self.policy.true_residual_period)
        {
            let (r_true, rr_true) = self.true_residual(x);
            let dev = (rr_true.max(0.0).sqrt() - rr.max(0.0).sqrt()).abs();
            if dev > self.policy.replacement_threshold * rr_true.max(0.0).sqrt().max(1e-300) {
                self.stats.replacements += 1;
                return self.finish_replacement(r_true, rr_true);
            }
        }

        GuardSignal::Proceed
    }

    /// Validate a claimed convergence (`rr ≤ threshold`) against the true
    /// residual. A corrupted reduction can *shrink* the recursive `rr`
    /// (e.g. a dropped partial sum → 0.0), so under a recovery policy a
    /// below-threshold signal is only trusted after this check.
    ///
    /// Returns `None` when the convergence is genuine; otherwise the true
    /// residual `(r, ‖r‖²)` to replace the corrupted recursive one with
    /// (the solve continues from it).
    pub fn confirm_convergence(&mut self, x: &[f64], thresh_sq: f64) -> Option<(Vec<f64>, f64)> {
        let (r_true, rr_true) = self.true_residual(x);
        if rr_true.is_finite() && rr_true <= thresh_sq {
            return None;
        }
        self.stats.faults_detected += 1;
        self.stats.replacements += 1;
        self.best_rr = self.best_rr.min(rr_true.max(f64::MIN_POSITIVE));
        self.since_progress = 0;
        Some((r_true, rr_true))
    }

    fn replace(&mut self, x: &[f64]) -> GuardSignal {
        let (r_true, rr_true) = self.true_residual(x);
        if !rr_true.is_finite() {
            return GuardSignal::Halt(Termination::Breakdown);
        }
        self.stats.replacements += 1;
        self.finish_replacement(r_true, rr_true)
    }

    fn finish_replacement(&mut self, r_true: Vec<f64>, rr_true: f64) -> GuardSignal {
        self.best_rr = self.best_rr.min(rr_true.max(f64::MIN_POSITIVE));
        self.since_progress = 0;
        GuardSignal::Replace {
            r: r_true,
            rr: rr_true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_linalg::gen;

    #[test]
    fn scalar_guards_classify() {
        assert_eq!(check_pivot(1.0), Ok(1.0));
        assert_eq!(check_pivot(0.0), Err(BreakdownKind::NonPositivePivot));
        assert_eq!(check_pivot(-2.0), Err(BreakdownKind::NonPositivePivot));
        assert_eq!(check_pivot(f64::NAN), Err(BreakdownKind::NonFinite));
        assert_eq!(check_pivot(f64::INFINITY), Err(BreakdownKind::NonFinite));
        assert_eq!(check_finite(-5.0), Ok(-5.0));
        assert_eq!(check_finite(f64::NAN), Err(BreakdownKind::NonFinite));
        assert_eq!(
            BreakdownKind::NonFinite.termination(),
            Termination::Breakdown
        );
        assert!(all_finite([1.0, 2.0]));
        assert!(!all_finite([1.0, f64::NAN]));
    }

    #[test]
    fn guard_replaces_non_finite_recursive_residual() {
        let a = gen::poisson1d(8);
        let b = vec![1.0; 8];
        let mut g = ResidualGuard::new(&a, &b, RecoveryPolicy::default(), 8.0);
        let x = vec![0.0; 8]; // true residual = b, ‖b‖² = 8
        match g.inspect(1, &x, f64::NAN) {
            GuardSignal::Replace { r, rr } => {
                assert_eq!(r, b);
                assert!((rr - 8.0).abs() < 1e-12);
            }
            other => panic!("expected Replace, got {other:?}"),
        }
        assert_eq!(g.stats.faults_detected, 1);
        assert_eq!(g.stats.replacements, 1);
    }

    #[test]
    fn guard_halts_on_poisoned_iterate() {
        let a = gen::poisson1d(4);
        let b = vec![1.0; 4];
        let mut g = ResidualGuard::new(&a, &b, RecoveryPolicy::default(), 4.0);
        let x = vec![0.0, f64::NAN, 0.0, 0.0];
        assert!(matches!(
            g.inspect(1, &x, 1.0),
            GuardSignal::Halt(Termination::Breakdown)
        ));
    }

    #[test]
    fn guard_detects_stagnation_and_divergence() {
        let a = gen::poisson1d(4);
        let b = vec![1.0; 4];
        let policy = RecoveryPolicy::default()
            .with_stagnation_window(5)
            .with_true_residual_period(0);
        let mut g = ResidualGuard::new(&a, &b, policy, 4.0);
        let x = vec![0.1; 4];
        let mut halted = None;
        for it in 1..20 {
            if let GuardSignal::Halt(t) = g.inspect(it, &x, 4.0) {
                halted = Some((it, t));
                break;
            }
        }
        let (it, t) = halted.expect("must stagnate");
        assert_eq!(t, Termination::Stagnated);
        assert!(it <= 6, "stagnated at iter {it}");

        // divergence: recursive AND true residual both enormous
        let mut g = ResidualGuard::new(&a, &b, RecoveryPolicy::default(), 1.0);
        let x_far = vec![1e12; 4];
        assert!(matches!(
            g.inspect(1, &x_far, 1e30),
            GuardSignal::Halt(Termination::Diverged)
        ));
    }

    #[test]
    fn confirm_convergence_rejects_fake_and_accepts_real() {
        let a = gen::poisson1d(8);
        let b = vec![1.0; 8];
        let mut g = ResidualGuard::new(&a, &b, RecoveryPolicy::default(), 8.0);
        // x = 0 with a claimed rr of 0 (a dropped reduction): spurious
        let (r, rr) = g
            .confirm_convergence(&[0.0; 8], 1e-16)
            .expect("fake convergence must be rejected");
        assert_eq!(r, b);
        assert!((rr - 8.0).abs() < 1e-12);
        assert_eq!(g.stats.faults_detected, 1);
        assert_eq!(g.stats.replacements, 1);
        // a genuinely converged iterate passes
        let dense = vr_linalg::DenseMatrix::from_rows(&a.to_dense()).unwrap();
        let exact = dense.solve_spd(&b).unwrap();
        assert!(g.confirm_convergence(&exact, 1e-16).is_none());
    }

    #[test]
    fn periodic_check_catches_silent_drift() {
        let a = gen::poisson1d(8);
        let b = vec![1.0; 8];
        let policy = RecoveryPolicy::default().with_true_residual_period(10);
        let mut g = ResidualGuard::new(&a, &b, policy, 8.0);
        let x = vec![0.0; 8]; // true ‖r‖² = 8
                              // at a non-check iteration a drifted rr passes
        assert!(matches!(g.inspect(9, &x, 0.5), GuardSignal::Proceed));
        // at the periodic checkpoint the deviation triggers replacement
        assert!(matches!(
            g.inspect(10, &x, 0.5),
            GuardSignal::Replace { .. }
        ));
        assert_eq!(g.stats.replacements, 1);
    }
}
