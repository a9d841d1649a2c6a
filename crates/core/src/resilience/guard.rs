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
//! * **[`ResidualGuard`]** — standard CG's in-loop monitor, run under any
//!   recovery policy: periodic true-residual recomputation, residual
//!   replacement, stagnation and divergence detection, on fixed settings.

use crate::instrument::RecoveryStats;
use crate::solver::{SolveOptions, Termination};
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

/// Relative norm deviation `|‖r_true‖ − ‖r_rec‖| / ‖r_true‖` above which
/// [`ResidualGuard`]'s periodic check replaces the recursive residual with
/// the true one.
const REPLACEMENT_THRESHOLD: f64 = 0.5;

/// [`ResidualGuard`] halts with [`Termination::Diverged`] when the true
/// residual norm exceeds this factor times the initial residual norm.
const DIVERGENCE_FACTOR: f64 = 1e8;

/// [`ResidualGuard`] recomputes the true residual `b − A·x` every this many
/// iterations and compares it against the recursive one: the check that
/// catches silent data corruption the finiteness guards cannot see.
const TRUE_RESIDUAL_PERIOD: usize = 25;

/// [`ResidualGuard`] halts with [`Termination::Stagnated`] after this many
/// consecutive iterations without 1% progress on the best residual.
const STAGNATION_WINDOW: usize = 400;

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

/// Shared retry tail: if `v` is non-finite and recovery is active,
/// re-execute the reduction `xᵀy` (still through the injector) up to
/// [`MAX_REDUCTION_RETRIES`] times. The same policy [`guarded_dot`]
/// applies after its first attempt; split-phase callers apply it to a
/// resolved [`vr_par::PendingScalar`]. A reduction whose operands already
/// hold a non-finite value is not re-run: every re-run would repeat the
/// NaN and draw fresh injector calls, shifting every later fault. The
/// detection is counted once and the value handed up to the guards.
pub(crate) fn retry_reduction(
    opts: &SolveOptions,
    x: &[f64],
    y: &[f64],
    v: f64,
    stats: &mut RecoveryStats,
) -> f64 {
    if v.is_finite() || opts.recovery.is_none() {
        return v;
    }
    if !all_finite(x.iter().chain(y).copied()) {
        stats.faults_detected += 1;
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
    /// residual `b − A·x` (and restart the direction from it). The guard
    /// holds the new residual ([`ResidualGuard::swap_residual`] hands it
    /// over); the signal carries its squared norm.
    Replace {
        /// The squared norm `‖b − A·x‖²` of the true residual.
        rr: f64,
    },
    /// Stop with the given termination (stagnated, diverged, or broken
    /// down beyond repair). Convergence is never signalled here: a
    /// replacement that lands below tolerance surfaces as `Replace`, and
    /// the variant's own threshold check claims it for the driver to
    /// certify.
    Halt(Termination),
}

/// In-loop residual monitor implementing the numerical half of a
/// [`crate::resilience::RecoveryPolicy`]: periodic true-residual
/// recomputation, residual replacement, stagnation and divergence
/// detection.
pub struct ResidualGuard<'a> {
    a: &'a dyn LinearOperator,
    b: &'a [f64],
    opts: &'a SolveOptions,
    /// The last true residual `b − A·x` measured, allocated once per solve.
    r_true: Vec<f64>,
    initial_rr: f64,
    best_rr: f64,
    since_progress: usize,
    /// Counters surfaced through `SolveResult::recovery`.
    pub stats: RecoveryStats,
    /// Extra matvecs spent on true-residual recomputation (for `OpCounts`).
    pub extra_matvecs: usize,
}

impl<'a> ResidualGuard<'a> {
    /// Monitor for the system `A·x = b` under the recovery policy of
    /// `opts`, starting from the squared initial residual norm `rr0`;
    /// `None` when `opts` carries no policy. True residuals take the
    /// solve's team and summation order, never its injector.
    #[must_use]
    pub fn new(
        a: &'a dyn LinearOperator,
        b: &'a [f64],
        opts: &'a SolveOptions,
        rr0: f64,
    ) -> Option<Self> {
        opts.recovery.is_some().then(|| ResidualGuard {
            a,
            b,
            opts,
            r_true: vec![0.0; b.len()],
            initial_rr: rr0.max(f64::MIN_POSITIVE),
            best_rr: rr0.max(f64::MIN_POSITIVE),
            since_progress: 0,
            stats: RecoveryStats::default(),
            extra_matvecs: 0,
        })
    }

    /// Measure `b − A·x` into the guard's own buffer (allocated in
    /// [`ResidualGuard::new`], so a periodic check allocates nothing) and
    /// return its squared norm.
    fn true_residual(&mut self, x: &[f64]) -> f64 {
        self.extra_matvecs += 1;
        let (a, b, opts, r) = (self.a, self.b, self.opts, &mut self.r_true);
        opts.span(vr_obs::SpanKind::Guard, || opts.true_rr_into(a, b, x, r))
    }

    /// Exchange `r` with the true residual behind the last
    /// [`GuardSignal::Replace`]: the solver adopts it without a copy, and
    /// the guard keeps the old buffer for its next measurement.
    pub fn swap_residual(&mut self, r: &mut Vec<f64>) {
        std::mem::swap(r, &mut self.r_true);
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
        let div_sq = DIVERGENCE_FACTOR * DIVERGENCE_FACTOR;
        if rr > div_sq * self.initial_rr {
            let rr_true = self.true_residual(x);
            if rr_true > div_sq * self.initial_rr {
                return GuardSignal::Halt(Termination::Diverged);
            }
            self.stats.replacements += 1;
            return self.finish_replacement(rr_true);
        }

        // 3) stagnation bookkeeping: "progress" = 1% reduction of the best
        //    squared norm seen so far.
        if rr < 0.99 * self.best_rr {
            self.best_rr = rr;
            self.since_progress = 0;
        } else {
            self.since_progress += 1;
            if self.since_progress >= STAGNATION_WINDOW {
                return GuardSignal::Halt(Termination::Stagnated);
            }
        }

        // 4) periodic drift check: recompute the true residual and replace
        //    if the recursive one has silently drifted away (the defense
        //    against Perturb-style silent data corruption).
        if iter > 0 && iter.is_multiple_of(TRUE_RESIDUAL_PERIOD) {
            let rr_true = self.true_residual(x);
            let dev = (rr_true.max(0.0).sqrt() - rr.max(0.0).sqrt()).abs();
            if dev > REPLACEMENT_THRESHOLD * rr_true.max(0.0).sqrt().max(1e-300) {
                self.stats.replacements += 1;
                return self.finish_replacement(rr_true);
            }
        }

        GuardSignal::Proceed
    }

    fn replace(&mut self, x: &[f64]) -> GuardSignal {
        let rr_true = self.true_residual(x);
        if !rr_true.is_finite() {
            return GuardSignal::Halt(Termination::Breakdown);
        }
        self.stats.replacements += 1;
        self.finish_replacement(rr_true)
    }

    fn finish_replacement(&mut self, rr_true: f64) -> GuardSignal {
        self.best_rr = self.best_rr.min(rr_true.max(f64::MIN_POSITIVE));
        self.since_progress = 0;
        GuardSignal::Replace { rr: rr_true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{FaultKind, RecoveryPolicy, SeededInjector};
    use std::sync::Arc;
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
        let opts = SolveOptions::default().with_recovery(RecoveryPolicy::default());
        let mut g = ResidualGuard::new(&a, &b, &opts, 8.0).unwrap();
        let x = vec![0.0; 8]; // true residual = b, ‖b‖² = 8
        match g.inspect(1, &x, f64::NAN) {
            GuardSignal::Replace { rr } => {
                let mut r = Vec::new();
                g.swap_residual(&mut r);
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
        let opts = SolveOptions::default().with_recovery(RecoveryPolicy::default());
        let mut g = ResidualGuard::new(&a, &b, &opts, 4.0).unwrap();
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
        let opts = SolveOptions::default().with_recovery(RecoveryPolicy::default());
        let mut g = ResidualGuard::new(&a, &b, &opts, 4.0).unwrap();
        // true ‖r‖² = 3.62: each periodic check stays within half the
        // recursive norm, so only the stagnation window can end this
        let x = vec![0.1; 4];
        let mut halted = None;
        for it in 1..=2 * STAGNATION_WINDOW {
            match g.inspect(it, &x, 4.0) {
                GuardSignal::Proceed => {}
                GuardSignal::Halt(t) => {
                    halted = Some((it, t));
                    break;
                }
                other => panic!("iter {it}: expected Proceed, got {other:?}"),
            }
        }
        assert_eq!(halted, Some((STAGNATION_WINDOW, Termination::Stagnated)));
        assert_eq!(g.stats.replacements, 0);

        // divergence: recursive AND true residual both enormous
        let opts = SolveOptions::default().with_recovery(RecoveryPolicy::default());
        let mut g = ResidualGuard::new(&a, &b, &opts, 1.0).unwrap();
        let x_far = vec![1e12; 4];
        assert!(matches!(
            g.inspect(1, &x_far, 1e30),
            GuardSignal::Halt(Termination::Diverged)
        ));
    }

    #[test]
    fn periodic_check_catches_silent_drift() {
        let a = gen::poisson1d(8);
        let b = vec![1.0; 8];
        let opts = SolveOptions::default().with_recovery(RecoveryPolicy::default());
        let mut g = ResidualGuard::new(&a, &b, &opts, 8.0).unwrap();
        let x = vec![0.0; 8]; // true ‖r‖² = 8
        for it in 1..TRUE_RESIDUAL_PERIOD {
            // between checks a drifted rr passes
            assert!(matches!(g.inspect(it, &x, 0.5), GuardSignal::Proceed));
        }
        // at the periodic check the deviation triggers replacement
        assert!(matches!(
            g.inspect(TRUE_RESIDUAL_PERIOD, &x, 0.5),
            GuardSignal::Replace { .. }
        ));
        assert_eq!(g.stats.replacements, 1);
    }

    #[test]
    fn a_reduction_over_a_non_finite_operand_is_not_re_run() {
        let inj = Arc::new(SeededInjector::new(3, 0.0, FaultKind::Nan));
        let opts = SolveOptions::default()
            .with_injector(Arc::clone(&inj) as _)
            .with_recovery(RecoveryPolicy::default());
        let x = [1.0, f64::NAN, 2.0];
        let y = [1.0; 3];
        let mut stats = RecoveryStats::default();
        let v = retry_reduction(&opts, &x, &y, f64::NAN, &mut stats);
        assert!(v.is_nan());
        // a re-run could only repeat the NaN, and it would draw injector
        // calls that shift every later fault
        assert_eq!(inj.calls(), 0);
        assert_eq!(stats.faults_detected, 1);
    }
}
