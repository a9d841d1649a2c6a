//! Breakdown recovery: policy, restart ladder, and the [`Recoverable`]
//! wrapper.
//!
//! The look-ahead restructuring buys parallelism at the price of fragility
//! (deep moment windows amplify round-off and any injected fault). The
//! recovery ladder makes that trade safe: when a guarded solve fails, it
//! warm-restarts from the best iterate so far with the look-ahead depth
//! **backed off** — `k → k/2 → … → standard CG` — under a bounded retry
//! budget. Standard CG is the floor of the ladder because it is the
//! self-correcting member of the family.

use crate::instrument::{OpCounts, RecoveryStats};
use crate::solver::{CgVariant, SolveOptions, SolveResult, Termination};
use vr_linalg::LinearOperator;

/// Knobs for the recovery machinery. Attach to a solve with
/// [`SolveOptions::with_recovery`]. Standard CG's in-loop residual guard
/// runs under any policy with fixed settings (its check period and
/// stagnation window are constants in [`crate::resilience::guard`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget for the restart ladder. Every restart backs off the
    /// look-ahead depth (`k → k/2 → … → standard CG`).
    pub max_restarts: usize,
    /// Restart from the best finite iterate seen so far (`true`, the
    /// default) or from the caller's `x0` (`false` — the classic cold
    /// restart, the baseline the checkpoint/rollback rung is measured
    /// against in E20).
    pub warm_restart: bool,
    /// Snapshot minimal solver state into a
    /// [`crate::resilience::CheckpointRing`] every this many iterations
    /// (0 = checkpointing disabled, the classic ladder). With a period C,
    /// guard-detected corruption rolls the solve back ≤ C iterations —
    /// the rung of the recovery ladder *above* restart.
    pub checkpoint_period: usize,
    /// Budget of checkpoint rollbacks per solve attempt; once spent, the
    /// next corruption falls through to the restart ladder as before.
    pub max_rollbacks: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_restarts: 8,
            warm_restart: true,
            checkpoint_period: 0,
            max_rollbacks: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Set the restart budget.
    #[must_use]
    pub fn with_max_restarts(mut self, n: usize) -> Self {
        self.max_restarts = n;
        self
    }

    /// Enable or disable warm restarts (restart from the best finite
    /// iterate rather than from `x0`).
    #[must_use]
    pub fn with_warm_restart(mut self, on: bool) -> Self {
        self.warm_restart = on;
        self
    }

    /// Set the checkpoint period (0 disables checkpoint/rollback).
    #[must_use]
    pub fn with_checkpoint_period(mut self, c: usize) -> Self {
        self.checkpoint_period = c;
        self
    }

    /// Set the per-attempt rollback budget.
    #[must_use]
    pub fn with_max_rollbacks(mut self, n: usize) -> Self {
        self.max_rollbacks = n;
        self
    }
}

/// Solve with the full recovery ladder around `variant`.
///
/// Each attempt runs the variant's own guarded solve. On a failed attempt
/// (breakdown, stagnation, divergence) the ladder warm-restarts from the
/// best finite iterate seen so far, backing off the look-ahead depth via
/// [`CgVariant::backoff`] at every restart, until the retry
/// budget `policy.max_restarts` is spent or the total iteration budget
/// `opts.max_iters` runs out. A convergence reached after ≥ 1 restart is
/// reported as [`Termination::RecoveredConverged`].
#[must_use]
pub fn solve_with_recovery(
    variant: &dyn CgVariant,
    a: &dyn LinearOperator,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let policy = opts.recovery.clone().unwrap_or_default();
    let mut inner_opts = opts.clone();
    inner_opts.recovery = Some(policy.clone());

    let mut owned: Option<Box<dyn CgVariant>> = None;
    let mut x_start: Option<Vec<f64>> = x0.map(<[f64]>::to_vec);
    let mut best_start = f64::INFINITY;
    let mut total_counts = OpCounts::default();
    let mut all_norms: Vec<f64> = Vec::new();
    let mut total_iters = 0usize;
    let mut stats = RecoveryStats::default();
    let mut restarts = 0usize;

    loop {
        let v: &dyn CgVariant = owned.as_deref().unwrap_or(variant);
        inner_opts.max_iters = opts.max_iters.saturating_sub(total_iters).max(1);
        let res = v.solve(a, b, x_start.as_deref(), &inner_opts);

        total_iters += res.iterations;
        total_counts = total_counts + res.counts;
        stats.faults_detected += res.recovery.faults_detected;
        stats.replacements += res.recovery.replacements;
        stats.rollbacks += res.recovery.rollbacks;
        if all_norms.is_empty() {
            all_norms.extend_from_slice(&res.residual_norms);
        } else {
            // an attempt's first recorded norm is its (warm) initial
            // residual, already recorded as the previous attempt's final
            all_norms.extend_from_slice(&res.residual_norms[1.min(res.residual_norms.len())..]);
        }

        let done =
            res.converged || restarts >= policy.max_restarts || total_iters >= opts.max_iters;
        if done {
            let termination = if res.converged && restarts > 0 {
                Termination::RecoveredConverged
            } else {
                res.termination
            };
            stats.restarts = restarts;
            stats.final_k = v.depth();
            return crate::driver::result(
                res.x,
                termination,
                total_iters,
                all_norms,
                total_counts,
                stats,
            );
        }

        // ----- prepare the next rung of the ladder -----
        restarts += 1;
        total_counts.restarts += 1;

        // Warm start from the attempt's iterate if it is finite AND at
        // least as good (by true residual — the attempt's certified
        // `final_residual`) as the start it came from: never let a faulted
        // attempt drag the ladder backwards. A cold-restart policy skips
        // this entirely and replays from `x0`.
        let rn = res.final_residual;
        if policy.warm_restart && res.x.iter().all(|v| v.is_finite()) && rn < best_start {
            best_start = rn;
            x_start = Some(res.x);
        }

        if let Some(next) = v.backoff() {
            owned = Some(next);
        }
    }
}

/// Wrapper turning any variant into its recovered version, so experiment
/// sweeps can treat "look-ahead k=4 with recovery" as just another
/// [`CgVariant`].
#[derive(Debug, Clone)]
pub struct Recoverable<V> {
    inner: V,
}

impl<V: CgVariant> Recoverable<V> {
    /// Wrap `inner` in the recovery ladder.
    #[must_use]
    pub fn new(inner: V) -> Self {
        Recoverable { inner }
    }
}

impl<V: CgVariant> CgVariant for Recoverable<V> {
    fn name(&self) -> String {
        format!("recoverable({})", self.inner.name())
    }

    fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        solve_with_recovery(&self.inner, a, b, x0, opts)
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookahead::LookaheadCg;
    use crate::standard::StandardCg;
    use vr_linalg::gen;

    #[test]
    fn policy_builders() {
        let p = RecoveryPolicy::default()
            .with_max_restarts(3)
            .with_warm_restart(false)
            .with_checkpoint_period(16)
            .with_max_rollbacks(4);
        assert_eq!(p.max_restarts, 3);
        assert!(!p.warm_restart);
        assert_eq!(p.checkpoint_period, 16);
        assert_eq!(p.max_rollbacks, 4);
        assert!(RecoveryPolicy::default().warm_restart);
    }

    #[test]
    fn fault_free_recovery_is_transparent() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = SolveOptions::default().with_tol(1e-9);
        let plain = StandardCg::new().solve(&a, &b, None, &opts);
        let rec = solve_with_recovery(&StandardCg::new(), &a, &b, None, &opts);
        assert_eq!(rec.termination, Termination::Converged);
        assert_eq!(rec.recovery.restarts, 0);
        // residual replacement at the periodic checkpoints must not hurt
        assert!(rec.iterations <= plain.iterations + 5);
        assert!(rec.true_residual(&a, &b) < 1e-7);
    }

    #[test]
    fn ladder_backs_off_to_standard_on_indefinite() {
        // an indefinite matrix defeats every rung: the ladder must walk
        // k=4 → 2 → 1 → standard and stop within budget, never "converge"
        let a = gen::tridiag_toeplitz(12, 0.5, -1.0);
        let b = gen::rand_vector(12, 3);
        let opts =
            SolveOptions::default().with_recovery(RecoveryPolicy::default().with_max_restarts(4));
        let res = solve_with_recovery(&LookaheadCg::new(4), &a, &b, None, &opts);
        assert!(!res.converged);
        assert_eq!(res.recovery.restarts, 4);
        assert_eq!(res.recovery.final_k, 0, "ladder must end at standard CG");
    }

    #[test]
    fn recoverable_wrapper_names_and_delegates() {
        let r = Recoverable::new(LookaheadCg::new(2));
        assert_eq!(r.name(), "recoverable(lookahead-cg(k=2))");
        assert_eq!(r.depth(), 2);
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let res = r.solve(&a, &b, None, &SolveOptions::default().with_tol(1e-8));
        assert!(res.converged);
    }
}
