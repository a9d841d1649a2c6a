//! Checkpoint/rollback: the rung of the recovery ladder *above* restart.
//!
//! A restart throws away every iteration since the beginning of the attempt;
//! a checkpoint rollback throws away at most `C` iterations. The ring keeps
//! a small number of snapshots of the *minimal* per-variant state (following
//! Cools et al., the iterate, residual, direction and the recurrence scalars
//! are enough — everything else is recomputable), saved every `C` iterations
//! into reused scratch so the hot path never allocates once both slots
//! hold a snapshot. Each variant declares that state once (the iteration
//! driver's `Checkpoint` declarations).
//!
//! The ring holds two slots: a rollback consumes the newest valid snapshot,
//! so a second corruption inside the same replay window falls back to the
//! previous one instead of spinning on a possibly-tainted state. Replaying
//! past a checkpoint boundary re-saves a slot. The iteration driver never
//! saves a state holding a non-finite value, so every snapshot is finite;
//! a silently corrupted but finite one is for the guards to catch after
//! the rollback.

use super::recovery::RecoveryPolicy;
use crate::solver::SolveOptions;

/// Where a solve's residual history stands: how many norms it holds and
/// the last of them. The iteration driver tracks it whether or not the
/// norms themselves are recorded, so a snapshot restores the same final
/// norm either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryMark {
    /// Norms recorded so far (the history's length when recording).
    pub len: usize,
    /// The last of them; NaN while `len == 0`.
    pub last: f64,
}

impl Default for HistoryMark {
    fn default() -> Self {
        HistoryMark {
            len: 0,
            last: f64::NAN,
        }
    }
}

/// One snapshot slot: the iteration it was taken at, the residual
/// history's mark then, the vector state, and the recurrence scalars.
/// The buffers are sized by the first save into the slot and reused after,
/// so the iteration path allocates only while the two slots first fill.
#[derive(Debug, Clone, Default)]
struct Slot {
    iter: usize,
    history: HistoryMark,
    valid: bool,
    vecs: Vec<Vec<f64>>,
    scalars: Vec<f64>,
}

/// Ring of solver-state snapshots (see module docs). The iteration driver
/// saves and restores each variant's declared checkpoint state through it.
#[derive(Debug, Clone)]
pub struct CheckpointRing {
    period: usize,
    max_rollbacks: usize,
    taken: usize,
    next: usize,
    slots: [Slot; 2],
}

impl CheckpointRing {
    /// Ring with `period`-iteration checkpoints and a `max_rollbacks`
    /// budget.
    #[must_use]
    pub fn new(period: usize, max_rollbacks: usize) -> Self {
        CheckpointRing {
            period: period.max(1),
            max_rollbacks,
            taken: 0,
            next: 0,
            slots: Default::default(),
        }
    }

    /// Build from a [`RecoveryPolicy`]; `None` when `checkpoint_period == 0`
    /// (checkpointing disabled — the classic restart-only ladder).
    #[must_use]
    pub fn from_policy(policy: &RecoveryPolicy) -> Option<Self> {
        (policy.checkpoint_period > 0)
            .then(|| CheckpointRing::new(policy.checkpoint_period, policy.max_rollbacks))
    }

    /// Is a checkpoint due at `iter`? (Every `period` iterations, including
    /// iteration 0 so a rollback target always exists.)
    #[must_use]
    pub fn due(&self, iter: usize) -> bool {
        iter.is_multiple_of(self.period)
    }

    /// Snapshot `vecs`/`scalars` as the state at `iter`, with the residual
    /// history at `history`. Traced as [`vr_obs::SpanKind::Checkpoint`].
    pub fn save(
        &mut self,
        opts: &SolveOptions,
        iter: usize,
        history: HistoryMark,
        vecs: &[&mut [f64]],
        scalars: &[&mut f64],
    ) {
        let slot_idx = self.next;
        self.next = (self.next + 1) % self.slots.len();
        let slot = &mut self.slots[slot_idx];
        opts.span(vr_obs::SpanKind::Checkpoint, || {
            slot.vecs.resize_with(vecs.len(), Vec::new);
            for (dst, src) in slot.vecs.iter_mut().zip(vecs) {
                dst.clear();
                dst.extend_from_slice(src);
            }
            slot.scalars.clear();
            slot.scalars.extend(scalars.iter().map(|s| **s));
            slot.iter = iter;
            slot.history = history;
            slot.valid = true;
        });
    }

    /// Restore the newest valid snapshot into `vecs`/`scalars`, consuming
    /// it, and return `(iteration, history mark)` as saved. `None` when
    /// the rollback budget is spent or no valid snapshot remains — the
    /// caller then falls through to the restart ladder. Traced as
    /// [`vr_obs::SpanKind::Recovery`].
    pub fn rollback(
        &mut self,
        opts: &SolveOptions,
        vecs: &mut [&mut [f64]],
        scalars: &mut [&mut f64],
    ) -> Option<(usize, HistoryMark)> {
        if self.taken >= self.max_rollbacks {
            return None;
        }
        let slot_idx = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid)
            .max_by_key(|(_, s)| s.iter)
            .map(|(i, _)| i)?;
        let slot = &mut self.slots[slot_idx];
        debug_assert_eq!(vecs.len(), slot.vecs.len());
        debug_assert_eq!(scalars.len(), slot.scalars.len());
        opts.span(vr_obs::SpanKind::Recovery, || {
            for (dst, src) in vecs.iter_mut().zip(&slot.vecs) {
                dst.copy_from_slice(src);
            }
            for (dst, src) in scalars.iter_mut().zip(&slot.scalars) {
                **dst = *src;
            }
        });
        slot.valid = false;
        // next save overwrites the consumed slot first
        self.next = slot_idx;
        self.taken += 1;
        Some((slot.iter, slot.history))
    }

    /// Checkpoint period in iterations.
    #[must_use]
    pub fn period(&self) -> usize {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_policy_respects_zero_period() {
        let p = RecoveryPolicy::default();
        assert!(CheckpointRing::from_policy(&p).is_none());
        let p = p.with_checkpoint_period(10);
        let ring = CheckpointRing::from_policy(&p).unwrap();
        assert_eq!(ring.period(), 10);
    }
}
