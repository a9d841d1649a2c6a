//! The solver event taxonomy: span kinds, phase classes, span records.

/// What a span measures. The taxonomy is solver-specific by design — the
/// aggregator and the e19 bench reason about CG phases, not generic labels.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A matrix–vector product sweep (`apply` / `apply_team`).
    Matvec = 0,
    /// A blocked matrix-powers basis build (the whole `matrix_powers` call,
    /// caller side).
    MpkBuild = 1,
    /// A vector operation: axpy / xpay / a fused update sweep (including
    /// any dot partials it folds — the sweep is useful work either way).
    VectorOp = 2,
    /// The leaf sweep of a *deferred* reduction (`par_dot_partials_in` /
    /// `par_dot2_partials_in`): overlappable products, not a wait.
    DotLaunch = 3,
    /// An *eager* standalone inner product — leaf sweep plus tree fan-in.
    /// The caller consumes the scalar immediately, so the entire call is
    /// dependency-gated.
    DotWait = 4,
    /// A tree fan-in consuming partials that a fused sweep already folded.
    /// Only the combine gates; the producing sweep was vector work.
    DotFanIn = 5,
    /// `PendingScalar::wait` at the consume point of a deferred reduction.
    DeferredWait = 6,
    /// The scalar recurrence block of an iteration (the (*) coefficients).
    ScalarOp = 7,
    /// A residual-guard inspection / true-residual recomputation.
    Guard = 8,
    /// A breakdown-recovery action (restart, k-backoff step).
    Recovery = 9,
    /// One team barrier epoch (`Team::try_run`): recorded on the caller's
    /// shard via TLS, and — when a tracer is attached to the team — on
    /// every worker's own shard slot, so per-shard busy/idle windows are
    /// measurable. Nested inside solver-level spans; auxiliary detail, not
    /// attributed.
    TeamEpoch = 10,
    /// One MPK tile sweep on one shard (worker-side detail of `MpkBuild`).
    MpkTile = 11,
    /// Instant marker on shard 0 delimiting solver iterations.
    IterMark = 12,
    /// A `CheckpointRing` snapshot: copying minimal solver state into
    /// preallocated scratch every C iterations.
    Checkpoint = 13,
    /// The caller running a shard failed over from a dead worker
    /// (deterministic re-shard onto survivors).
    Reshard = 14,
    /// An epoch-timeout health check: the caller inspecting per-worker
    /// heartbeat counters for stragglers or dead workers.
    HealthCheck = 15,
    /// One whole-iteration fused sweep epoch (`Execution::WholeIteration`)
    /// on one shard: matvec staging, dot partials, and vector updates in a
    /// single cache-resident pass over the shard's chunks.
    IterSweep = 16,
}

/// Every kind, in discriminant order (index with `kind as usize`).
pub const ALL_KINDS: [SpanKind; 17] = [
    SpanKind::Matvec,
    SpanKind::MpkBuild,
    SpanKind::VectorOp,
    SpanKind::DotLaunch,
    SpanKind::DotWait,
    SpanKind::DotFanIn,
    SpanKind::DeferredWait,
    SpanKind::ScalarOp,
    SpanKind::Guard,
    SpanKind::Recovery,
    SpanKind::TeamEpoch,
    SpanKind::MpkTile,
    SpanKind::IterMark,
    SpanKind::Checkpoint,
    SpanKind::Reshard,
    SpanKind::HealthCheck,
    SpanKind::IterSweep,
];

/// The four buckets of the per-iteration critical-path attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseClass {
    /// Time the iteration is dependency-gated on a reduction result.
    ReductionWait,
    /// Matrix–vector product / basis-build time.
    Matvec,
    /// Overlappable vector work (axpy/xpay/fused sweeps, dot leaf sweeps).
    Vector,
    /// Everything else: scalar recurrences, guards, recovery, loop glue.
    Overhead,
}

impl SpanKind {
    /// Stable lowercase name (used by both exporters).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Matvec => "matvec",
            SpanKind::MpkBuild => "mpk_build",
            SpanKind::VectorOp => "vector_op",
            SpanKind::DotLaunch => "dot_launch",
            SpanKind::DotWait => "dot_wait",
            SpanKind::DotFanIn => "dot_fanin",
            SpanKind::DeferredWait => "deferred_wait",
            SpanKind::ScalarOp => "scalar_op",
            SpanKind::Guard => "guard",
            SpanKind::Recovery => "recovery",
            SpanKind::TeamEpoch => "team_epoch",
            SpanKind::MpkTile => "mpk_tile",
            SpanKind::IterMark => "iter",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Reshard => "reshard",
            SpanKind::HealthCheck => "health_check",
            SpanKind::IterSweep => "iter_sweep",
        }
    }

    /// Critical-path class, or `None` for auxiliary detail spans
    /// (`TeamEpoch`, `MpkTile`) that nest inside attributed spans and for
    /// the `IterMark` boundary markers.
    #[must_use]
    pub fn phase(self) -> Option<PhaseClass> {
        match self {
            SpanKind::Matvec | SpanKind::MpkBuild => Some(PhaseClass::Matvec),
            SpanKind::VectorOp | SpanKind::DotLaunch | SpanKind::IterSweep => {
                Some(PhaseClass::Vector)
            }
            SpanKind::DotWait | SpanKind::DotFanIn | SpanKind::DeferredWait => {
                Some(PhaseClass::ReductionWait)
            }
            SpanKind::ScalarOp
            | SpanKind::Guard
            | SpanKind::Recovery
            | SpanKind::Checkpoint
            | SpanKind::Reshard
            | SpanKind::HealthCheck => Some(PhaseClass::Overhead),
            SpanKind::TeamEpoch | SpanKind::MpkTile | SpanKind::IterMark => None,
        }
    }
}

/// One recorded span: fixed-size, `Copy`, 32 bytes — ring buffers of these
/// are preallocated so recording never touches the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, nanoseconds since the tracer's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's clock origin. Equal to
    /// `start_ns` for instant events (`IterMark`).
    pub end_ns: u64,
    /// Logical bytes the measured operation moved through memory: elements
    /// accessed × element width, counting a read-modify-write stream twice.
    /// 0 when the recording site does not account traffic. This is the
    /// *algorithmic* traffic (what a perfect cache would move), so mixed
    /// f32 sweeps report half the bytes of their f64 twins — the quantity
    /// the E22 bandwidth accounting compares against measured time.
    pub bytes: u64,
    /// What this span measures.
    pub kind: SpanKind,
}

impl Span {
    /// Duration in nanoseconds (0 for instant events).
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_index_all_kinds() {
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn every_kind_classifies_or_is_auxiliary() {
        for k in ALL_KINDS {
            match k {
                SpanKind::TeamEpoch | SpanKind::MpkTile | SpanKind::IterMark => {
                    assert!(k.phase().is_none());
                }
                _ => assert!(k.phase().is_some()),
            }
        }
    }

    #[test]
    fn reduction_wait_is_exactly_the_gated_kinds() {
        let gated: Vec<SpanKind> = ALL_KINDS
            .into_iter()
            .filter(|k| k.phase() == Some(PhaseClass::ReductionWait))
            .collect();
        assert_eq!(
            gated,
            vec![
                SpanKind::DotWait,
                SpanKind::DotFanIn,
                SpanKind::DeferredWait
            ]
        );
    }
}
