//! Operation counting shared by all solvers.
//!
//! Claims C4/C5 of the paper are about *operation counts*: one matrix-vector
//! product per iteration, two-ish directly computed inner products, and a
//! sequential complexity "essentially the same" as standard CG. Every solver
//! tallies its work here so the E4/E7 experiments can print the measured
//! counts next to the claims.

/// Cumulative operation counts for one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Sparse matrix-vector products.
    pub matvecs: usize,
    /// Inner products computed directly from vectors (full `O(N)` work +
    /// fan-in). Inner products obtained through scalar recurrences are NOT
    /// counted here — that is the point of the algorithm.
    pub dots: usize,
    /// Elementwise vector updates (axpy/xpay/waxpby/copy), each `O(N)`.
    pub vector_ops: usize,
    /// Scalar recurrence operations (`O(1)` each).
    pub scalar_ops: usize,
    /// Preconditioner applications.
    pub precond_applies: usize,
    /// Warm restarts within a solve: those the validation ladder takes in
    /// any loop after the true residual refuted a convergence claim or
    /// answered a suspicious recurrence signal, and the mixed-precision
    /// loops' residual replacements. Summed over attempts, a
    /// [`crate::resilience::solve_with_recovery`] result also counts its
    /// restarts between attempts here.
    pub restarts: usize,
    /// Single-pass fused kernel invocations (none under
    /// `Execution::Reference`).
    ///
    /// The *logical* tallies above always count reference-equivalent work —
    /// a fused matvec+dot still increments `matvecs` and `dots` — so the
    /// E4/E7 op-count claims are policy-independent. This counter records
    /// how many of those logical groups were actually executed as one
    /// memory sweep.
    pub fused_ops: usize,
}

impl OpCounts {
    /// Counts per iteration, averaged over `iters` iterations.
    #[must_use]
    pub fn per_iteration(&self, iters: usize) -> PerIteration {
        let it = iters.max(1) as f64;
        PerIteration {
            matvecs: self.matvecs as f64 / it,
            dots: self.dots as f64 / it,
            vector_ops: self.vector_ops as f64 / it,
            scalar_ops: self.scalar_ops as f64 / it,
            precond_applies: self.precond_applies as f64 / it,
            fused_ops: self.fused_ops as f64 / it,
        }
    }

    /// Estimated sequential flop count for vectors of length `n` with `d`
    /// nonzeros per matrix row.
    #[must_use]
    pub fn sequential_flops(&self, n: usize, d: usize) -> f64 {
        let n = n as f64;
        self.matvecs as f64 * 2.0 * n * d as f64
            + self.dots as f64 * 2.0 * n
            + self.vector_ops as f64 * 2.0 * n
            + self.scalar_ops as f64
            + self.precond_applies as f64 * 2.0 * n
    }
}

/// Per-iteration averages (see [`OpCounts::per_iteration`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerIteration {
    /// Matrix-vector products per iteration.
    pub matvecs: f64,
    /// Direct inner products per iteration.
    pub dots: f64,
    /// Elementwise vector ops per iteration.
    pub vector_ops: f64,
    /// Scalar ops per iteration.
    pub scalar_ops: f64,
    /// Preconditioner applications per iteration.
    pub precond_applies: f64,
    /// Fused single-pass kernel invocations per iteration.
    pub fused_ops: f64,
}

/// Counters from the resilience machinery, surfaced on every
/// [`crate::SolveResult`] (all zero when no recovery policy is active).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Detectably corrupted values observed (non-finite reductions or
    /// recurrence scalars caught by the guard).
    pub faults_detected: u64,
    /// Residual replacements: the recursive residual was discarded and
    /// recomputed as `b − A·x`.
    pub replacements: usize,
    /// Warm restarts taken by the recovery ladder
    /// ([`crate::resilience::solve_with_recovery`]) between attempts. The
    /// restarts a loop takes within one solve are in
    /// [`crate::OpCounts::restarts`].
    pub restarts: usize,
    /// Checkpoint rollbacks taken: corruption was localized by a guard and
    /// the solve resumed from a [`crate::resilience::CheckpointRing`]
    /// snapshot ≤ C iterations back instead of restarting from scratch.
    pub rollbacks: usize,
    /// Look-ahead depth of the variant that produced the final result
    /// (0 = standard CG): where on the `k → k/2 → … → standard` ladder
    /// the solve ended.
    pub final_k: usize,
}

impl std::ops::Add for RecoveryStats {
    type Output = RecoveryStats;
    fn add(self, o: RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            faults_detected: self.faults_detected + o.faults_detected,
            replacements: self.replacements + o.replacements,
            restarts: self.restarts + o.restarts,
            rollbacks: self.rollbacks + o.rollbacks,
            // not additive: keep the later (more backed-off) depth
            final_k: o.final_k,
        }
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            matvecs: self.matvecs + o.matvecs,
            dots: self.dots + o.dots,
            vector_ops: self.vector_ops + o.vector_ops,
            scalar_ops: self.scalar_ops + o.scalar_ops,
            precond_applies: self.precond_applies + o.precond_applies,
            restarts: self.restarts + o.restarts,
            fused_ops: self.fused_ops + o.fused_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_iteration_averages() {
        let c = OpCounts {
            matvecs: 10,
            dots: 20,
            vector_ops: 30,
            scalar_ops: 40,
            precond_applies: 0,
            restarts: 0,
            fused_ops: 5,
        };
        let p = c.per_iteration(10);
        assert_eq!(p.matvecs, 1.0);
        assert_eq!(p.dots, 2.0);
        assert_eq!(p.vector_ops, 3.0);
        assert_eq!(p.scalar_ops, 4.0);
        // zero iterations guarded
        let p0 = c.per_iteration(0);
        assert_eq!(p0.matvecs, 10.0);
    }

    #[test]
    fn sequential_flops_formula() {
        let c = OpCounts {
            matvecs: 1,
            dots: 2,
            vector_ops: 3,
            scalar_ops: 4,
            precond_applies: 1,
            restarts: 0,
            fused_ops: 0,
        };
        // n=100, d=5: 1*1000 + 2*200 + 3*200 + 4 + 1*200
        assert_eq!(
            c.sequential_flops(100, 5),
            1000.0 + 400.0 + 600.0 + 4.0 + 200.0
        );
    }

    #[test]
    fn add_accumulates() {
        let a = OpCounts {
            matvecs: 1,
            dots: 2,
            vector_ops: 3,
            scalar_ops: 4,
            precond_applies: 5,
            restarts: 1,
            fused_ops: 6,
        };
        let s = a + a;
        assert_eq!(s.matvecs, 2);
        assert_eq!(s.precond_applies, 10);
        assert_eq!(s.restarts, 2);
    }
}
