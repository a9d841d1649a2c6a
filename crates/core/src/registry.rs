//! The solver registry: one canonical list of every CG variant.
//!
//! Test suites (golden traces, cross-variant conformance, the stability
//! shoot-out bench) must not each hand-maintain their own variant list —
//! a variant added to the crate but missing from a suite is silently
//! untested. They all derive their sweep from [`keyed_variants`] and
//! assert [`VARIANT_COUNT`], so adding a solver without registering it
//! (or registering without extending the suites' golden data) fails
//! loudly. A caller that needs one variant builds only that one with
//! [`variant_by_key`], from the same list.

use crate::baselines::{ChronopoulosGearCg, PipelinedCg, PrecondCg, ThreeTermCg};
use crate::lookahead::LookaheadCg;
use crate::overlap_k1::OverlapK1Cg;
use crate::pipelined_deep::DeepPipelinedCg;
use crate::predict_recompute::{PipelinedPrCg, PredictRecomputeCg};
use crate::solver::CgVariant;
use crate::sstep::SStepCg;
use crate::standard::StandardCg;
use vr_linalg::precond::Jacobi;
use vr_linalg::CsrMatrix;

/// Number of registered variants. Suites assert this against the length
/// of [`keyed_variants`] so the registry and its consumers cannot drift.
pub const VARIANT_COUNT: usize = 11;

/// Builds one variant for an operator (only the preconditioned variant
/// reads it).
type Build = fn(&CsrMatrix) -> Box<dyn CgVariant>;

/// The one list: every registered variant's stable golden-trace key
/// (`tests/golden/<key>.txt`) and constructor. Constructor parameters
/// (look-ahead resync periods, s-step basis, pipeline depth) are the
/// canonical defaults the whole test tree pins against.
const REGISTRY: [(&str, Build); VARIANT_COUNT] = [
    ("standard", |_| Box::new(StandardCg::new())),
    ("overlap_k1", |_| {
        Box::new(OverlapK1Cg::new().with_resync(20))
    }),
    ("lookahead_k2", |_| {
        Box::new(LookaheadCg::new(2).with_resync(12))
    }),
    ("sstep_s3", |_| Box::new(SStepCg::monomial(3))),
    ("three_term", |_| Box::new(ThreeTermCg::new())),
    ("chronopoulos_gear", |_| Box::new(ChronopoulosGearCg::new())),
    ("pipelined", |_| Box::new(PipelinedCg::new())),
    ("precond_jacobi", |a| {
        let jacobi = Jacobi::new(a).expect("Jacobi preconditioner needs a positive diagonal");
        Box::new(PrecondCg::new(jacobi, "pcg-jacobi"))
    }),
    ("deep_pipelined_l2", |_| Box::new(DeepPipelinedCg::new(2))),
    ("predict_recompute", |_| Box::new(PredictRecomputeCg::new())),
    ("pipelined_predict_recompute", |_| {
        Box::new(PipelinedPrCg::new())
    }),
];

/// The registered variant under `key`, built for `a`; `None` for a key
/// the registry does not hold.
///
/// # Panics
/// Panics if `key` is `precond_jacobi` and the Jacobi preconditioner
/// cannot be built from `a` (a diagonal entry ≤ 0). No other key reads
/// `a`.
#[must_use]
pub fn variant_by_key(key: &str, a: &CsrMatrix) -> Option<Box<dyn CgVariant>> {
    REGISTRY
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, build)| build(a))
}

/// Every registered variant, paired with its key, in registry order.
///
/// # Panics
/// Panics if the Jacobi preconditioner cannot be built (a diagonal entry
/// ≤ 0), which no registry consumer's SPD test matrix triggers.
#[must_use]
pub fn keyed_variants(a: &CsrMatrix) -> Vec<(&'static str, Box<dyn CgVariant>)> {
    REGISTRY
        .iter()
        .map(|(key, build)| (*key, build(a)))
        .collect()
}

/// The registered variants without their keys, for sweeps that only need
/// the solvers.
#[must_use]
pub fn all_variants(a: &CsrMatrix) -> Vec<Box<dyn CgVariant>> {
    keyed_variants(a).into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_linalg::gen;

    #[test]
    fn registry_has_declared_count_and_unique_names() {
        let a = gen::poisson2d(4);
        let list = keyed_variants(&a);
        assert_eq!(list.len(), VARIANT_COUNT);
        let mut keys: Vec<_> = list.iter().map(|(k, _)| *k).collect();
        let mut names: Vec<_> = list.iter().map(|(_, v)| v.name()).collect();
        keys.sort_unstable();
        keys.dedup();
        names.sort();
        names.dedup();
        assert_eq!(keys.len(), VARIANT_COUNT, "duplicate golden keys");
        assert_eq!(names.len(), VARIANT_COUNT, "duplicate solver names");
    }

    #[test]
    fn by_key_builds_only_the_named_variant() {
        let a = gen::poisson2d(4);
        for (key, solver) in keyed_variants(&a) {
            let one = variant_by_key(key, &a).expect("registered key");
            assert_eq!(one.name(), solver.name(), "{key}");
        }
        assert!(variant_by_key("no_such_variant", &a).is_none());
        // a zero diagonal only matters to the Jacobi variant
        let zero_diag =
            CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).expect("valid csr");
        assert!(variant_by_key("standard", &zero_diag).is_some());
    }

    #[test]
    fn every_registered_variant_solves_a_small_poisson_problem() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let opts = crate::solver::SolveOptions::default().with_tol(1e-8);
        for (key, solver) in keyed_variants(&a) {
            let res = solver.solve(&a, &b, None, &opts);
            assert!(res.converged, "{key}: {:?}", res.termination);
        }
    }
}
