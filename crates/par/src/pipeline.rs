//! Pipelined (launch-now, consume-later) scalar reductions.
//!
//! The paper's central restructuring replaces "compute `(r⁽ⁿ⁾, r⁽ⁿ⁾)` at
//! iteration n" with "launch inner products of *iteration n−k* vectors as
//! soon as those vectors exist, and consume the finished sums k iterations
//! later". [`PendingScalar`] is the handle to such an in-flight reduction:
//! the team folds the fixed-layout leaf partials now, and the fan-in runs
//! at the consume point.
//!
//! ```
//! use vr_par::{reduce, PendingScalar, Team};
//!
//! let team = Team::new(2);
//! let x: Vec<f64> = (0..4096).map(|i| i as f64).collect();
//!
//! // iteration n−k: launch (leaf partials folded on the team)
//! let partials = reduce::par_dot_partials_in(Some(&team), &x, &x).unwrap();
//! let pending = PendingScalar::deferred(partials);
//! // ... k iterations of other work overlap with the fan-in ...
//! // iteration n: consume
//! let dot = pending.wait();
//! assert_eq!(dot.to_bits(), reduce::par_dot_in(None, &x, &x).to_bits());
//! ```

use crate::reduce;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

enum Inner {
    /// An already-resolved scalar. Unlike a one-partial `Deferred`, this
    /// carries no heap buffer, so pipeline start-up fallbacks (and the
    /// eager Serial/Kahan paths that return ready handles every
    /// iteration) stay allocation-free on the solver hot loop.
    Ready(f64),
    /// Split-phase team reduction: the fixed-layout leaf partials are
    /// already folded (during the producing sweep's epoch); the
    /// deterministic [`reduce::tree_combine`] fan-in runs lazily at the
    /// consume point, overlapping the combine with whatever vector work
    /// the caller scheduled in between.
    Deferred(Vec<f64>),
    /// A checksum-guarded split-phase reduction: two *independently
    /// computed* copies of the leaf partials. Because the leaf layout and
    /// summation order are deterministic, the copies are bit-identical
    /// absent corruption, so the consume point can compare them exactly
    /// (an ABFT-style duplicate-leaf invariant). A mismatched leaf with
    /// exactly one finite copy is repaired in place; anything else
    /// resolves to NaN so downstream guards trip *this* iteration instead
    /// of letting the corruption smear forward through the recurrences.
    Checked {
        a: Vec<f64>,
        b: Vec<f64>,
        /// Corrupted-leaf detections, reported to the owner of the counter
        /// (the solver folds it into its `RecoveryStats`).
        detected: Arc<AtomicU64>,
        /// Detection is counted once even if the handle is consumed twice.
        counted: AtomicBool,
    },
}

/// Handle to a scalar reduction that has been *launched* but not yet
/// *consumed*: a split-phase team reduction whose fan-in is deferred to
/// the consume point (or an already-resolved value).
pub struct PendingScalar {
    inner: Inner,
}

impl PendingScalar {
    /// An already-resolved scalar (useful at pipeline start-up, where the
    /// first k iterations fall back to directly computed values).
    /// Allocation-free: hot loops that resolve eagerly (Serial/Kahan dot
    /// modes) hand out one of these per reduction.
    #[must_use]
    pub fn ready(v: f64) -> Self {
        PendingScalar {
            inner: Inner::Ready(v),
        }
    }

    /// A split-phase team reduction: `partials` are the fixed-layout leaf
    /// sums already folded during the producing sweep; the deterministic
    /// [`reduce::tree_combine`] fan-in runs at the consume point
    /// ([`PendingScalar::wait`] / [`PendingScalar::poll`]), so the combine
    /// latency overlaps whatever work the caller does in between — the
    /// paper's C2/C3 overlap on a real team.
    #[must_use]
    pub fn deferred(partials: Vec<f64>) -> Self {
        PendingScalar {
            inner: Inner::Deferred(partials),
        }
    }

    /// A checksum-guarded split-phase reduction ([`PendingScalar::deferred`]
    /// with a duplicate-leaf invariant): `a` and `b` are two independently
    /// computed copies of the same deterministic leaf partials. At the
    /// consume point they are compared bit-for-bit; corrupted leaves are
    /// counted into `detected`, repaired when exactly one copy is finite,
    /// and otherwise resolved to NaN so the solver's guards localize the
    /// fault to this iteration window.
    ///
    /// # Panics
    /// Panics if the copies differ in length (they must come from the same
    /// fixed chunk layout).
    #[must_use]
    pub fn checked_deferred(a: Vec<f64>, b: Vec<f64>, detected: Arc<AtomicU64>) -> Self {
        assert_eq!(
            a.len(),
            b.len(),
            "checked_deferred: partial layout mismatch"
        );
        PendingScalar {
            inner: Inner::Checked {
                a,
                b,
                detected,
                counted: AtomicBool::new(false),
            },
        }
    }

    /// Non-blocking probe. Deferred (split-phase) handles resolve
    /// immediately by running their fan-in (checked handles verify first).
    #[must_use]
    pub fn poll(&self) -> Option<f64> {
        match &self.inner {
            Inner::Ready(v) => Some(*v),
            Inner::Deferred(partials) => Some(reduce::tree_combine(partials)),
            Inner::Checked {
                a,
                b,
                detected,
                counted,
            } => Some(verify_and_combine(a, b, detected, counted)),
        }
    }

    /// Resolve the reduction. For a deferred (split-phase) handle this runs
    /// the `tree_combine` fan-in now — the log-depth combine the paper
    /// charges at the consume point.
    #[must_use]
    pub fn wait(&self) -> f64 {
        match &self.inner {
            Inner::Ready(v) => *v,
            Inner::Deferred(partials) if partials.len() > 1 => {
                // A real split-phase fan-in: the consume-point combine is
                // exactly the dependency-gated reduction wait the profiler
                // charges (ready() handles carry one partial and cost
                // nothing worth recording).
                vr_obs::tls::with_span(vr_obs::SpanKind::DeferredWait, || {
                    reduce::tree_combine(partials)
                })
            }
            Inner::Deferred(partials) => reduce::tree_combine(partials),
            Inner::Checked {
                a,
                b,
                detected,
                counted,
            } => vr_obs::tls::with_span(vr_obs::SpanKind::DeferredWait, || {
                verify_and_combine(a, b, detected, counted)
            }),
        }
    }
}

/// Consume-point verification of a duplicate-leaf checked reduction.
///
/// Both copies were produced by the identical deterministic leaf schedule,
/// so any bitwise difference *is* corruption. Mismatched leaves are counted
/// (once per handle, even across repeated consumes); a leaf with exactly
/// one finite copy is repaired by taking the finite value, anything else is
/// unrepairable and collapses the result to NaN — which downstream
/// pivot/residual guards convert into a localized recovery action.
fn verify_and_combine(a: &[f64], b: &[f64], detected: &AtomicU64, counted: &AtomicBool) -> f64 {
    let mut bad = 0u64;
    let mut unrepairable = false;
    let mut sum_src: Vec<f64> = Vec::new(); // allocated only on the corrupt path
    for (i, (&ai, &bi)) in a.iter().zip(b).enumerate() {
        if ai.to_bits() == bi.to_bits() {
            continue;
        }
        bad += 1;
        if sum_src.is_empty() {
            sum_src = a.to_vec();
        }
        match (ai.is_finite(), bi.is_finite()) {
            (true, false) => sum_src[i] = ai,
            (false, true) => sum_src[i] = bi,
            // both finite but disagreeing (a silent flip we cannot vote
            // on), or both non-finite: no honest repair exists.
            _ => unrepairable = true,
        }
    }
    if bad > 0 && !counted.swap(true, Ordering::Relaxed) {
        detected.fetch_add(bad, Ordering::Relaxed);
    }
    if bad == 0 {
        reduce::tree_combine(a)
    } else if unrepairable {
        f64::NAN
    } else {
        reduce::tree_combine(&sum_src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_team_partials_match_direct_dot() {
        let team = crate::Team::new(2);
        let x: Vec<f64> = (0..20_000).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..20_000).map(|i| (i % 7) as f64).collect();
        let direct = reduce::par_dot_in(None, &x, &y);
        let partials = reduce::par_dot_partials_in(Some(&team), &x, &y).unwrap();
        let p = PendingScalar::deferred(partials);
        assert_eq!(p.wait().to_bits(), direct.to_bits());
        // waiting twice is fine
        assert_eq!(p.wait().to_bits(), direct.to_bits());
        assert_eq!(p.poll(), Some(direct));
    }

    #[test]
    fn ready_resolves_immediately() {
        let p = PendingScalar::ready(3.5);
        assert_eq!(p.poll(), Some(3.5));
        assert_eq!(p.wait(), 3.5);
    }

    #[test]
    fn checked_deferred_clean_copies_match_plain_deferred() {
        let partials: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
        let expect = reduce::tree_combine(&partials);
        let detected = Arc::new(AtomicU64::new(0));
        let p = PendingScalar::checked_deferred(partials.clone(), partials, Arc::clone(&detected));
        assert_eq!(p.wait().to_bits(), expect.to_bits());
        assert_eq!(p.poll(), Some(expect));
        assert_eq!(detected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn checked_deferred_repairs_single_nonfinite_leaf() {
        let clean: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let expect = reduce::tree_combine(&clean);
        let mut hit = clean.clone();
        hit[17] = f64::NAN;
        let detected = Arc::new(AtomicU64::new(0));
        // corruption in either copy must repair to the same clean value
        let p = PendingScalar::checked_deferred(hit.clone(), clean.clone(), Arc::clone(&detected));
        assert_eq!(p.wait().to_bits(), expect.to_bits());
        let q = PendingScalar::checked_deferred(clean.clone(), hit, Arc::clone(&detected));
        assert_eq!(q.wait().to_bits(), expect.to_bits());
        assert_eq!(detected.load(Ordering::Relaxed), 2);
        // double consume counts each handle's detection once
        let _ = p.wait();
        assert_eq!(detected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn checked_deferred_silent_flip_resolves_to_nan() {
        let clean: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut flipped = clean.clone();
        flipped[5] += 1.0; // both copies finite, values disagree: no vote
        let detected = Arc::new(AtomicU64::new(0));
        let p = PendingScalar::checked_deferred(clean, flipped, Arc::clone(&detected));
        assert!(p.wait().is_nan());
        assert_eq!(detected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn many_inflight_reductions_overlap() {
        // The look-ahead solver keeps O(k) reductions in flight; make sure
        // ordering and delivery hold for a batch consumed out of order.
        let team = crate::Team::new(2);
        let xs: Vec<Vec<f64>> = (0..16)
            .map(|s| (0..1500).map(|i| ((i + s) % 11) as f64).collect())
            .collect();
        let pending: Vec<PendingScalar> = xs
            .iter()
            .map(|x| {
                PendingScalar::deferred(reduce::par_dot_partials_in(Some(&team), x, x).unwrap())
            })
            .collect();
        for (p, x) in pending.iter().zip(&xs).rev() {
            let expect = reduce::par_dot_in(None, x, x);
            assert_eq!(p.wait().to_bits(), expect.to_bits());
        }
    }
}
