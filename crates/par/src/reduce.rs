//! Deterministic parallel reductions with explicit binary fan-in.
//!
//! The summation order is fixed by a *chunk tree*, not by thread timing:
//! the input is split into `CHUNKS` equal pieces (a constant, independent of
//! how many threads execute), each piece is reduced in the canonical
//! lane-blocked layout of [`crate::simd`] (element `i` of the piece feeds
//! accumulator `i mod 8`, combined in a fixed association), and the piece
//! results are combined by a binary fan-in tree. Consequences:
//!
//! 1. results are bit-for-bit identical for any thread count *and* any
//!    SIMD backend (the lane-blocked leaf order is what both the scalar and
//!    the AVX2 backend execute), and
//! 2. the combine stage is literally the `⌈log₂ CHUNKS⌉`-deep tree the
//!    paper's complexity argument counts.

use crate::fault::{FaultInjector, FaultSite};
use crate::team::{self, Team};

/// Number of leaf chunks in the deterministic reduction tree.
///
/// 256 leaves ≈ the partial sums a 256-processor machine would fan in;
/// `⌈log₂ 256⌉ = 8` combine levels.
pub const CHUNKS: usize = 256;

/// Deterministic dot product on an explicit [`Team`] (or serially for
/// `None`). Bit-identical for any team width; returns NaN if the team is
/// poisoned so solver guards terminate honestly.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn par_dot_in(team: Option<&Team>, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot_in: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    match par_dot_partials_in(team, x, y) {
        Ok(partials) => {
            // The eager fan-in: dependency-gated, recorded for the profiler.
            vr_obs::tls::with_span(vr_obs::SpanKind::DotFanIn, || tree_combine(&partials))
        }
        Err(team::Poisoned) => f64::NAN,
    }
}

/// Split-phase first half of [`par_dot_in`]: compute the fixed-layout leaf
/// partials on the team but *defer* the [`tree_combine`] fan-in to the
/// caller, who may overlap it with other vector work (the paper's C2/C3
/// move). `tree_combine(&partials)` yields exactly the [`par_dot_in`]
/// value.
///
/// # Errors
/// Returns [`team::Poisoned`] if the team is poisoned.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn par_dot_partials_in(
    team: Option<&Team>,
    x: &[f64],
    y: &[f64],
) -> Result<Vec<f64>, team::Poisoned> {
    assert_eq!(x.len(), y.len(), "par_dot_partials_in: length mismatch");
    let n = x.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let chunk = n.div_ceil(CHUNKS);
    let mut work: Vec<(&[f64], &[f64])> = x.chunks(chunk).zip(y.chunks(chunk)).collect();
    team::run_leaves_team(team, &mut work, n, &|&mut (xc, yc): &mut (
        &[f64],
        &[f64],
    )| { serial_dot(xc, yc) })
}

/// Deterministic chunked-tree widening dot over `f32` slices: the same
/// fixed 256-leaf layout as [`par_dot_in`], with every product term widened to
/// `f64` before accumulation (the mixed-precision working mode's dot).
/// Serial by design — the mixed-precision solve loops are single-sweep.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn dot_f32_wide(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_f32_wide: length mismatch");
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let chunk = n.div_ceil(CHUNKS);
    // Stack buffer, not a Vec: this dot sits in the mixed-precision hot
    // loop, which promises zero allocations per iteration.
    let mut partials = [0.0f64; CHUNKS];
    let mut m = 0;
    for (xc, yc) in x.chunks(chunk).zip(y.chunks(chunk)) {
        partials[m] = crate::simd::leaf_dot_f32(xc, yc);
        m += 1;
    }
    vr_obs::tls::with_span(vr_obs::SpanKind::DotFanIn, || tree_combine(&partials[..m]))
}

fn serial_dot(x: &[f64], y: &[f64]) -> f64 {
    crate::simd::leaf_dot(x, y)
}

/// Deterministic dot product with fault injection on the reduction tree.
///
/// Identical to [`par_dot_in`] except that every leaf partial passes
/// through `inj` at [`FaultSite::DotPartial`] and the combined result
/// passes through [`FaultSite::DotFinal`]. Corruption happens serially on
/// the calling thread *after* the team's epoch, so the injector sees the
/// same event order for any team width and the fault pattern is
/// bit-for-bit reproducible, like the fault-free path. A poisoned team
/// yields NaN without consuming injector events.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn par_dot_with_in(team: Option<&Team>, x: &[f64], y: &[f64], inj: &dyn FaultInjector) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot_with_in: length mismatch");
    if x.is_empty() {
        return inj.corrupt(FaultSite::DotFinal, 0.0);
    }
    let Ok(mut partials) = par_dot_partials_in(team, x, y) else {
        return f64::NAN;
    };
    for p in &mut partials {
        *p = inj.corrupt(FaultSite::DotPartial, *p);
    }
    inj.corrupt(FaultSite::DotFinal, tree_combine(&partials))
}

/// Combine partial results by a binary fan-in tree (same shape as
/// `vr_linalg::kernels::tree_sum`).
///
/// An empty slice is the empty sum and combines to exactly `+0.0` — this
/// is a contract, not an accident: reduction call sites rely on it when a
/// chunking produces no pieces (zero-length vectors), and fault-model code
/// relies on "no partials → additive identity, no fault surface".
#[must_use]
pub fn tree_combine(partials: &[f64]) -> f64 {
    match partials.len() {
        0 => 0.0,
        1 => partials[0],
        2 => partials[0] + partials[1],
        n => {
            let half = n.next_power_of_two() / 2;
            let half = if half == n { n / 2 } else { half };
            tree_combine(&partials[..half]) + tree_combine(&partials[half..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_dot_deterministic_across_thread_counts() {
        let x: Vec<f64> = (0..100_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..100_000).map(|i| ((i % 17) as f64) - 8.0).collect();
        let d1 = par_dot_in(None, &x, &y);
        for width in [2usize, 3, 8] {
            let team = Team::new(width);
            let d = par_dot_in(Some(&team), &x, &y);
            assert_eq!(d1.to_bits(), d.to_bits(), "width {width}");
        }
    }

    #[test]
    fn par_dot_close_to_serial() {
        let x: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let serial: f64 = x.iter().map(|v| v * v).sum();
        let par = par_dot_in(Some(&Team::new(4)), &x, &x);
        assert!((serial - par).abs() < 1e-9 * (1.0 + serial.abs()));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let team = Team::new(4);
        let t = Some(&team);
        assert_eq!(par_dot_in(t, &[], &[]), 0.0);
        assert_eq!(par_dot_in(t, &[2.0], &[3.0]), 6.0);
        assert_eq!(par_dot_in(t, &[3.0, 4.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn tree_combine_shapes() {
        assert_eq!(tree_combine(&[]), 0.0);
        assert_eq!(tree_combine(&[1.0]), 1.0);
        assert_eq!(tree_combine(&[1.0, 2.0]), 3.0);
        assert_eq!(tree_combine(&[1.0, 2.0, 3.0]), 6.0);
        let v: Vec<f64> = (1..=256).map(|i| i as f64).collect();
        assert_eq!(tree_combine(&v), 256.0 * 257.0 / 2.0);
    }

    #[test]
    fn tree_combine_empty_is_positive_zero() {
        // pinned contract: the empty sum is the additive identity with a
        // positive sign bit, so `tree_combine(&[]) + x == x` bit-for-bit
        let z = tree_combine(&[]);
        assert_eq!(z.to_bits(), 0.0_f64.to_bits());
        assert_ne!(z.to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn summation_order_pinned_against_serial_bounds() {
        // The tree order is left-half + right-half with the split at the
        // largest power of two below n. Pin the exact association on a
        // 6-element input whose serial and tree sums differ in the last
        // bits, then check the tree result stays within the DotMode::Serial
        // worst-case error bound n·ε·Σ|xᵢyᵢ| of the serial order.
        let v = [1.0e16, 1.0, -1.0e16, 3.5, 0.25, -7.125];
        let expected = ((v[0] + v[1]) + (v[2] + v[3])) + (v[4] + v[5]);
        assert_eq!(tree_combine(&v).to_bits(), expected.to_bits());

        let x: Vec<f64> = (0..1537).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let serial: f64 = x.iter().sum();
        let tree = tree_combine(&x);
        let abs_sum: f64 = x.iter().map(|v| v.abs()).sum();
        let bound = x.len() as f64 * f64::EPSILON * abs_sum;
        assert!(
            (tree - serial).abs() <= bound,
            "tree {tree} vs serial {serial}, bound {bound}"
        );
    }

    #[test]
    fn par_dot_with_no_faults_matches_par_dot() {
        use crate::fault::NoFaults;
        let x: Vec<f64> = (0..10_000).map(|i| (i as f64).cos()).collect();
        let team = Team::new(3);
        let a = par_dot_in(Some(&team), &x, &x);
        let b = par_dot_with_in(Some(&team), &x, &x, &NoFaults);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(par_dot_with_in(Some(&team), &[], &[], &NoFaults), 0.0);
    }

    #[test]
    fn par_dot_with_corrupts_through_the_tree() {
        // an injector that poisons exactly one partial must make the final
        // reduction non-finite — the corruption really flows through
        #[derive(Debug)]
        struct PoisonFirstPartial(std::sync::atomic::AtomicU64);
        impl FaultInjector for PoisonFirstPartial {
            fn corrupt(&self, site: FaultSite, value: f64) -> f64 {
                use std::sync::atomic::Ordering;
                if site == FaultSite::DotPartial && self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    f64::NAN
                } else {
                    value
                }
            }
        }
        let x = vec![1.0; 4096];
        let inj = PoisonFirstPartial(std::sync::atomic::AtomicU64::new(0));
        assert!(par_dot_with_in(Some(&Team::new(2)), &x, &x, &inj).is_nan());
    }

    #[test]
    fn team_path_bit_matches_serial_and_split_phase_combines() {
        let x: Vec<f64> = (0..40_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..40_000).map(|i| ((i % 13) as f64) - 6.0).collect();
        let serial = par_dot_in(None, &x, &y);
        let team = crate::team::Team::new(4);
        assert_eq!(par_dot_in(Some(&team), &x, &y).to_bits(), serial.to_bits());
        // split-phase: deferred combine reproduces the eager value exactly
        let partials = par_dot_partials_in(Some(&team), &x, &y).unwrap();
        assert!(!partials.is_empty() && partials.len() <= CHUNKS);
        assert_eq!(tree_combine(&partials).to_bits(), serial.to_bits());
    }

    #[test]
    fn degraded_team_reductions_bit_identical() {
        // Failover re-shards the fixed 256-leaf layout onto survivors, so
        // losing workers must not move a single bit of any reduction.
        let x: Vec<f64> = (0..80_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..80_000).map(|i| ((i % 13) as f64) - 6.0).collect();
        let serial = par_dot_in(None, &x, &y);
        let team = crate::team::Team::new(4);
        assert_eq!(par_dot_in(Some(&team), &x, &y).to_bits(), serial.to_bits());
        team.kill_worker(2);
        assert_eq!(par_dot_in(Some(&team), &x, &y).to_bits(), serial.to_bits());
        team.kill_worker(1);
        team.kill_worker(3);
        assert_eq!(team.try_run(&|_| {}), Ok(()));
        assert_eq!(team.live_width(), 1);
        assert_eq!(par_dot_in(Some(&team), &x, &y).to_bits(), serial.to_bits());
    }

    #[test]
    fn poisoned_team_reductions_are_nan_not_hangs() {
        let team = crate::team::Team::new(2);
        let _ = team.try_run(&|_| panic!("poison"));
        let x = vec![1.0; 65_536];
        assert!(par_dot_in(Some(&team), &x, &x).is_nan());
        assert!(par_dot_partials_in(Some(&team), &x, &x).is_err());
        use crate::fault::NoFaults;
        assert!(par_dot_with_in(Some(&team), &x, &x, &NoFaults).is_nan());
    }

    #[test]
    fn matches_vr_linalg_tree_order_on_chunk_boundary_sizes() {
        // Exactly CHUNKS chunks of length 1: par tree == plain fan-in tree.
        let x: Vec<f64> = (0..CHUNKS).map(|i| (i as f64).exp2().recip()).collect();
        let ones = vec![1.0; CHUNKS];
        let a = par_dot_in(None, &x, &ones);
        let b = tree_combine(&x);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn leaf_order_is_the_canonical_lane_blocked_layout() {
        // Pin the leaf summation order: each 256-tree leaf must equal the
        // explicit 8-lane blocked reference, not a plain serial sum.
        let n = 10_001usize;
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 29) as f64) - 14.0).collect();
        let chunk = n.div_ceil(CHUNKS);
        let reference: Vec<f64> = x
            .chunks(chunk)
            .zip(y.chunks(chunk))
            .map(|(xc, yc)| {
                let mut acc = [0.0f64; 8];
                for (i, (a, b)) in xc.iter().zip(yc).enumerate() {
                    acc[i & 7] += a * b;
                }
                crate::simd::combine8(&acc)
            })
            .collect();
        let partials = par_dot_partials_in(None, &x, &y).unwrap();
        assert_eq!(partials.len(), reference.len());
        for (p, r) in partials.iter().zip(&reference) {
            assert_eq!(p.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn reductions_bit_identical_across_simd_levels() {
        use crate::simd::{available, with_level, SimdLevel};
        let x: Vec<f64> = (0..33_333).map(|i| (i as f64 * 0.01).sin()).collect();
        let y: Vec<f64> = (0..33_333).map(|i| (i as f64 * 0.02).cos()).collect();
        let team = Team::new(2);
        let reference = with_level(SimdLevel::Scalar, || par_dot_in(Some(&team), &x, &y));
        if available(SimdLevel::Avx2) {
            let got = with_level(SimdLevel::Avx2, || par_dot_in(Some(&team), &x, &y));
            assert_eq!(got.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn dot_f32_wide_is_deterministic_and_widening() {
        let x: Vec<f32> = (0..12_345).map(|i| (i as f32 * 0.01).sin()).collect();
        let y: Vec<f32> = (0..12_345).map(|i| (i as f32 * 0.02).cos()).collect();
        let d = dot_f32_wide(&x, &y);
        assert_eq!(d.to_bits(), dot_f32_wide(&x, &y).to_bits());
        // widening reference: upcast then full-precision chunked dot
        let xw: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        let yw: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        assert_eq!(d.to_bits(), par_dot_in(None, &xw, &yw).to_bits());
        assert_eq!(dot_f32_wide(&[], &[]), 0.0);
    }
}
