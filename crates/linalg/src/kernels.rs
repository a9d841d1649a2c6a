//! Level-1 BLAS-style kernels on `&[f64]` slices.
//!
//! Three dot-product summation orders are provided, because summation *order*
//! is the object the 1983 paper restructures the algorithm around:
//!
//! * [`dot_serial`] — left-to-right accumulation (what a sequential machine
//!   does).
//! * [`dot_tree`] — binary fan-in of depth `⌈log₂ N⌉`, the exact order an
//!   N-processor machine performs the paper's summations in. Deterministic:
//!   independent of thread count, reproducible bit-for-bit.
//! * [`dot_kahan`] — compensated summation, used as a high-accuracy reference
//!   in tests.
//!
//! All kernels panic on length mismatch via `debug_assert` in release-hot
//! paths and explicit asserts on entry; slices are the lingua franca so that
//! the same kernels serve `Vec<f64>` and sub-slices alike.

/// Summation/reduction strategy for inner products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DotMode {
    /// Left-to-right serial accumulation.
    #[default]
    Serial,
    /// Binary fan-in tree of depth `⌈log₂ N⌉` (the paper's machine model).
    Tree,
    /// Kahan compensated summation.
    Kahan,
}

/// Inner product with an explicit summation order.
#[must_use]
pub fn dot(mode: DotMode, x: &[f64], y: &[f64]) -> f64 {
    match mode {
        DotMode::Serial => dot_serial(x, y),
        DotMode::Tree => dot_tree(x, y),
        DotMode::Kahan => dot_kahan(x, y),
    }
}

/// Serial left-to-right inner product `Σ xᵢ·yᵢ`.
#[must_use]
pub fn dot_serial(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_serial: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Inner product summed by a binary fan-in tree of depth `⌈log₂ N⌉`.
///
/// This reproduces the summation order of the paper's idealized N-processor
/// machine: leaves are the products `xᵢ·yᵢ`, internal nodes add pairs. The
/// recursion splits at the largest power of two strictly less than the
/// length, which yields the same tree a hardware fan-in network would use.
#[must_use]
pub fn dot_tree(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_tree: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    tree_sum_products(x, y)
}

fn tree_sum_products(x: &[f64], y: &[f64]) -> f64 {
    match x.len() {
        1 => x[0] * y[0],
        2 => x[0] * y[0] + x[1] * y[1],
        n => {
            let half = n.next_power_of_two() / 2;
            let half = if half == n { n / 2 } else { half };
            tree_sum_products(&x[..half], &y[..half]) + tree_sum_products(&x[half..], &y[half..])
        }
    }
}

/// Sum of a slice via the same binary fan-in tree as [`dot_tree`].
#[must_use]
pub fn tree_sum(x: &[f64]) -> f64 {
    match x.len() {
        0 => 0.0,
        1 => x[0],
        2 => x[0] + x[1],
        n => {
            let half = n.next_power_of_two() / 2;
            let half = if half == n { n / 2 } else { half };
            tree_sum(&x[..half]) + tree_sum(&x[half..])
        }
    }
}

/// Kahan-compensated inner product (high-accuracy reference).
#[must_use]
pub fn dot_kahan(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_kahan: length mismatch");
    let mut sum = 0.0;
    let mut c = 0.0;
    for (a, b) in x.iter().zip(y) {
        let t = a * b - c;
        let s = sum + t;
        c = (s - sum) - t;
        sum = s;
    }
    sum
}

/// Euclidean norm `‖x‖₂`, computed with the serial order.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot_serial(x, x).sqrt()
}

/// Whether two slices overlap in memory (share at least one element).
///
/// Safe Rust cannot construct an overlapping `&[f64]` / `&mut [f64]` pair,
/// but kernels are also reachable through raw-pointer and FFI paths; the
/// mutating kernels `debug_assert!` on this predicate so an aliasing
/// violation fails loudly in debug builds instead of silently producing
/// order-dependent results. This is the documented aliasing contract: for
/// every kernel taking `&[f64]` inputs and a `&mut [f64]` output, inputs
/// must not overlap the output (inputs may freely alias *each other*).
#[must_use]
pub fn overlaps(a: &[f64], b: &[f64]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let a0 = a.as_ptr();
    let a1 = a0.wrapping_add(a.len());
    let b0 = b.as_ptr();
    let b1 = b0.wrapping_add(b.len());
    a0 < b1 && b0 < a1
}

/// `y ← a·x + y` (classic axpy).
///
/// Aliasing: `x` must not overlap `y` (see [`overlaps`]).
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    debug_assert!(!overlaps(x, y), "axpy: x aliases y");
    vr_par::simd::leaf_axpy(a, x, y);
}

/// `y ← x + a·y` (xpay — the CG direction update `p ← r + α·p`).
///
/// Aliasing: `x` must not overlap `y` (see [`overlaps`]).
pub fn xpay(x: &[f64], a: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpay: length mismatch");
    debug_assert!(!overlaps(x, y), "xpay: x aliases y");
    vr_par::simd::leaf_xpay(x, a, y);
}

/// `x ← a·x`.
pub fn scal(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// `w ← x − y`.
///
/// Aliasing: neither input may overlap the output `w`.
pub fn sub(x: &[f64], y: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub: x/y length mismatch");
    assert_eq!(x.len(), w.len(), "sub: x/w length mismatch");
    debug_assert!(!overlaps(x, w), "sub: x aliases w");
    debug_assert!(!overlaps(y, w), "sub: y aliases w");
    for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
        *wi = xi - yi;
    }
}

/// `w ← x + y`.
///
/// Aliasing: neither input may overlap the output `w`.
pub fn add(x: &[f64], y: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "add: x/y length mismatch");
    assert_eq!(x.len(), w.len(), "add: x/w length mismatch");
    debug_assert!(!overlaps(x, w), "add: x aliases w");
    debug_assert!(!overlaps(y, w), "add: y aliases w");
    for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
        *wi = xi + yi;
    }
}

/// `‖x − y‖₂` without allocating.
#[must_use]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn dot_variants_agree_on_simple_input() {
        let x: Vec<f64> = (1..=7).map(|i| i as f64).collect();
        let y: Vec<f64> = (1..=7).map(|i| (8 - i) as f64).collect();
        let expect = 1.0 * 7.0 + 2.0 * 6.0 + 3.0 * 5.0 + 4.0 * 4.0 + 5.0 * 3.0 + 6.0 * 2.0 + 7.0;
        assert_eq!(dot_serial(&x, &y), expect);
        assert_eq!(dot_tree(&x, &y), expect);
        assert_eq!(dot_kahan(&x, &y), expect);
        assert_eq!(dot(DotMode::Tree, &x, &y), expect);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot_serial(&[], &[]), 0.0);
        assert_eq!(dot_tree(&[], &[]), 0.0);
        assert_eq!(dot_kahan(&[], &[]), 0.0);
        assert_eq!(tree_sum(&[]), 0.0);
    }

    #[test]
    fn dot_single_element() {
        assert_eq!(dot_tree(&[3.0], &[4.0]), 12.0);
        assert_eq!(tree_sum(&[5.0]), 5.0);
    }

    #[test]
    fn tree_sum_matches_serial_on_powers_of_two_and_odd_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100, 128, 1000] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let serial: f64 = x.iter().sum();
            let tree = tree_sum(&x);
            assert!(approx(serial, tree, 1e-12), "n={n}: {serial} vs {tree}");
        }
    }

    #[test]
    fn tree_is_deterministic() {
        let x: Vec<f64> = (0..1023).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..1023).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let a = dot_tree(&x, &y);
        let b = dot_tree(&x, &y);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn kahan_beats_serial_on_ill_conditioned_sum() {
        // 1.0 followed by many terms below half an ulp of 1.0: serial drops
        // every small term; Kahan accumulates them in the compensation.
        let n = 10_000;
        let mut x = vec![1.0];
        x.extend(std::iter::repeat_n(1.0e-16, n));
        let ones = vec![1.0; x.len()];
        let exact = 1.0 + n as f64 * 1.0e-16;
        let serial = dot_serial(&x, &ones);
        let kahan = dot_kahan(&x, &ones);
        assert_eq!(serial, 1.0, "serial loses all small terms");
        assert!(
            (kahan - exact).abs() < (serial - exact).abs(),
            "kahan={kahan} serial={serial} exact={exact}"
        );
        assert!(approx(kahan, exact, 1e-12), "kahan={kahan}");
    }

    #[test]
    fn axpy_xpay() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);

        let mut p = vec![1.0, 1.0, 1.0];
        xpay(&x, 3.0, &mut p); // p = x + 3p
        assert_eq!(p, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn scal_sub_add() {
        let mut x = vec![1.0, -2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0, 2.0]);

        let y = x.clone();

        let mut w = vec![0.0; 3];
        sub(&x, &y, &mut w);
        assert_eq!(w, vec![0.0, 0.0, 0.0]);
        add(&x, &y, &mut w);
        assert_eq!(w, vec![1.0, -2.0, 4.0]);
    }

    #[test]
    fn norms() {
        let x = vec![3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(dist2(&x, &[0.0, 0.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot_serial(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn overlap_predicate_classifies_shared_storage() {
        let buf = vec![0.0; 10];
        // identical slices overlap
        assert!(overlaps(&buf, &buf));
        // overlapping sub-slices of the same allocation
        assert!(overlaps(&buf[0..6], &buf[5..10]));
        assert!(overlaps(&buf[2..4], &buf[0..10]));
        // adjacent but disjoint sub-slices do not
        assert!(!overlaps(&buf[0..5], &buf[5..10]));
        // distinct allocations do not
        let other = vec![0.0; 10];
        assert!(!overlaps(&buf, &other));
        // empty slices never overlap anything
        assert!(!overlaps(&buf[3..3], &buf));
        assert!(!overlaps(&[], &buf));
    }
}
