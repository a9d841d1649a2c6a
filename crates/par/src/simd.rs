//! Lane-blocked SIMD leaf kernels with a lane-width-invariant summation
//! layout.
//!
//! Every reduction leaf in this workspace (the 256-chunk tree of
//! [`crate::reduce`], the fused sweeps of `vr_linalg::fused`) accumulates
//! in the **canonical lane-blocked layout**: element `i` of a leaf slice
//! contributes to accumulator `i & 7` (position *relative to the slice
//! start*, so the bits never depend on pointer alignment), and the eight
//! accumulators are combined as
//!
//! ```text
//! ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
//! ```
//!
//! Two backends execute this recipe. The scalar backend is the reference:
//! one element at a time, in plain index loops. The AVX2 backend compiles
//! one safe body per kernel with AVX2 enabled: each reduction walks its
//! slices as whole `LANES`-element chunks (accumulator `j` takes element
//! `j` of every chunk, the tail feeds accumulators `0..tail`), which the
//! compiler turns into two 4-lane registers of accumulators. Both perform
//! the *same* IEEE-754 additions in the *same* association, so every
//! kernel here is **bit-identical across backends** — SIMD selection is a
//! pure performance knob, never a numerics knob. (FMA is never used: Rust
//! does not contract `mul + add`, and contracting would change the bits.)
//! Only the non-temporal stores of [`leaf_waxpby`] and [`nt_fence`] are
//! written with `std::arch` intrinsics. No wider register backend is
//! kept: no workload runs one (DESIGN §15).
//!
//! Backend selection is ambient rather than plumbed through every kernel
//! signature: [`current`] reads a thread-local override installed by
//! [`with_level`] (e.g. a test or bench pinning a backend) and falls back
//! to [`auto_level`], the best backend the host supports. Requested levels
//! are always clamped to what the host supports, and the portable scalar
//! path is the compile-time fallback on non-x86_64 targets or with the
//! `simd` cargo feature disabled.
//!
//! `f32` kernels (the mixed-precision working mode) perform elementwise
//! arithmetic in `f32` and widen each product term to `f64` *before*
//! accumulating, in the same lane-blocked layout — so mixed-precision dots
//! are also bit-identical across backends.

use std::cell::Cell;
use std::sync::OnceLock;

/// Number of interleaved accumulators in the canonical lane-blocked
/// reduction layout. Fixed at 8 on every backend, including scalar — this
/// is what makes the bits lane-width invariant.
pub const LANES: usize = 8;

/// Combine the eight lane accumulators in the canonical association.
#[inline]
#[must_use]
pub fn combine8(a: &[f64; LANES]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

// ---------------------------------------------------------------------------
// Level selection
// ---------------------------------------------------------------------------

/// Instruction-set backend for the leaf kernels. All levels produce
/// bit-identical results; higher levels only run faster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops (the canonical recipe, one element at a time).
    Scalar,
    /// AVX2: the eight lane accumulators live in two 4×`f64` registers.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (`scalar` / `avx2`), as recorded in bench
    /// artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Is `level` actually runnable on this host (and compiled in)?
#[must_use]
pub fn available(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        SimdLevel::Avx2 => false,
    }
}

/// Clamp a requested level down to the best available one at or below it.
#[must_use]
fn clamp(level: SimdLevel) -> SimdLevel {
    if available(level) {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// The best level this host supports: AVX2 where present, else scalar.
/// This is the process-wide default every thread runs at unless
/// [`with_level`] pins another. Detected once, on first use: every leaf
/// kernel call reads it.
#[must_use]
pub fn auto_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| clamp(SimdLevel::Avx2))
}

thread_local! {
    static TLS_LEVEL: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level in effect on this thread: the innermost [`with_level`]
/// override, else [`auto_level`].
///
/// Team worker threads have no override installed, so they run at the
/// auto-detected level — which is safe precisely because every level
/// produces the same bits.
#[must_use]
pub fn current() -> SimdLevel {
    TLS_LEVEL.with(|c| c.get()).unwrap_or_else(auto_level)
}

/// RAII guard restoring the previous thread-local level on drop.
struct LaneGuard {
    prev: Option<SimdLevel>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        TLS_LEVEL.with(|c| c.set(self.prev));
    }
}

/// Run `f` with `level` (clamped to availability) installed on this thread;
/// the previous level is restored when `f` returns or unwinds.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let _guard = LaneGuard {
        prev: TLS_LEVEL.with(|c| c.replace(Some(clamp(level)))),
    };
    f()
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// SAFETY of the `unsafe` arm: `current()` only ever returns `Avx2` after
// `available()` confirmed the host supports the feature (both `auto_level`
// and `with_level` clamp), so the `#[target_feature]` functions are always
// called on capable hardware.
macro_rules! dispatch {
    ($fn:ident ( $($arg:expr),* $(,)? )) => {
        match current() {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdLevel::Avx2 => unsafe { avx2::$fn($($arg),*) },
            _ => scalar::$fn($($arg),*),
        }
    };
}

/// Lane-blocked leaf dot product `Σ x[i]·y[i]`.
#[must_use]
pub fn leaf_dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    dispatch!(dot(x, y))
}

/// Two lane-blocked dots sharing the left vector: `(Σ x·y, Σ x·z)`.
#[must_use]
pub fn leaf_dot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    dispatch!(dot2(x, y, z))
}

/// Fused leaf CG update: `x ← x + λp`, `r ← r + (−λ)w`, returns `Σ r·r`.
#[must_use]
pub fn leaf_update_xr(lambda: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    debug_assert_eq!(x.len(), p.len());
    debug_assert_eq!(x.len(), w.len());
    debug_assert_eq!(x.len(), r.len());
    dispatch!(update_xr(lambda, p, w, x, r))
}

/// Fused leaf `y ← y + a·x`, returns `Σ y·z`.
#[must_use]
pub fn leaf_axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    debug_assert_eq!(y.len(), z.len());
    dispatch!(axpy_dot(a, x, y, z))
}

/// Fused leaf `y ← y + a·x`, returns `Σ y·y`.
#[must_use]
pub fn leaf_axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy_norm2_sq(a, x, y))
}

/// Elementwise leaf `y ← y + a·x`.
pub fn leaf_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy(a, x, y));
}

/// Elementwise leaf `y ← x + a·y`.
pub fn leaf_xpay(x: &[f64], a: f64, y: &mut [f64]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(xpay(x, a, y));
}

/// Elementwise leaf `w ← a·x + b·y` (the streaming triad).
///
/// `nt` requests non-temporal stores for the pure streaming write to `w`;
/// it engages only when `w` is 32-byte aligned (a plain store is used
/// otherwise) and never changes the stored values — instruction choice is
/// not trace-visible. The caller must fence ([`nt_fence`]) before other
/// threads read `w`; the team runtime's epoch barrier already does.
pub fn leaf_waxpby(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64], nt: bool) {
    debug_assert_eq!(w.len(), x.len());
    debug_assert_eq!(w.len(), y.len());
    dispatch!(waxpby(a, x, b, y, w, nt));
}

/// Elementwise leaf Newton-basis recurrence row:
/// `out[i] = (img[i] − σ·cur[i])·γ` (the `MpkTransform::Newton` level).
pub fn leaf_newton_row(sigma: f64, gamma: f64, img: &[f64], cur: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), img.len());
    debug_assert_eq!(out.len(), cur.len());
    dispatch!(newton_row(sigma, gamma, img, cur, out));
}

/// Elementwise leaf Chebyshev level-0 row:
/// `out[i] = (img[i] − c·cur[i])/δ`.
pub fn leaf_cheb0_row(center: f64, half_width: f64, img: &[f64], cur: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), img.len());
    debug_assert_eq!(out.len(), cur.len());
    dispatch!(cheb0_row(center, half_width, img, cur, out));
}

/// Elementwise leaf Chebyshev three-term row:
/// `out[i] = 2·(img[i] − c·cur[i])/δ − prev[i]`.
pub fn leaf_chebl_row(
    center: f64,
    half_width: f64,
    img: &[f64],
    cur: &[f64],
    prev: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), img.len());
    debug_assert_eq!(out.len(), cur.len());
    debug_assert_eq!(out.len(), prev.len());
    dispatch!(chebl_row(center, half_width, img, cur, prev, out));
}

/// Branch-free 2-D five-point stencil row sweep over one contiguous grid
/// row. Per element the operation sequence is exactly the serial stencil's:
///
/// `acc = center·cur[j]`, then `acc −= up[j]` (if `up`), `acc −= down[j]`
/// (if `down`), `acc −= eps·cur[j−1]` (if `j > 0`), `acc −= eps·cur[j+1]`
/// (if `j + 1 < len`), `out[j] = acc`.
///
/// `up`/`down` are the neighboring grid rows (`None` on boundary rows).
/// Boundary *columns* (first/last element) are evaluated scalar in the same
/// order; the interior is vectorized over shifted windows of the row. Outputs
/// are bit-identical at every lane width because each element is an exact,
/// independent FP expression.
pub fn leaf_stencil2d_row(
    center: f64,
    eps: f64,
    up: Option<&[f64]>,
    down: Option<&[f64]>,
    cur: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), cur.len());
    debug_assert!(up.is_none_or(|u| u.len() == out.len()));
    debug_assert!(down.is_none_or(|d| d.len() == out.len()));
    dispatch!(stencil2d_row(center, eps, up, down, cur, out));
}

/// Branch-free 3-D seven-point stencil row sweep over one contiguous
/// `k`-row of an `(i, j)` line. Per element:
///
/// `acc = 6·cur[k]`, then `acc −= ilo[k]`/`ihi[k]`/`jlo[k]`/`jhi[k]` (each
/// if present, in that order), `acc −= cur[k−1]` (if `k > 0`),
/// `acc −= cur[k+1]` (if `k + 1 < len`), `out[k] = acc`.
///
/// The four optional slices are the neighboring planes/rows (`None` on grid
/// boundaries). Same bit-identity contract as [`leaf_stencil2d_row`].
pub fn leaf_stencil3d_row(
    ilo: Option<&[f64]>,
    ihi: Option<&[f64]>,
    jlo: Option<&[f64]>,
    jhi: Option<&[f64]>,
    cur: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), cur.len());
    debug_assert!(ilo.is_none_or(|s| s.len() == out.len()));
    debug_assert!(ihi.is_none_or(|s| s.len() == out.len()));
    debug_assert!(jlo.is_none_or(|s| s.len() == out.len()));
    debug_assert!(jhi.is_none_or(|s| s.len() == out.len()));
    dispatch!(stencil3d_row(ilo, ihi, jlo, jhi, cur, out));
}

/// Store fence ordering any preceding non-temporal stores before later
/// loads/stores. No-op on backends without NT stores.
pub fn nt_fence() {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if current() != SimdLevel::Scalar {
        // SAFETY: sfence is always safe to execute on x86_64.
        unsafe { std::arch::x86_64::_mm_sfence() };
    }
}

// --- f32 working precision, f64 accumulation --------------------------------

/// Lane-blocked widening dot: `Σ f64(x[i])·f64(y[i])` over `f32` slices.
#[must_use]
pub fn leaf_dot_f32(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    dispatch!(dot_f32(x, y))
}

/// Two widening dots sharing the left vector: `(Σ x·y, Σ x·z)` in `f64`.
#[must_use]
pub fn leaf_dot2_f32(x: &[f32], y: &[f32], z: &[f32]) -> (f64, f64) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    dispatch!(dot2_f32(x, y, z))
}

/// Fused `f32` CG update: `x ← x + λp`, `r ← r + (−λ)w` in `f32`, returns
/// `Σ f64(r)·f64(r)`.
#[must_use]
pub fn leaf_update_xr_f32(lambda: f32, p: &[f32], w: &[f32], x: &mut [f32], r: &mut [f32]) -> f64 {
    debug_assert_eq!(x.len(), p.len());
    debug_assert_eq!(x.len(), w.len());
    debug_assert_eq!(x.len(), r.len());
    dispatch!(update_xr_f32(lambda, p, w, x, r))
}

/// Fused `f32` leaf `y ← y + a·x`, returns `Σ f64(y)²`.
#[must_use]
pub fn leaf_axpy_norm2_sq_f32(a: f32, x: &[f32], y: &mut [f32]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy_norm2_sq_f32(a, x, y))
}

/// Elementwise `f32` leaf `y ← y + a·x`.
pub fn leaf_axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy_f32(a, x, y));
}

/// Elementwise `f32` leaf `y ← x + a·y`.
pub fn leaf_xpay_f32(x: &[f32], a: f32, y: &mut [f32]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(xpay_f32(x, a, y));
}

// ---------------------------------------------------------------------------
// Scalar backend: the canonical recipe, element at a time
// ---------------------------------------------------------------------------

#[allow(clippy::needless_range_loop)]
mod scalar {
    use super::{combine8, LANES};

    pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            acc[i & (LANES - 1)] += x[i] * y[i];
        }
        combine8(&acc)
    }

    pub(super) fn dot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
        let mut ay = [0.0f64; LANES];
        let mut az = [0.0f64; LANES];
        for i in 0..x.len() {
            ay[i & (LANES - 1)] += x[i] * y[i];
            az[i & (LANES - 1)] += x[i] * z[i];
        }
        (combine8(&ay), combine8(&az))
    }

    pub(super) fn update_xr(
        lambda: f64,
        p: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            x[i] += lambda * p[i];
            r[i] += (-lambda) * w[i];
            acc[i & (LANES - 1)] += r[i] * r[i];
        }
        combine8(&acc)
    }

    pub(super) fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] += a * x[i];
            acc[i & (LANES - 1)] += y[i] * z[i];
        }
        combine8(&acc)
    }

    pub(super) fn axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] += a * x[i];
            acc[i & (LANES - 1)] += y[i] * y[i];
        }
        combine8(&acc)
    }

    pub(super) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        for i in 0..y.len() {
            y[i] += a * x[i];
        }
    }

    pub(super) fn xpay(x: &[f64], a: f64, y: &mut [f64]) {
        for i in 0..y.len() {
            y[i] = x[i] + a * y[i];
        }
    }

    pub(super) fn waxpby(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64], _nt: bool) {
        for i in 0..w.len() {
            w[i] = a * x[i] + b * y[i];
        }
    }

    pub(super) fn newton_row(sigma: f64, gamma: f64, img: &[f64], cur: &[f64], out: &mut [f64]) {
        for i in 0..out.len() {
            out[i] = (img[i] - sigma * cur[i]) * gamma;
        }
    }

    pub(super) fn cheb0_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        out: &mut [f64],
    ) {
        for i in 0..out.len() {
            out[i] = (img[i] - center * cur[i]) / half_width;
        }
    }

    pub(super) fn chebl_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        prev: &[f64],
        out: &mut [f64],
    ) {
        for i in 0..out.len() {
            out[i] = 2.0 * (img[i] - center * cur[i]) / half_width - prev[i];
        }
    }

    pub(super) fn stencil2d_row(
        center: f64,
        eps: f64,
        up: Option<&[f64]>,
        down: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        for j in 0..n {
            let mut acc = center * cur[j];
            if let Some(u) = up {
                acc -= u[j];
            }
            if let Some(d) = down {
                acc -= d[j];
            }
            if j > 0 {
                acc -= eps * cur[j - 1];
            }
            if j + 1 < n {
                acc -= eps * cur[j + 1];
            }
            out[j] = acc;
        }
    }

    pub(super) fn stencil3d_row(
        ilo: Option<&[f64]>,
        ihi: Option<&[f64]>,
        jlo: Option<&[f64]>,
        jhi: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        for k in 0..n {
            let mut acc = 6.0 * cur[k];
            if let Some(s) = ilo {
                acc -= s[k];
            }
            if let Some(s) = ihi {
                acc -= s[k];
            }
            if let Some(s) = jlo {
                acc -= s[k];
            }
            if let Some(s) = jhi {
                acc -= s[k];
            }
            if k > 0 {
                acc -= cur[k - 1];
            }
            if k + 1 < n {
                acc -= cur[k + 1];
            }
            out[k] = acc;
        }
    }

    pub(super) fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            acc[i & (LANES - 1)] += f64::from(x[i]) * f64::from(y[i]);
        }
        combine8(&acc)
    }

    pub(super) fn dot2_f32(x: &[f32], y: &[f32], z: &[f32]) -> (f64, f64) {
        let mut ay = [0.0f64; LANES];
        let mut az = [0.0f64; LANES];
        for i in 0..x.len() {
            ay[i & (LANES - 1)] += f64::from(x[i]) * f64::from(y[i]);
            az[i & (LANES - 1)] += f64::from(x[i]) * f64::from(z[i]);
        }
        (combine8(&ay), combine8(&az))
    }

    pub(super) fn update_xr_f32(
        lambda: f32,
        p: &[f32],
        w: &[f32],
        x: &mut [f32],
        r: &mut [f32],
    ) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            x[i] += lambda * p[i];
            r[i] += (-lambda) * w[i];
            acc[i & (LANES - 1)] += f64::from(r[i]) * f64::from(r[i]);
        }
        combine8(&acc)
    }

    pub(super) fn axpy_norm2_sq_f32(a: f32, x: &[f32], y: &mut [f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] += a * x[i];
            acc[i & (LANES - 1)] += f64::from(y[i]) * f64::from(y[i]);
        }
        combine8(&acc)
    }

    pub(super) fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
        for i in 0..y.len() {
            y[i] += a * x[i];
        }
    }

    pub(super) fn xpay_f32(x: &[f32], a: f32, y: &mut [f32]) {
        for i in 0..y.len() {
            y[i] = x[i] + a * y[i];
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked bodies: the scalar recipe as whole `LANES`-element chunks
// ---------------------------------------------------------------------------

/// One safe body per kernel, compiled for AVX2 by the `avx2` module. The
/// reductions walk their slices as whole `LANES`-element chunks:
/// accumulator `j` takes element `j` of every chunk and the tail feeds
/// accumulators `0..tail`, so each accumulator receives the scalar
/// backend's terms in the scalar order, while the fixed chunk width lets
/// the compiler keep all eight accumulators in two vector registers. The
/// elementwise kernels and stencil rows carry no accumulators and are
/// plain loops over whole slices. No FMA: Rust never contracts a `mul` and
/// an `add`. Every body is `#[inline(always)]`, so its code is generated
/// inside its `#[target_feature]` wrapper, with AVX2 enabled.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod chunked {
    use super::{combine8, LANES};
    use std::ops::{Add, Mul, Neg};

    /// A working precision: elementwise arithmetic in `Self`, each product
    /// term widened to `f64` before it is summed.
    pub(super) trait Real:
        Copy + Into<f64> + Add<Output = Self> + Mul<Output = Self> + Neg<Output = Self>
    {
    }
    impl Real for f32 {}
    impl Real for f64 {}

    /// The term a reduction accumulates: `f64(a)·f64(b)`.
    #[inline(always)]
    fn prod<T: Real>(a: T, b: T) -> f64 {
        a.into() * b.into()
    }

    /// The tail's terms: `term(j)` on lanes `0..t`, `−0.0` on the rest.
    /// Each body computes them before its chunk loop and adds them after it
    /// ([`sum`]); computed afterwards, they drag the loop's accumulators
    /// out of their vector registers.
    #[inline(always)]
    fn tail_terms(t: usize, mut term: impl FnMut(usize) -> f64) -> [f64; LANES] {
        let mut terms = [-0.0f64; LANES];
        for (j, v) in terms.iter_mut().enumerate() {
            if j < t {
                *v = term(j);
            }
        }
        terms
    }

    /// Add the tail's terms to the chunk sums, then fan in. A lane with no
    /// tail element adds `−0.0`, the exact additive identity (`−0.0 + −0.0`
    /// stays `−0.0`), so every accumulator ends as the scalar one does.
    #[inline(always)]
    fn sum(acc: [f64; LANES], tail: [f64; LANES]) -> f64 {
        combine8(&std::array::from_fn(|j| acc[j] + tail[j]))
    }

    #[inline(always)]
    pub(super) fn dot<T: Real>(x: &[T], y: &[T]) -> f64 {
        let ((xc, xt), (yc, yt)) = (x.as_chunks::<LANES>(), y.as_chunks::<LANES>());
        let tail = tail_terms(xt.len(), |j| prod(xt[j], yt[j]));
        let mut acc = [0.0f64; LANES];
        for (xs, ys) in xc.iter().zip(yc) {
            for j in 0..LANES {
                acc[j] += prod(xs[j], ys[j]);
            }
        }
        sum(acc, tail)
    }

    #[inline(always)]
    pub(super) fn dot2<T: Real>(x: &[T], y: &[T], z: &[T]) -> (f64, f64) {
        let (xc, xt) = x.as_chunks::<LANES>();
        let ((yc, yt), (zc, zt)) = (y.as_chunks::<LANES>(), z.as_chunks::<LANES>());
        let ty = tail_terms(xt.len(), |j| prod(xt[j], yt[j]));
        let tz = tail_terms(xt.len(), |j| prod(xt[j], zt[j]));
        let (mut ay, mut az) = ([0.0f64; LANES], [0.0f64; LANES]);
        for ((xs, ys), zs) in xc.iter().zip(yc).zip(zc) {
            for j in 0..LANES {
                ay[j] += prod(xs[j], ys[j]);
                az[j] += prod(xs[j], zs[j]);
            }
        }
        (sum(ay, ty), sum(az, tz))
    }

    #[inline(always)]
    pub(super) fn update_xr<T: Real>(lambda: T, p: &[T], w: &[T], x: &mut [T], r: &mut [T]) -> f64 {
        let step = |x: &mut T, r: &mut T, p: T, w: T| {
            *x = *x + lambda * p;
            *r = *r + (-lambda) * w;
            prod(*r, *r)
        };
        let ((xc, xt), (rc, rt)) = (x.as_chunks_mut::<LANES>(), r.as_chunks_mut::<LANES>());
        let ((pc, pt), (wc, wt)) = (p.as_chunks::<LANES>(), w.as_chunks::<LANES>());
        let tail = tail_terms(xt.len(), |j| step(&mut xt[j], &mut rt[j], pt[j], wt[j]));
        let mut acc = [0.0f64; LANES];
        for (((xs, rs), ps), ws) in xc.iter_mut().zip(rc).zip(pc).zip(wc) {
            for j in 0..LANES {
                acc[j] += step(&mut xs[j], &mut rs[j], ps[j], ws[j]);
            }
        }
        sum(acc, tail)
    }

    #[inline(always)]
    pub(super) fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
        let step = |y: &mut f64, x: f64, z: f64| {
            *y += a * x;
            *y * z
        };
        let ((xc, xt), (yc, yt)) = (x.as_chunks::<LANES>(), y.as_chunks_mut::<LANES>());
        let (zc, zt) = z.as_chunks::<LANES>();
        let tail = tail_terms(xt.len(), |j| step(&mut yt[j], xt[j], zt[j]));
        let mut acc = [0.0f64; LANES];
        for ((xs, ys), zs) in xc.iter().zip(yc).zip(zc) {
            for j in 0..LANES {
                acc[j] += step(&mut ys[j], xs[j], zs[j]);
            }
        }
        sum(acc, tail)
    }

    #[inline(always)]
    pub(super) fn axpy_norm2_sq<T: Real>(a: T, x: &[T], y: &mut [T]) -> f64 {
        let step = |y: &mut T, x: T| {
            *y = *y + a * x;
            prod(*y, *y)
        };
        let ((xc, xt), (yc, yt)) = (x.as_chunks::<LANES>(), y.as_chunks_mut::<LANES>());
        let tail = tail_terms(xt.len(), |j| step(&mut yt[j], xt[j]));
        let mut acc = [0.0f64; LANES];
        for (xs, ys) in xc.iter().zip(yc) {
            for j in 0..LANES {
                acc[j] += step(&mut ys[j], xs[j]);
            }
        }
        sum(acc, tail)
    }

    // The elementwise kernels: a plain zip over whole slices, which the
    // compiler vectorizes on its own.

    #[inline(always)]
    pub(super) fn axpy<T: Real>(a: T, x: &[T], y: &mut [T]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y = *y + a * x;
        }
    }

    #[inline(always)]
    pub(super) fn xpay<T: Real>(x: &[T], a: T, y: &mut [T]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y = x + a * *y;
        }
    }

    #[inline(always)]
    pub(super) fn waxpby(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        for ((w, &x), &y) in w.iter_mut().zip(x).zip(y) {
            *w = a * x + b * y;
        }
    }

    #[inline(always)]
    pub(super) fn newton_row(sigma: f64, gamma: f64, img: &[f64], cur: &[f64], out: &mut [f64]) {
        for ((o, &img), &cur) in out.iter_mut().zip(img).zip(cur) {
            *o = (img - sigma * cur) * gamma;
        }
    }

    #[inline(always)]
    pub(super) fn cheb0_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        out: &mut [f64],
    ) {
        for ((o, &img), &cur) in out.iter_mut().zip(img).zip(cur) {
            *o = (img - center * cur) / half_width;
        }
    }

    #[inline(always)]
    pub(super) fn chebl_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        prev: &[f64],
        out: &mut [f64],
    ) {
        for (((o, &img), &cur), &prev) in out.iter_mut().zip(img).zip(cur).zip(prev) {
            *o = 2.0 * (img - center * cur) / half_width - prev;
        }
    }

    /// One stencil row, shared by the 2-D and 3-D kernels:
    /// `out[k] = diag·cur[k] − planes…[k] − side(cur[k−1]) − side(cur[k+1])`,
    /// subtracting in that order, with `side(v) = eps·v` (or `v` when `eps`
    /// is `None`), the absent planes skipped and the two in-row neighbours
    /// only where they exist.
    #[inline(always)]
    fn stencil_row<const P: usize>(
        diag: f64,
        eps: Option<f64>,
        planes: [Option<&[f64]>; P],
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let side = |v: f64| eps.map_or(v, |e| e * v);
        let at = |t: usize| {
            let mut acc = diag * cur[t];
            for s in planes.iter().flatten() {
                acc -= s[t];
            }
            if t > 0 {
                acc -= side(cur[t - 1]);
            }
            if t + 1 < n {
                acc -= side(cur[t + 1]);
            }
            acc
        };
        if n < 3 {
            for (t, o) in out.iter_mut().enumerate() {
                *o = at(t);
            }
            return;
        }
        (out[0], out[n - 1]) = (at(0), at(n - 1));
        // the present planes as a fixed-length list: one loop per count
        let mut list = [cur; P];
        let mut m = 0;
        for s in planes.iter().flatten() {
            list[m] = &s[1..n - 1];
            m += 1;
        }
        let inner = &mut out[1..n - 1];
        match list[..m] {
            [] => interior(diag, side, [], cur, inner),
            [a] => interior(diag, side, [a], cur, inner),
            [a, b] => interior(diag, side, [a, b], cur, inner),
            [a, b, c] => interior(diag, side, [a, b, c], cur, inner),
            [a, b, c, d] => interior(diag, side, [a, b, c, d], cur, inner),
            _ => unreachable!("at most four neighbour planes"),
        }
    }

    /// The interior columns of [`stencil_row`] with `M` planes present.
    /// Every element is its own expression, so no chunks are needed: the
    /// in-row neighbours are `cur` shifted one element either way.
    #[inline(always)]
    fn interior<const M: usize>(
        diag: f64,
        side: impl Fn(f64) -> f64,
        planes: [&[f64]; M],
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let (left, mid, right) = (&cur[..n], &cur[1..=n], &cur[2..n + 2]);
        let planes = planes.map(|s| &s[..n]);
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = diag * mid[k];
            for s in planes {
                acc -= s[k];
            }
            *o = acc - side(left[k]) - side(right[k]);
        }
    }

    #[inline(always)]
    pub(super) fn stencil2d_row(
        center: f64,
        eps: f64,
        up: Option<&[f64]>,
        down: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        stencil_row(center, Some(eps), [up, down], cur, out);
    }

    #[inline(always)]
    pub(super) fn stencil3d_row(
        ilo: Option<&[f64]>,
        ihi: Option<&[f64]>,
        jlo: Option<&[f64]>,
        jhi: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        stencil_row(6.0, None, [ilo, ihi, jlo, jhi], cur, out);
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend: the chunked bodies compiled with AVX2 enabled
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::{chunked, LANES};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_stream_pd, _mm_sfence,
    };

    /// Wrap chunked bodies in `#[target_feature(enable = "avx2")]`
    /// functions carrying the scalar backend's names and signatures.
    macro_rules! compile_for_avx2 {
        ($(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:ident;)*) => {$(
            #[target_feature(enable = "avx2")]
            pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                chunked::$body($($arg),*)
            }
        )*};
    }

    compile_for_avx2! {
        fn dot(x: &[f64], y: &[f64]) -> f64 = dot;
        fn dot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) = dot2;
        fn update_xr(l: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 = update_xr;
        fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 = axpy_dot;
        fn axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 = axpy_norm2_sq;
        fn axpy(a: f64, x: &[f64], y: &mut [f64]) = axpy;
        fn xpay(x: &[f64], a: f64, y: &mut [f64]) = xpay;
        fn newton_row(s: f64, g: f64, img: &[f64], cur: &[f64], out: &mut [f64]) = newton_row;
        fn cheb0_row(c: f64, h: f64, img: &[f64], cur: &[f64], out: &mut [f64]) = cheb0_row;
        fn chebl_row(
            c: f64, h: f64, img: &[f64], cur: &[f64], prev: &[f64], out: &mut [f64]
        ) = chebl_row;
        fn stencil2d_row(
            c: f64, e: f64, up: Option<&[f64]>, dn: Option<&[f64]>, cur: &[f64], out: &mut [f64]
        ) = stencil2d_row;
        fn stencil3d_row(
            il: Option<&[f64]>, ih: Option<&[f64]>, jl: Option<&[f64]>, jh: Option<&[f64]>,
            cur: &[f64], out: &mut [f64]
        ) = stencil3d_row;
        fn dot_f32(x: &[f32], y: &[f32]) -> f64 = dot;
        fn dot2_f32(x: &[f32], y: &[f32], z: &[f32]) -> (f64, f64) = dot2;
        fn update_xr_f32(l: f32, p: &[f32], w: &[f32], x: &mut [f32], r: &mut [f32]) -> f64 = update_xr;
        fn axpy_norm2_sq_f32(a: f32, x: &[f32], y: &mut [f32]) -> f64 = axpy_norm2_sq;
        fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) = axpy;
        fn xpay_f32(x: &[f32], a: f32, y: &mut [f32]) = xpay;
    }

    /// The triad, with non-temporal stores when `nt` is set and `w` is
    /// 32-byte aligned (E22's roofline); otherwise the chunked body.
    /// Streaming stores the same values, so `nt` never changes bits.
    #[target_feature(enable = "avx2")]
    pub(super) fn waxpby(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64], nt: bool) {
        if !nt || w.as_ptr().cast::<u8>().align_offset(32) != 0 {
            return chunked::waxpby(a, x, b, y, w);
        }
        let ((wc, wt), (xc, xt)) = (w.as_chunks_mut::<LANES>(), x.as_chunks::<LANES>());
        let (yc, yt) = y.as_chunks::<LANES>();
        let (av, bv) = (_mm256_set1_pd(a), _mm256_set1_pd(b));
        for ((ws, xs), ys) in wc.iter_mut().zip(xc).zip(yc) {
            for h in [0, 4] {
                // SAFETY: `h + 4 <= LANES`, so every access stays inside its
                // chunk, and `ws` is 32-byte aligned: `w` is, and a chunk is
                // 64 bytes long.
                unsafe {
                    let v = _mm256_add_pd(
                        _mm256_mul_pd(av, _mm256_loadu_pd(xs.as_ptr().add(h))),
                        _mm256_mul_pd(bv, _mm256_loadu_pd(ys.as_ptr().add(h))),
                    );
                    _mm256_stream_pd(ws.as_mut_ptr().add(h), v);
                }
            }
        }
        _mm_sfence();
        chunked::waxpby(a, xt, b, yt, wt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| available(l))
            .collect()
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 4096) as f64) / 1024.0 - 2.0
            })
            .collect()
    }

    fn pseudo32(n: usize, seed: u64) -> Vec<f32> {
        pseudo(n, seed).into_iter().map(|v| v as f32).collect()
    }

    /// Adversarial payload: subnormals, signed zeros, huge/tiny magnitudes.
    fn adversarial(n: usize) -> Vec<f64> {
        let base = [
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 4.0,
            0.0,
            -0.0,
            1.0e300,
            -1.0e-300,
            3.5,
            -1.0,
        ];
        (0..n)
            .map(|i| base[i % base.len()] * (1.0 + i as f64))
            .collect()
    }

    // Every length class: empty, sub-lane, exact blocks, stragglers.
    const SIZES: [usize; 9] = [0, 1, 3, 7, 8, 9, 16, 100, 1023];

    /// Assert `f` returns the same bits at every available level.
    fn assert_level_invariant(tag: &str, f: impl Fn() -> u64) {
        let reference = with_level(SimdLevel::Scalar, &f);
        for l in levels() {
            let got = with_level(l, &f);
            assert_eq!(got, reference, "{tag}: {} != scalar", l.name());
        }
    }

    #[test]
    fn reduction_kernels_bit_identical_across_levels() {
        for n in SIZES {
            let x = pseudo(n, 3);
            let y = pseudo(n, 5);
            let z = pseudo(n, 7);
            assert_level_invariant(&format!("dot n={n}"), || leaf_dot(&x, &y).to_bits());
            assert_level_invariant(&format!("dot2 n={n}"), || {
                let (a, b) = leaf_dot2(&x, &y, &z);
                a.to_bits() ^ b.to_bits().rotate_left(1)
            });
        }
    }

    #[test]
    fn fused_kernels_bit_identical_across_levels_including_outputs() {
        for n in SIZES {
            let p = pseudo(n, 11);
            let w = pseudo(n, 13);
            let z = pseudo(n, 15);
            // reference run at scalar level, then compare every level
            let reference = with_level(SimdLevel::Scalar, || {
                let (mut x, mut r) = (pseudo(n, 17), pseudo(n, 19));
                let s = leaf_update_xr(0.37, &p, &w, &mut x, &mut r);
                (s.to_bits(), x, r)
            });
            for l in levels() {
                let got = with_level(l, || {
                    let (mut x, mut r) = (pseudo(n, 17), pseudo(n, 19));
                    let s = leaf_update_xr(0.37, &p, &w, &mut x, &mut r);
                    (s.to_bits(), x, r)
                });
                assert_eq!(got.0, reference.0, "update_xr sum n={n} {}", l.name());
                assert_eq!(got.1, reference.1, "update_xr x n={n} {}", l.name());
                assert_eq!(got.2, reference.2, "update_xr r n={n} {}", l.name());
            }

            for (tag, run) in [("axpy_dot", 0usize), ("axpy_norm2_sq", 1)] {
                let reference = with_level(SimdLevel::Scalar, || {
                    let mut v = pseudo(n, 21);
                    let s = match run {
                        0 => leaf_axpy_dot(-0.7, &p, &mut v, &z),
                        _ => leaf_axpy_norm2_sq(1.3, &p, &mut v),
                    };
                    (s.to_bits(), v)
                });
                for l in levels() {
                    let got = with_level(l, || {
                        let mut v = pseudo(n, 21);
                        let s = match run {
                            0 => leaf_axpy_dot(-0.7, &p, &mut v, &z),
                            _ => leaf_axpy_norm2_sq(1.3, &p, &mut v),
                        };
                        (s.to_bits(), v)
                    });
                    assert_eq!(got.0, reference.0, "{tag} sum n={n} {}", l.name());
                    assert_eq!(got.1, reference.1, "{tag} out n={n} {}", l.name());
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_identical_across_levels() {
        for n in SIZES {
            let x = pseudo(n, 23);
            let y0 = pseudo(n, 25);
            for l in levels() {
                let mut ya = y0.clone();
                let mut yb = y0.clone();
                with_level(SimdLevel::Scalar, || leaf_axpy(0.9, &x, &mut ya));
                with_level(l, || leaf_axpy(0.9, &x, &mut yb));
                assert_eq!(ya, yb, "axpy n={n} {}", l.name());

                let mut ya = y0.clone();
                let mut yb = y0.clone();
                with_level(SimdLevel::Scalar, || leaf_xpay(&x, -1.5, &mut ya));
                with_level(l, || leaf_xpay(&x, -1.5, &mut yb));
                assert_eq!(ya, yb, "xpay n={n} {}", l.name());

                let mut wa = vec![0.0; n];
                let mut wb = vec![0.0; n];
                with_level(SimdLevel::Scalar, || {
                    leaf_waxpby(2.0, &x, 0.5, &y0, &mut wa, true);
                });
                with_level(l, || leaf_waxpby(2.0, &x, 0.5, &y0, &mut wb, true));
                assert_eq!(wa, wb, "waxpby n={n} {}", l.name());
            }
        }
    }

    #[test]
    fn mpk_row_kernels_bit_identical_across_levels() {
        for n in SIZES {
            let img = pseudo(n, 41);
            let cur = pseudo(n, 43);
            let prev = pseudo(n, 45);
            for l in levels() {
                let mut oa = vec![0.0; n];
                let mut ob = vec![0.0; n];
                with_level(SimdLevel::Scalar, || {
                    leaf_newton_row(1.7, 0.5, &img, &cur, &mut oa);
                });
                with_level(l, || leaf_newton_row(1.7, 0.5, &img, &cur, &mut ob));
                assert_eq!(oa, ob, "newton_row n={n} {}", l.name());

                with_level(SimdLevel::Scalar, || {
                    leaf_cheb0_row(4.1, 3.9, &img, &cur, &mut oa);
                });
                with_level(l, || leaf_cheb0_row(4.1, 3.9, &img, &cur, &mut ob));
                assert_eq!(oa, ob, "cheb0_row n={n} {}", l.name());

                with_level(SimdLevel::Scalar, || {
                    leaf_chebl_row(4.1, 3.9, &img, &cur, &prev, &mut oa);
                });
                with_level(l, || leaf_chebl_row(4.1, 3.9, &img, &cur, &prev, &mut ob));
                assert_eq!(oa, ob, "chebl_row n={n} {}", l.name());
            }
        }
    }

    #[test]
    fn stencil_row_kernels_bit_identical_across_levels() {
        for n in SIZES {
            let a = pseudo(n, 51);
            let b = pseudo(n, 53);
            let c = pseudo(n, 55);
            let d = pseudo(n, 57);
            let cur = pseudo(n, 59);
            for l in levels() {
                let mut oa = vec![0.0; n];
                let mut ob = vec![0.0; n];
                for (u, dn) in [
                    (None, None),
                    (Some(&a[..]), None),
                    (None, Some(&b[..])),
                    (Some(&a[..]), Some(&b[..])),
                ] {
                    with_level(SimdLevel::Scalar, || {
                        leaf_stencil2d_row(2.2, 0.1, u, dn, &cur, &mut oa);
                    });
                    with_level(l, || leaf_stencil2d_row(2.2, 0.1, u, dn, &cur, &mut ob));
                    assert_eq!(oa, ob, "stencil2d_row n={n} {}", l.name());
                }
                for mask in 0..16u32 {
                    let on = |bit: u32| (mask >> bit) & 1 == 1;
                    let (il, ih) = (on(0).then_some(&a[..]), on(1).then_some(&b[..]));
                    let (jl, jh) = (on(2).then_some(&c[..]), on(3).then_some(&d[..]));
                    with_level(SimdLevel::Scalar, || {
                        leaf_stencil3d_row(il, ih, jl, jh, &cur, &mut oa);
                    });
                    with_level(l, || leaf_stencil3d_row(il, ih, jl, jh, &cur, &mut ob));
                    assert_eq!(oa, ob, "stencil3d_row n={n} mask={mask} {}", l.name());
                }
            }
        }
    }

    #[test]
    fn f32_kernels_bit_identical_across_levels() {
        for n in SIZES {
            let x = pseudo32(n, 31);
            let y = pseudo32(n, 33);
            let z = pseudo32(n, 35);
            assert_level_invariant(&format!("dot_f32 n={n}"), || leaf_dot_f32(&x, &y).to_bits());
            assert_level_invariant(&format!("dot2_f32 n={n}"), || {
                let (a, b) = leaf_dot2_f32(&x, &y, &z);
                a.to_bits() ^ b.to_bits().rotate_left(1)
            });
            let reference = with_level(SimdLevel::Scalar, || {
                let (mut xv, mut rv) = (pseudo32(n, 37), pseudo32(n, 39));
                let s = leaf_update_xr_f32(0.41, &x, &y, &mut xv, &mut rv);
                let u = leaf_axpy_norm2_sq_f32(0.6, &x, &mut rv);
                leaf_axpy_f32(1.7, &x, &mut xv);
                leaf_xpay_f32(&y, 0.2, &mut xv);
                (s.to_bits(), u.to_bits(), xv, rv)
            });
            for l in levels() {
                let got = with_level(l, || {
                    let (mut xv, mut rv) = (pseudo32(n, 37), pseudo32(n, 39));
                    let s = leaf_update_xr_f32(0.41, &x, &y, &mut xv, &mut rv);
                    let u = leaf_axpy_norm2_sq_f32(0.6, &x, &mut rv);
                    leaf_axpy_f32(1.7, &x, &mut xv);
                    leaf_xpay_f32(&y, 0.2, &mut xv);
                    (s.to_bits(), u.to_bits(), xv, rv)
                });
                assert_eq!(got.0, reference.0, "f32 chain n={n} {}", l.name());
                assert_eq!(got.1, reference.1, "f32 chain n={n} {}", l.name());
                assert_eq!(got.2, reference.2, "f32 x out n={n} {}", l.name());
                assert_eq!(got.3, reference.3, "f32 r out n={n} {}", l.name());
            }
        }
    }

    #[test]
    fn adversarial_inputs_stay_bit_identical() {
        for n in [13usize, 64, 257] {
            let x = adversarial(n);
            let y = adversarial(n + 1)[1..].to_vec();
            assert_level_invariant(&format!("adv dot n={n}"), || leaf_dot(&x, &y).to_bits());
        }
    }

    #[test]
    fn nan_propagates_identically() {
        let mut x = pseudo(100, 43);
        x[37] = f64::NAN;
        let y = pseudo(100, 45);
        for l in levels() {
            let d = with_level(l, || leaf_dot(&x, &y));
            assert!(d.is_nan(), "{}", l.name());
        }
        assert_level_invariant("nan dot bits", || leaf_dot(&x, &y).to_bits());
    }

    #[test]
    fn alignment_of_slice_never_changes_bits() {
        // same data at 8 different offsets into a backing buffer: the lane
        // map is slice-relative, so every offset gives identical bits
        let backing = pseudo(4096 + 16, 47);
        let ybacking = pseudo(4096 + 16, 49);
        let reference = leaf_dot(&backing[..4096], &ybacking[..4096]);
        for off in 1..8 {
            let x = &backing[off..off + 4096];
            let y = &ybacking[off..off + 4096];
            let shifted_ref = with_level(SimdLevel::Scalar, || leaf_dot(x, y));
            for l in levels() {
                let got = with_level(l, || leaf_dot(x, y));
                assert_eq!(
                    got.to_bits(),
                    shifted_ref.to_bits(),
                    "off={off} {}",
                    l.name()
                );
            }
        }
        // (different data windows give different values, of course)
        let _ = reference;
    }

    #[test]
    fn empty_reductions_are_positive_zero() {
        for l in levels() {
            with_level(l, || {
                assert_eq!(leaf_dot(&[], &[]).to_bits(), 0.0f64.to_bits());
                assert_eq!(leaf_dot_f32(&[], &[]).to_bits(), 0.0f64.to_bits());
            });
        }
    }

    #[test]
    fn combine8_is_the_documented_association() {
        let a = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert_eq!(
            combine8(&a).to_bits(),
            (((1.0f64 + 2.0) + (4.0 + 8.0)) + ((16.0 + 32.0) + (64.0 + 128.0))).to_bits()
        );
    }

    #[test]
    fn with_level_restores_previous_level() {
        let outer = current();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(current(), SimdLevel::Scalar);
            with_level(SimdLevel::Avx2, || {
                // clamped to something available; never panics
                assert!(available(current()));
            });
            assert_eq!(current(), SimdLevel::Scalar);
        });
        assert_eq!(current(), outer);
    }

    #[test]
    fn clamp_only_returns_available_levels() {
        for l in [SimdLevel::Scalar, SimdLevel::Avx2] {
            assert!(available(clamp(l)), "clamp({l:?}) not available");
        }
    }

    #[test]
    fn scalar_level_always_available() {
        assert!(available(SimdLevel::Scalar));
        assert!(levels().contains(&SimdLevel::Scalar));
    }
}
