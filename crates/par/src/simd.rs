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
//! Two backends execute this recipe: the scalar backend one element at a
//! time, the AVX2 backend with the eight accumulators in two 4-lane
//! registers. Both perform the *same* IEEE-754 additions in the *same*
//! association, so every kernel here is **bit-identical across backends** —
//! SIMD selection is a pure performance knob, never a numerics knob. (FMA is
//! deliberately never used: contracting `mul + add` would change the bits.)
//! The kernels are store- and bandwidth-bound (E22), so no wider register
//! backend is kept: it would have no bytes left to save.
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

/// Lane-blocked leaf sum `Σ x[i]`.
#[must_use]
pub fn leaf_sum(x: &[f64]) -> f64 {
    dispatch!(sum(x))
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

/// Fused leaf `y ← x + a·y`, returns `Σ y·y`.
#[must_use]
pub fn leaf_xpay_norm2_sq(x: &[f64], a: f64, y: &mut [f64]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(xpay_norm2_sq(x, a, y))
}

/// Fused leaf `w ← a·x + b·y`, returns `Σ w·z`.
///
/// `nt` requests non-temporal stores for the pure streaming write to `w`;
/// it engages only when `w` is 32-byte aligned (a plain store is used
/// otherwise) and never changes the stored values — instruction choice is
/// not trace-visible. Callers set it when `w` exceeds the cache working
/// set. The caller must fence (`nt_fence`) before other threads read `w`;
/// the team runtime's epoch barrier already does.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn leaf_waxpby_dot(
    a: f64,
    x: &[f64],
    b: f64,
    y: &[f64],
    w: &mut [f64],
    z: &[f64],
    nt: bool,
) -> f64 {
    debug_assert_eq!(w.len(), x.len());
    debug_assert_eq!(w.len(), y.len());
    debug_assert_eq!(w.len(), z.len());
    dispatch!(waxpby_dot(a, x, b, y, w, z, nt))
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

/// Elementwise leaf `w ← a·x + b·y` (streaming variant; see
/// [`leaf_waxpby_dot`] for the `nt` contract).
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
/// order; the interior is vectorized with unaligned neighbor loads. Outputs
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

/// Fused `f32` leaf `y ← y + a·x`, returns `Σ f64(y)·f64(z)`.
#[must_use]
pub fn leaf_axpy_dot_f32(a: f32, x: &[f32], y: &mut [f32], z: &[f32]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    debug_assert_eq!(y.len(), z.len());
    dispatch!(axpy_dot_f32(a, x, y, z))
}

/// Fused `f32` leaf `y ← y + a·x`, returns `Σ f64(y)²`.
#[must_use]
pub fn leaf_axpy_norm2_sq_f32(a: f32, x: &[f32], y: &mut [f32]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy_norm2_sq_f32(a, x, y))
}

/// Fused `f32` leaf `y ← x + a·y`, returns `Σ f64(y)²`.
#[must_use]
pub fn leaf_xpay_norm2_sq_f32(x: &[f32], a: f32, y: &mut [f32]) -> f64 {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(xpay_norm2_sq_f32(x, a, y))
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

    pub(super) fn sum(x: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            acc[i & (LANES - 1)] += x[i];
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

    pub(super) fn xpay_norm2_sq(x: &[f64], a: f64, y: &mut [f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] = x[i] + a * y[i];
            acc[i & (LANES - 1)] += y[i] * y[i];
        }
        combine8(&acc)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn waxpby_dot(
        a: f64,
        x: &[f64],
        b: f64,
        y: &[f64],
        w: &mut [f64],
        z: &[f64],
        _nt: bool,
    ) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..w.len() {
            w[i] = a * x[i] + b * y[i];
            acc[i & (LANES - 1)] += w[i] * z[i];
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

    pub(super) fn axpy_dot_f32(a: f32, x: &[f32], y: &mut [f32], z: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] += a * x[i];
            acc[i & (LANES - 1)] += f64::from(y[i]) * f64::from(z[i]);
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

    pub(super) fn xpay_norm2_sq_f32(x: &[f32], a: f32, y: &mut [f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..y.len() {
            y[i] = x[i] + a * y[i];
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
// AVX2 backend: lanes {0..3} in `lo`, lanes {4..7} in `hi`
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::{combine8, LANES};
    use std::arch::x86_64::*;

    /// Spill the two accumulator registers into the canonical lane array.
    #[target_feature(enable = "avx2")]
    unsafe fn spill(lo: __m256d, hi: __m256d) -> [f64; LANES] {
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), lo);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), hi);
        acc
    }

    /// Widen the low/high halves of 8 packed `f32` to two 4×`f64` registers.
    #[target_feature(enable = "avx2")]
    unsafe fn widen(v: __m256) -> (__m256d, __m256d) {
        (
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)),
        )
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let m = n & !(LANES - 1);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let x0 = _mm256_loadu_pd(x.as_ptr().add(i));
            let y0 = _mm256_loadu_pd(y.as_ptr().add(i));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(x0, y0));
            let x1 = _mm256_loadu_pd(x.as_ptr().add(i + 4));
            let y1 = _mm256_loadu_pd(y.as_ptr().add(i + 4));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(x1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            acc[t & (LANES - 1)] += x[t] * y[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum(x: &[f64]) -> f64 {
        let n = x.len();
        let m = n & !(LANES - 1);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            lo = _mm256_add_pd(lo, _mm256_loadu_pd(x.as_ptr().add(i)));
            hi = _mm256_add_pd(hi, _mm256_loadu_pd(x.as_ptr().add(i + 4)));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            acc[t & (LANES - 1)] += x[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
        let n = x.len();
        let m = n & !(LANES - 1);
        let (mut ylo, mut yhi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut zlo, mut zhi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let x0 = _mm256_loadu_pd(x.as_ptr().add(i));
            let x1 = _mm256_loadu_pd(x.as_ptr().add(i + 4));
            ylo = _mm256_add_pd(ylo, _mm256_mul_pd(x0, _mm256_loadu_pd(y.as_ptr().add(i))));
            yhi = _mm256_add_pd(
                yhi,
                _mm256_mul_pd(x1, _mm256_loadu_pd(y.as_ptr().add(i + 4))),
            );
            zlo = _mm256_add_pd(zlo, _mm256_mul_pd(x0, _mm256_loadu_pd(z.as_ptr().add(i))));
            zhi = _mm256_add_pd(
                zhi,
                _mm256_mul_pd(x1, _mm256_loadu_pd(z.as_ptr().add(i + 4))),
            );
            i += LANES;
        }
        let mut ay = spill(ylo, yhi);
        let mut az = spill(zlo, zhi);
        for t in m..n {
            ay[t & (LANES - 1)] += x[t] * y[t];
            az[t & (LANES - 1)] += x[t] * z[t];
        }
        (combine8(&ay), combine8(&az))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn update_xr(
        lambda: f64,
        p: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> f64 {
        let n = x.len();
        let m = n & !(LANES - 1);
        let lv = _mm256_set1_pd(lambda);
        let nlv = _mm256_set1_pd(-lambda);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let x0 = _mm256_loadu_pd(x.as_ptr().add(i));
            let p0 = _mm256_loadu_pd(p.as_ptr().add(i));
            _mm256_storeu_pd(
                x.as_mut_ptr().add(i),
                _mm256_add_pd(x0, _mm256_mul_pd(lv, p0)),
            );
            let r0 = _mm256_add_pd(
                _mm256_loadu_pd(r.as_ptr().add(i)),
                _mm256_mul_pd(nlv, _mm256_loadu_pd(w.as_ptr().add(i))),
            );
            _mm256_storeu_pd(r.as_mut_ptr().add(i), r0);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(r0, r0));
            let x1 = _mm256_loadu_pd(x.as_ptr().add(i + 4));
            let p1 = _mm256_loadu_pd(p.as_ptr().add(i + 4));
            _mm256_storeu_pd(
                x.as_mut_ptr().add(i + 4),
                _mm256_add_pd(x1, _mm256_mul_pd(lv, p1)),
            );
            let r1 = _mm256_add_pd(
                _mm256_loadu_pd(r.as_ptr().add(i + 4)),
                _mm256_mul_pd(nlv, _mm256_loadu_pd(w.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(r.as_mut_ptr().add(i + 4), r1);
            hi = _mm256_add_pd(hi, _mm256_mul_pd(r1, r1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            x[t] += lambda * p[t];
            r[t] += (-lambda) * w[t];
            acc[t & (LANES - 1)] += r[t] * r[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i), y0);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, _mm256_loadu_pd(z.as_ptr().add(i))));
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i + 4), y1);
            hi = _mm256_add_pd(
                hi,
                _mm256_mul_pd(y1, _mm256_loadu_pd(z.as_ptr().add(i + 4))),
            );
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] += a * x[t];
            acc[t & (LANES - 1)] += y[t] * z[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i), y0);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, y0));
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i + 4), y1);
            hi = _mm256_add_pd(hi, _mm256_mul_pd(y1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] += a * x[t];
            acc[t & (LANES - 1)] += y[t] * y[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xpay_norm2_sq(x: &[f64], a: f64, y: &mut [f64]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(x.as_ptr().add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(y.as_ptr().add(i))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i), y0);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, y0));
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(x.as_ptr().add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(y.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i + 4), y1);
            hi = _mm256_add_pd(hi, _mm256_mul_pd(y1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] = x[t] + a * y[t];
            acc[t & (LANES - 1)] += y[t] * y[t];
        }
        combine8(&acc)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn waxpby_dot(
        a: f64,
        x: &[f64],
        b: f64,
        y: &[f64],
        w: &mut [f64],
        z: &[f64],
        nt: bool,
    ) -> f64 {
        let n = w.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let bv = _mm256_set1_pd(b);
        let stream = nt && w.as_ptr().cast::<u8>().align_offset(32) == 0;
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let w0 = _mm256_add_pd(
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i))),
                _mm256_mul_pd(bv, _mm256_loadu_pd(y.as_ptr().add(i))),
            );
            let w1 = _mm256_add_pd(
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i + 4))),
                _mm256_mul_pd(bv, _mm256_loadu_pd(y.as_ptr().add(i + 4))),
            );
            if stream {
                _mm256_stream_pd(w.as_mut_ptr().add(i), w0);
                _mm256_stream_pd(w.as_mut_ptr().add(i + 4), w1);
            } else {
                _mm256_storeu_pd(w.as_mut_ptr().add(i), w0);
                _mm256_storeu_pd(w.as_mut_ptr().add(i + 4), w1);
            }
            lo = _mm256_add_pd(lo, _mm256_mul_pd(w0, _mm256_loadu_pd(z.as_ptr().add(i))));
            hi = _mm256_add_pd(
                hi,
                _mm256_mul_pd(w1, _mm256_loadu_pd(z.as_ptr().add(i + 4))),
            );
            i += LANES;
        }
        if stream {
            _mm_sfence();
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            w[t] = a * x[t] + b * y[t];
            acc[t & (LANES - 1)] += w[t] * z[t];
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i < m {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i), y0);
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(y.as_ptr().add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i + 4), y1);
            i += LANES;
        }
        for t in m..n {
            y[t] += a * x[t];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xpay(x: &[f64], a: f64, y: &mut [f64]) {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i < m {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(x.as_ptr().add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(y.as_ptr().add(i))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i), y0);
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(x.as_ptr().add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(y.as_ptr().add(i + 4))),
            );
            _mm256_storeu_pd(y.as_mut_ptr().add(i + 4), y1);
            i += LANES;
        }
        for t in m..n {
            y[t] = x[t] + a * y[t];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn waxpby(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64], nt: bool) {
        let n = w.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_pd(a);
        let bv = _mm256_set1_pd(b);
        let stream = nt && w.as_ptr().cast::<u8>().align_offset(32) == 0;
        let mut i = 0;
        while i < m {
            let w0 = _mm256_add_pd(
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i))),
                _mm256_mul_pd(bv, _mm256_loadu_pd(y.as_ptr().add(i))),
            );
            let w1 = _mm256_add_pd(
                _mm256_mul_pd(av, _mm256_loadu_pd(x.as_ptr().add(i + 4))),
                _mm256_mul_pd(bv, _mm256_loadu_pd(y.as_ptr().add(i + 4))),
            );
            if stream {
                _mm256_stream_pd(w.as_mut_ptr().add(i), w0);
                _mm256_stream_pd(w.as_mut_ptr().add(i + 4), w1);
            } else {
                _mm256_storeu_pd(w.as_mut_ptr().add(i), w0);
                _mm256_storeu_pd(w.as_mut_ptr().add(i + 4), w1);
            }
            i += LANES;
        }
        if stream {
            _mm_sfence();
        }
        for t in m..n {
            w[t] = a * x[t] + b * y[t];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn newton_row(
        sigma: f64,
        gamma: f64,
        img: &[f64],
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let m = n & !(LANES - 1);
        let sv = _mm256_set1_pd(sigma);
        let gv = _mm256_set1_pd(gamma);
        let mut i = 0;
        while i < m {
            let o0 = _mm256_mul_pd(
                _mm256_sub_pd(
                    _mm256_loadu_pd(img.as_ptr().add(i)),
                    _mm256_mul_pd(sv, _mm256_loadu_pd(cur.as_ptr().add(i))),
                ),
                gv,
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i), o0);
            let o1 = _mm256_mul_pd(
                _mm256_sub_pd(
                    _mm256_loadu_pd(img.as_ptr().add(i + 4)),
                    _mm256_mul_pd(sv, _mm256_loadu_pd(cur.as_ptr().add(i + 4))),
                ),
                gv,
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), o1);
            i += LANES;
        }
        for t in m..n {
            out[t] = (img[t] - sigma * cur[t]) * gamma;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cheb0_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let m = n & !(LANES - 1);
        let cv = _mm256_set1_pd(center);
        let hv = _mm256_set1_pd(half_width);
        let mut i = 0;
        while i < m {
            let o0 = _mm256_div_pd(
                _mm256_sub_pd(
                    _mm256_loadu_pd(img.as_ptr().add(i)),
                    _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(i))),
                ),
                hv,
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i), o0);
            let o1 = _mm256_div_pd(
                _mm256_sub_pd(
                    _mm256_loadu_pd(img.as_ptr().add(i + 4)),
                    _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(i + 4))),
                ),
                hv,
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), o1);
            i += LANES;
        }
        for t in m..n {
            out[t] = (img[t] - center * cur[t]) / half_width;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chebl_row(
        center: f64,
        half_width: f64,
        img: &[f64],
        cur: &[f64],
        prev: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let m = n & !(LANES - 1);
        let cv = _mm256_set1_pd(center);
        let hv = _mm256_set1_pd(half_width);
        let two = _mm256_set1_pd(2.0);
        let mut i = 0;
        while i < m {
            // same op sequence as the scalar expression:
            // ((2·(img − c·cur)) / δ) − prev
            let o0 = _mm256_sub_pd(
                _mm256_div_pd(
                    _mm256_mul_pd(
                        two,
                        _mm256_sub_pd(
                            _mm256_loadu_pd(img.as_ptr().add(i)),
                            _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(i))),
                        ),
                    ),
                    hv,
                ),
                _mm256_loadu_pd(prev.as_ptr().add(i)),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i), o0);
            let o1 = _mm256_sub_pd(
                _mm256_div_pd(
                    _mm256_mul_pd(
                        two,
                        _mm256_sub_pd(
                            _mm256_loadu_pd(img.as_ptr().add(i + 4)),
                            _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(i + 4))),
                        ),
                    ),
                    hv,
                ),
                _mm256_loadu_pd(prev.as_ptr().add(i + 4)),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), o1);
            i += LANES;
        }
        for t in m..n {
            out[t] = 2.0 * (img[t] - center * cur[t]) / half_width - prev[t];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stencil2d_row(
        center: f64,
        eps: f64,
        up: Option<&[f64]>,
        down: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        if n < 2 + LANES {
            super::scalar::stencil2d_row(center, eps, up, down, cur, out);
            return;
        }
        let cv = _mm256_set1_pd(center);
        let ev = _mm256_set1_pd(eps);
        // interior columns j in [1, n−1): vectorized, neighbors via
        // unaligned loads. The Option branches are loop-invariant and
        // hoisted by loop unswitching.
        let mut j = 1;
        while j + LANES < n {
            let mut a0 = _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(j)));
            let mut a1 = _mm256_mul_pd(cv, _mm256_loadu_pd(cur.as_ptr().add(j + 4)));
            if let Some(u) = up {
                a0 = _mm256_sub_pd(a0, _mm256_loadu_pd(u.as_ptr().add(j)));
                a1 = _mm256_sub_pd(a1, _mm256_loadu_pd(u.as_ptr().add(j + 4)));
            }
            if let Some(d) = down {
                a0 = _mm256_sub_pd(a0, _mm256_loadu_pd(d.as_ptr().add(j)));
                a1 = _mm256_sub_pd(a1, _mm256_loadu_pd(d.as_ptr().add(j + 4)));
            }
            a0 = _mm256_sub_pd(
                a0,
                _mm256_mul_pd(ev, _mm256_loadu_pd(cur.as_ptr().add(j - 1))),
            );
            a1 = _mm256_sub_pd(
                a1,
                _mm256_mul_pd(ev, _mm256_loadu_pd(cur.as_ptr().add(j + 3))),
            );
            a0 = _mm256_sub_pd(
                a0,
                _mm256_mul_pd(ev, _mm256_loadu_pd(cur.as_ptr().add(j + 1))),
            );
            a1 = _mm256_sub_pd(
                a1,
                _mm256_mul_pd(ev, _mm256_loadu_pd(cur.as_ptr().add(j + 5))),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(j), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(j + 4), a1);
            j += LANES;
        }
        // boundary columns and interior tail: exact scalar order
        let head = j;
        for t in (0..1).chain(head..n) {
            let mut acc = center * cur[t];
            if let Some(u) = up {
                acc -= u[t];
            }
            if let Some(d) = down {
                acc -= d[t];
            }
            if t > 0 {
                acc -= eps * cur[t - 1];
            }
            if t + 1 < n {
                acc -= eps * cur[t + 1];
            }
            out[t] = acc;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stencil3d_row(
        ilo: Option<&[f64]>,
        ihi: Option<&[f64]>,
        jlo: Option<&[f64]>,
        jhi: Option<&[f64]>,
        cur: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        if n < 2 + LANES {
            super::scalar::stencil3d_row(ilo, ihi, jlo, jhi, cur, out);
            return;
        }
        let six = _mm256_set1_pd(6.0);
        let mut k = 1;
        while k + LANES < n {
            let mut a0 = _mm256_mul_pd(six, _mm256_loadu_pd(cur.as_ptr().add(k)));
            let mut a1 = _mm256_mul_pd(six, _mm256_loadu_pd(cur.as_ptr().add(k + 4)));
            for s in [ilo, ihi, jlo, jhi].into_iter().flatten() {
                a0 = _mm256_sub_pd(a0, _mm256_loadu_pd(s.as_ptr().add(k)));
                a1 = _mm256_sub_pd(a1, _mm256_loadu_pd(s.as_ptr().add(k + 4)));
            }
            a0 = _mm256_sub_pd(a0, _mm256_loadu_pd(cur.as_ptr().add(k - 1)));
            a1 = _mm256_sub_pd(a1, _mm256_loadu_pd(cur.as_ptr().add(k + 3)));
            a0 = _mm256_sub_pd(a0, _mm256_loadu_pd(cur.as_ptr().add(k + 1)));
            a1 = _mm256_sub_pd(a1, _mm256_loadu_pd(cur.as_ptr().add(k + 5)));
            _mm256_storeu_pd(out.as_mut_ptr().add(k), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(k + 4), a1);
            k += LANES;
        }
        let head = k;
        for t in (0..1).chain(head..n) {
            let mut acc = 6.0 * cur[t];
            for s in [ilo, ihi, jlo, jhi].into_iter().flatten() {
                acc -= s[t];
            }
            if t > 0 {
                acc -= cur[t - 1];
            }
            if t + 1 < n {
                acc -= cur[t + 1];
            }
            out[t] = acc;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        let n = x.len();
        let m = n & !(LANES - 1);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let (x0, x1) = widen(_mm256_loadu_ps(x.as_ptr().add(i)));
            let (y0, y1) = widen(_mm256_loadu_ps(y.as_ptr().add(i)));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(x0, y0));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(x1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            acc[t & (LANES - 1)] += f64::from(x[t]) * f64::from(y[t]);
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot2_f32(x: &[f32], y: &[f32], z: &[f32]) -> (f64, f64) {
        let n = x.len();
        let m = n & !(LANES - 1);
        let (mut ylo, mut yhi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut zlo, mut zhi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let (x0, x1) = widen(_mm256_loadu_ps(x.as_ptr().add(i)));
            let (y0, y1) = widen(_mm256_loadu_ps(y.as_ptr().add(i)));
            let (z0, z1) = widen(_mm256_loadu_ps(z.as_ptr().add(i)));
            ylo = _mm256_add_pd(ylo, _mm256_mul_pd(x0, y0));
            yhi = _mm256_add_pd(yhi, _mm256_mul_pd(x1, y1));
            zlo = _mm256_add_pd(zlo, _mm256_mul_pd(x0, z0));
            zhi = _mm256_add_pd(zhi, _mm256_mul_pd(x1, z1));
            i += LANES;
        }
        let mut ay = spill(ylo, yhi);
        let mut az = spill(zlo, zhi);
        for t in m..n {
            ay[t & (LANES - 1)] += f64::from(x[t]) * f64::from(y[t]);
            az[t & (LANES - 1)] += f64::from(x[t]) * f64::from(z[t]);
        }
        (combine8(&ay), combine8(&az))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn update_xr_f32(
        lambda: f32,
        p: &[f32],
        w: &[f32],
        x: &mut [f32],
        r: &mut [f32],
    ) -> f64 {
        let n = x.len();
        let m = n & !(LANES - 1);
        let lv = _mm256_set1_ps(lambda);
        let nlv = _mm256_set1_ps(-lambda);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let xv = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_mul_ps(lv, _mm256_loadu_ps(p.as_ptr().add(i))),
            );
            _mm256_storeu_ps(x.as_mut_ptr().add(i), xv);
            let rv = _mm256_add_ps(
                _mm256_loadu_ps(r.as_ptr().add(i)),
                _mm256_mul_ps(nlv, _mm256_loadu_ps(w.as_ptr().add(i))),
            );
            _mm256_storeu_ps(r.as_mut_ptr().add(i), rv);
            let (r0, r1) = widen(rv);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(r0, r0));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(r1, r1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            x[t] += lambda * p[t];
            r[t] += (-lambda) * w[t];
            acc[t & (LANES - 1)] += f64::from(r[t]) * f64::from(r[t]);
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_dot_f32(a: f32, x: &[f32], y: &mut [f32], z: &[f32]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_ps(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(y.as_ptr().add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(x.as_ptr().add(i))),
            );
            _mm256_storeu_ps(y.as_mut_ptr().add(i), yv);
            let (y0, y1) = widen(yv);
            let (z0, z1) = widen(_mm256_loadu_ps(z.as_ptr().add(i)));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, z0));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(y1, z1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] += a * x[t];
            acc[t & (LANES - 1)] += f64::from(y[t]) * f64::from(z[t]);
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_norm2_sq_f32(a: f32, x: &[f32], y: &mut [f32]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_ps(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(y.as_ptr().add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(x.as_ptr().add(i))),
            );
            _mm256_storeu_ps(y.as_mut_ptr().add(i), yv);
            let (y0, y1) = widen(yv);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, y0));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(y1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] += a * x[t];
            acc[t & (LANES - 1)] += f64::from(y[t]) * f64::from(y[t]);
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xpay_norm2_sq_f32(x: &[f32], a: f32, y: &mut [f32]) -> f64 {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_ps(a);
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut i = 0;
        while i < m {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(y.as_ptr().add(i))),
            );
            _mm256_storeu_ps(y.as_mut_ptr().add(i), yv);
            let (y0, y1) = widen(yv);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(y0, y0));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(y1, y1));
            i += LANES;
        }
        let mut acc = spill(lo, hi);
        for t in m..n {
            y[t] = x[t] + a * y[t];
            acc[t & (LANES - 1)] += f64::from(y[t]) * f64::from(y[t]);
        }
        combine8(&acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i < m {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(y.as_ptr().add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(x.as_ptr().add(i))),
            );
            _mm256_storeu_ps(y.as_mut_ptr().add(i), yv);
            i += LANES;
        }
        for t in m..n {
            y[t] += a * x[t];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xpay_f32(x: &[f32], a: f32, y: &mut [f32]) {
        let n = y.len();
        let m = n & !(LANES - 1);
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i < m {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(y.as_ptr().add(i))),
            );
            _mm256_storeu_ps(y.as_mut_ptr().add(i), yv);
            i += LANES;
        }
        for t in m..n {
            y[t] = x[t] + a * y[t];
        }
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
            assert_level_invariant(&format!("sum n={n}"), || leaf_sum(&x).to_bits());
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

            for (tag, run) in [
                ("axpy_dot", 0usize),
                ("axpy_norm2_sq", 1),
                ("xpay_norm2_sq", 2),
                ("waxpby_dot", 3),
            ] {
                let reference = with_level(SimdLevel::Scalar, || {
                    let mut v = pseudo(n, 21);
                    let s = match run {
                        0 => leaf_axpy_dot(-0.7, &p, &mut v, &z),
                        1 => leaf_axpy_norm2_sq(1.3, &p, &mut v),
                        2 => leaf_xpay_norm2_sq(&p, -0.2, &mut v),
                        _ => leaf_waxpby_dot(1.1, &p, -0.4, &w, &mut v, &z, true),
                    };
                    (s.to_bits(), v)
                });
                for l in levels() {
                    let got = with_level(l, || {
                        let mut v = pseudo(n, 21);
                        let s = match run {
                            0 => leaf_axpy_dot(-0.7, &p, &mut v, &z),
                            1 => leaf_axpy_norm2_sq(1.3, &p, &mut v),
                            2 => leaf_xpay_norm2_sq(&p, -0.2, &mut v),
                            _ => leaf_waxpby_dot(1.1, &p, -0.4, &w, &mut v, &z, true),
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
                let t = leaf_axpy_dot_f32(-0.8, &x, &mut rv, &z);
                let u = leaf_axpy_norm2_sq_f32(0.6, &x, &mut rv);
                let v = leaf_xpay_norm2_sq_f32(&x, -0.3, &mut rv);
                leaf_axpy_f32(1.7, &x, &mut xv);
                leaf_xpay_f32(&y, 0.2, &mut xv);
                (s.to_bits(), t.to_bits(), u.to_bits(), v.to_bits(), xv, rv)
            });
            for l in levels() {
                let got = with_level(l, || {
                    let (mut xv, mut rv) = (pseudo32(n, 37), pseudo32(n, 39));
                    let s = leaf_update_xr_f32(0.41, &x, &y, &mut xv, &mut rv);
                    let t = leaf_axpy_dot_f32(-0.8, &x, &mut rv, &z);
                    let u = leaf_axpy_norm2_sq_f32(0.6, &x, &mut rv);
                    let v = leaf_xpay_norm2_sq_f32(&x, -0.3, &mut rv);
                    leaf_axpy_f32(1.7, &x, &mut xv);
                    leaf_xpay_f32(&y, 0.2, &mut xv);
                    (s.to_bits(), t.to_bits(), u.to_bits(), v.to_bits(), xv, rv)
                });
                assert_eq!(got.0, reference.0, "f32 chain n={n} {}", l.name());
                assert_eq!(got.1, reference.1, "f32 chain n={n} {}", l.name());
                assert_eq!(got.2, reference.2, "f32 chain n={n} {}", l.name());
                assert_eq!(got.3, reference.3, "f32 chain n={n} {}", l.name());
                assert_eq!(got.4, reference.4, "f32 x out n={n} {}", l.name());
                assert_eq!(got.5, reference.5, "f32 r out n={n} {}", l.name());
            }
        }
    }

    #[test]
    fn adversarial_inputs_stay_bit_identical() {
        for n in [13usize, 64, 257] {
            let x = adversarial(n);
            let y = adversarial(n + 1)[1..].to_vec();
            assert_level_invariant(&format!("adv dot n={n}"), || leaf_dot(&x, &y).to_bits());
            assert_level_invariant(&format!("adv sum n={n}"), || leaf_sum(&x).to_bits());
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
                assert_eq!(leaf_sum(&[]).to_bits(), 0.0f64.to_bits());
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
