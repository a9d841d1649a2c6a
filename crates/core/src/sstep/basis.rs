//! Krylov block bases for s-step CG.
//!
//! The monomial basis `{r, Ar, A²r, …}` is the one implicit in the 1983
//! paper's moment families — and its columns become numerically dependent
//! after ~10 powers (condition ~ κ^s). The fix from the later
//! communication-avoiding literature is to run the *same algorithm* on a
//! better-conditioned polynomial basis of the *same Krylov space*:
//!
//! * **Newton**: `v_{i+1} = (A − θᵢI)·vᵢ`, shifts `θᵢ` = Ritz values of a
//!   short Lanczos run in Leja order;
//! * **Chebyshev**: the scaled three-term recurrence of `Tᵢ` mapped to the
//!   estimated spectral interval `[λ_min, λ_max]`.
//!
//! Both need one matvec per column, same as monomial (claim C4 preserved).

use crate::instrument::OpCounts;
use vr_linalg::eig;
use vr_linalg::mpk::{MpkTransform, MpkWorkspace};
use vr_linalg::LinearOperator;

/// Which polynomial family spans the block Krylov basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// Powers `Aⁱr` (the paper's moment basis).
    Monomial,
    /// Newton polynomials with Leja-ordered Ritz shifts.
    Newton,
    /// Chebyshev polynomials scaled to the spectral interval.
    Chebyshev,
}

impl BasisKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BasisKind::Monomial => "monomial",
            BasisKind::Newton => "newton",
            BasisKind::Chebyshev => "chebyshev",
        }
    }
}

/// Precomputed basis parameters (shifts / interval).
#[derive(Debug, Clone)]
pub struct BasisParams {
    kind: BasisKind,
    /// Newton: Leja-ordered shifts (length ≥ s−1). Chebyshev: unused.
    shifts: Vec<f64>,
    /// Newton: per-level power-of-two magnitude scales (one per shift).
    ///
    /// `scales[i] = 2^(−round(log₂ max(|λ_max−θᵢ|, |λ_min−θᵢ|)))` keeps
    /// every column O(1) in magnitude like the classical per-column 2-norm
    /// normalization, but (a) multiplying by an exact power of two is
    /// round-off free, and (b) the scale is known *before* the sweep — no
    /// data-dependent norm stands between levels, so all `s` columns fuse
    /// into one matrix-powers pass.
    scales: Vec<f64>,
    /// Chebyshev interval center.
    center: f64,
    /// Chebyshev interval half-width.
    half_width: f64,
}

impl BasisParams {
    /// Estimate parameters for `kind` with a short Lanczos run (spectrum
    /// probing counts toward the solve's op budget).
    #[must_use]
    pub fn estimate(
        kind: BasisKind,
        a: &dyn LinearOperator,
        s: usize,
        counts: &mut OpCounts,
    ) -> BasisParams {
        match kind {
            BasisKind::Monomial => BasisParams {
                kind,
                shifts: Vec::new(),
                scales: Vec::new(),
                center: 0.0,
                half_width: 1.0,
            },
            BasisKind::Newton => {
                let m = (2 * s).clamp(4, 40).min(a.dim());
                let tri = eig::LanczosTridiagonal::run(a, m, 0x5eed);
                counts.matvecs += tri.steps();
                counts.dots += 2 * tri.steps();
                let ritz = tri.eigenvalues();
                let b = tri.spectral_bounds();
                let shifts = leja_order(&ritz, s.max(2) - 1);
                let scales = pow2_scales(&shifts, b.lambda_min, b.lambda_max);
                BasisParams {
                    kind,
                    shifts,
                    scales,
                    center: 0.0,
                    half_width: 1.0,
                }
            }
            BasisKind::Chebyshev => {
                let m = (2 * s).clamp(4, 40).min(a.dim());
                let tri = eig::LanczosTridiagonal::run(a, m, 0x5eed);
                counts.matvecs += tri.steps();
                counts.dots += 2 * tri.steps();
                let b = tri.spectral_bounds();
                // widen slightly: Ritz values under-estimate the interval
                let lo = (b.lambda_min * 0.9).max(0.0);
                let hi = b.lambda_max * 1.1;
                BasisParams {
                    kind,
                    shifts: Vec::new(),
                    scales: Vec::new(),
                    center: 0.5 * (lo + hi),
                    half_width: (0.5 * (hi - lo)).max(1e-12),
                }
            }
        }
    }

    /// The shifts in use (Newton only).
    #[must_use]
    pub fn shifts(&self) -> &[f64] {
        &self.shifts
    }

    /// The per-level power-of-two scales (Newton only).
    #[must_use]
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Chebyshev interval `(center, half_width)`.
    #[must_use]
    pub fn interval(&self) -> (f64, f64) {
        (self.center, self.half_width)
    }

    /// The per-level column transform these parameters describe, in the
    /// form the matrix-powers kernel consumes.
    #[must_use]
    pub fn transform(&self) -> MpkTransform<'_> {
        match self.kind {
            BasisKind::Monomial => MpkTransform::Monomial,
            BasisKind::Newton => MpkTransform::Newton {
                shifts: &self.shifts,
                scales: &self.scales,
            },
            BasisKind::Chebyshev => MpkTransform::Chebyshev {
                center: self.center,
                half_width: self.half_width,
            },
        }
    }
}

/// Power-of-two magnitude scales for Newton columns: `(A − θᵢ)·v` has
/// magnitude ≈ `max(|λ_max−θᵢ|, |λ_min−θᵢ|)·‖v‖`, so dividing by the
/// nearest power of two keeps columns O(1) without introducing any
/// round-off (the mantissa is untouched). Degenerate estimates (zero,
/// non-finite) fall back to 1.0.
fn pow2_scales(shifts: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    shifts
        .iter()
        .map(|&theta| {
            let d = (hi - theta).abs().max((lo - theta).abs());
            if !d.is_finite() || d <= 0.0 {
                return 1.0;
            }
            let e = d.log2().round().clamp(-1022.0, 1022.0);
            f64::exp2(-e)
        })
        .collect()
}

/// Leja ordering of candidate points: start at the point of largest
/// magnitude; greedily append the candidate maximizing the product of
/// distances to already-chosen points. Cycles if more shifts are needed
/// than candidates exist.
#[must_use]
pub fn leja_order(candidates: &[f64], count: usize) -> Vec<f64> {
    if candidates.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut chosen: Vec<f64> = Vec::with_capacity(count);
    let mut remaining: Vec<f64> = candidates.to_vec();
    // first: max |θ|
    let (first_idx, _) = remaining
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .expect("non-empty");
    chosen.push(remaining.swap_remove(first_idx));
    while chosen.len() < count {
        if remaining.is_empty() {
            // cycle through the same pattern again
            let idx = chosen.len() % candidates.len();
            chosen.push(candidates[idx]);
            continue;
        }
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let logprod: f64 = chosen.iter().map(|&z| (c - z).abs().max(1e-300).ln()).sum();
                (i, logprod)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        chosen.push(remaining.swap_remove(best_idx));
    }
    chosen
}

/// A block Krylov basis: `v[i]` spans the space, `av[i] = A·v[i]`.
#[derive(Debug, Clone, Default)]
pub struct KrylovBasis {
    /// Basis columns, `s` of them.
    pub v: Vec<Vec<f64>>,
    /// Their images `A·v[i]`.
    pub av: Vec<Vec<f64>>,
}

impl KrylovBasis {
    /// Resize to `s` columns of length `n`, reusing existing column
    /// storage (allocation-free once warm at a fixed shape).
    fn reshape(&mut self, s: usize, n: usize) {
        for block in [&mut self.v, &mut self.av] {
            block.resize_with(s, Vec::new);
            for col in block.iter_mut() {
                col.resize(n, 0.0);
            }
        }
    }
}

/// Build an `s`-column basis of `K_s(A, r)` into `out`, with exactly `s`
/// matvecs — `av` levels double as the next column under the shift/
/// three-term recurrences, so no column costs more than one application.
///
/// The columns come from the operator's [`LinearOperator::matrix_powers`]
/// kernel — cache-blocked for CSR and stencils, the level-by-level
/// [`vr_linalg::mpk::naive_powers`] oracle otherwise — which is
/// bit-identical to that oracle by contract for every tile size and team
/// width. `ws` carries the kernel's reusable scratch; `out` is reshaped
/// in place, so repeated builds at a fixed `(s, n)` are allocation-free.
///
/// Op tallies are stated in the reference (per-column) formulation and
/// are kernel-independent: 1 vector op for seeding `v[0]`, `s` matvecs,
/// plus per level the column recurrence (Newton: shift-axpy + scale = 2
/// ops; Chebyshev: one fused three-term op; monomial: free).
#[allow(clippy::too_many_arguments)]
pub fn build_into(
    a: &dyn LinearOperator,
    r: &[f64],
    s: usize,
    params: &BasisParams,
    team: Option<&vr_par::Team>,
    tile: Option<usize>,
    ws: &mut MpkWorkspace,
    out: &mut KrylovBasis,
    counts: &mut OpCounts,
) {
    out.reshape(s, r.len());
    out.v[0].copy_from_slice(r);
    counts.vector_ops += 1;
    let transform = params.transform();
    a.matrix_powers(&transform, &mut out.v, &mut out.av, team, tile, ws);
    counts.matvecs += s;
    counts.vector_ops += match params.kind {
        BasisKind::Monomial => 0,
        BasisKind::Newton => 2 * (s - 1),
        BasisKind::Chebyshev => s - 1,
    };
}

/// Build an `s`-column basis of `K_s(A, r)` with exactly `s` matvecs
/// (convenience wrapper over [`build_into`]: serial, heuristic tile, fresh
/// scratch).
#[must_use]
pub fn build(
    a: &dyn LinearOperator,
    r: &[f64],
    s: usize,
    params: &BasisParams,
    counts: &mut OpCounts,
) -> KrylovBasis {
    let mut out = KrylovBasis::default();
    let mut ws = MpkWorkspace::new();
    build_into(a, r, s, params, None, None, &mut ws, &mut out, counts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_linalg::gen;
    use vr_linalg::DenseMatrix;

    fn check_av(a: &vr_linalg::CsrMatrix, basis: &KrylovBasis) {
        for (vi, avi) in basis.v.iter().zip(&basis.av) {
            let direct = a.spmv(vi);
            for (x, y) in avi.iter().zip(&direct) {
                assert!((x - y).abs() <= 1e-10 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn monomial_av_consistent() {
        let a = gen::poisson2d(6);
        let r = gen::rand_vector(36, 5);
        let mut c = OpCounts::default();
        let p = BasisParams::estimate(BasisKind::Monomial, &a, 4, &mut c);
        let basis = build(&a, &r, 4, &p, &mut c);
        check_av(&a, &basis);
        assert_eq!(c.matvecs, 4, "s matvecs for s columns");
    }

    #[test]
    fn newton_av_consistent_and_spans_krylov() {
        let a = gen::poisson2d(6);
        let r = gen::rand_vector(36, 6);
        let mut c = OpCounts::default();
        let p = BasisParams::estimate(BasisKind::Newton, &a, 4, &mut c);
        assert!(!p.shifts().is_empty());
        let basis = build(&a, &r, 4, &p, &mut c);
        check_av(&a, &basis);
    }

    #[test]
    fn chebyshev_av_consistent() {
        let a = gen::poisson2d(6);
        let r = gen::rand_vector(36, 7);
        let mut c = OpCounts::default();
        let p = BasisParams::estimate(BasisKind::Chebyshev, &a, 5, &mut c);
        let (center, hw) = p.interval();
        assert!(center > 0.0 && hw > 0.0);
        let basis = build(&a, &r, 5, &p, &mut c);
        check_av(&a, &basis);
    }

    /// Gram-matrix condition of each basis over the same Krylov space —
    /// the quantitative reason the stable bases exist.
    #[test]
    fn chebyshev_basis_better_conditioned_than_monomial() {
        let a = gen::poisson2d(10);
        let r = gen::rand_vector(100, 8);
        let s = 8;
        let mut c = OpCounts::default();

        let mut cond = |kind: BasisKind| -> f64 {
            let p = BasisParams::estimate(kind, &a, s, &mut c);
            let basis = build(&a, &r, s, &p, &mut c);
            // normalize columns, then estimate cond(VᵀV) via its extreme
            // eigenvalues from dense Cholesky-based power iteration proxy:
            // use the ratio of largest to smallest diagonal pivot of the
            // Cholesky factor as a cheap underestimate.
            let mut g = DenseMatrix::zeros(s, s);
            for i in 0..s {
                let ni = vr_linalg::kernels::norm2(&basis.v[i]).max(1e-300);
                for j in 0..s {
                    let nj = vr_linalg::kernels::norm2(&basis.v[j]).max(1e-300);
                    g[(i, j)] =
                        vr_linalg::kernels::dot_serial(&basis.v[i], &basis.v[j]) / (ni * nj);
                }
            }
            match g.cholesky() {
                Ok(ch) => {
                    let mut lo = f64::INFINITY;
                    let mut hi = 0.0_f64;
                    for i in 0..s {
                        let d = ch.l()[(i, i)];
                        lo = lo.min(d);
                        hi = hi.max(d);
                    }
                    (hi / lo).powi(2)
                }
                Err(_) => f64::INFINITY, // numerically rank-deficient
            }
        };

        let mono = cond(BasisKind::Monomial);
        let cheb = cond(BasisKind::Chebyshev);
        assert!(
            cheb * 10.0 < mono,
            "chebyshev cond {cheb:.2e} not ≪ monomial cond {mono:.2e}"
        );
    }

    #[test]
    fn leja_ordering_properties() {
        let pts = [1.0, 5.0, 2.0, 8.0, 3.0];
        let l = leja_order(&pts, 5);
        assert_eq!(l.len(), 5);
        assert_eq!(l[0], 8.0, "first Leja point is max magnitude");
        // all points distinct and from the candidate set
        for p in &l {
            assert!(pts.contains(p));
        }
        let mut sorted = l.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        // cycling beyond candidates
        let l7 = leja_order(&pts, 7);
        assert_eq!(l7.len(), 7);
        // empty cases
        assert!(leja_order(&[], 3).is_empty());
        assert!(leja_order(&pts, 0).is_empty());
    }

    #[test]
    fn basis_labels() {
        assert_eq!(BasisKind::Monomial.label(), "monomial");
        assert_eq!(BasisKind::Newton.label(), "newton");
        assert_eq!(BasisKind::Chebyshev.label(), "chebyshev");
    }
}
