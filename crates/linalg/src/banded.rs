//! Symmetric banded matrices and banded Cholesky.
//!
//! The reference solver for mid-sized experiments: dense Cholesky is
//! `O(n³)` and caps validation at a few hundred unknowns; a banded
//! factorization is `O(n·w²)` and validates the iterative solvers on
//! 10⁴-10⁵-unknown grids (after RCM, the Poisson matrices have width
//! `O(√n)`). This is also the 1983-era production alternative that CG was
//! competing against on banded systems.

use crate::error::{Error, Result};
use crate::sparse::CsrMatrix;
use crate::LinearOperator;

/// A symmetric banded matrix stored by lower bands.
///
/// `bands[j][i] = A[i + j][i]` — band `j` holds the j-th subdiagonal
/// (band 0 is the diagonal, length `n`; band `j` has length `n − j`).
#[derive(Debug, Clone, PartialEq)]
pub struct SymBanded {
    n: usize,
    /// `bands[j]` = j-th subdiagonal, `j = 0..=width`.
    bands: Vec<Vec<f64>>,
}

impl SymBanded {
    /// Zero matrix of dimension `n` with half-bandwidth `width`.
    ///
    /// # Panics
    /// Panics if `width >= n` and `n > 0`... (width is clamped to `n−1`).
    #[must_use]
    pub fn zeros(n: usize, width: usize) -> Self {
        let width = if n == 0 { 0 } else { width.min(n - 1) };
        SymBanded {
            n,
            bands: (0..=width).map(|j| vec![0.0; n - j]).collect(),
        }
    }

    /// Extract the symmetric band structure from a CSR matrix.
    ///
    /// # Errors
    /// [`Error::InvalidStructure`] if the matrix is not symmetric or has
    /// entries outside the stated bandwidth... the bandwidth is computed
    /// automatically, so only asymmetry errors.
    pub fn from_csr(a: &CsrMatrix) -> Result<Self> {
        if !a.is_symmetric(1e-12) {
            return Err(Error::InvalidStructure(
                "banded storage requires a symmetric matrix".into(),
            ));
        }
        let n = a.nrows();
        let width = crate::reorder::bandwidth(a);
        let mut out = Self::zeros(n, width);
        for r in 0..n {
            for (c, v) in a.row(r) {
                if c <= r {
                    out.bands[r - c][c] = v;
                }
            }
        }
        Ok(out)
    }

    /// Dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Half-bandwidth (number of sub-diagonals stored).
    #[must_use]
    pub fn width(&self) -> usize {
        self.bands.len().saturating_sub(1)
    }

    /// Entry accessor (`i`, `j` in any order).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let band = hi - lo;
        if band < self.bands.len() {
            self.bands[band][lo]
        } else {
            0.0
        }
    }

    /// Set entry (symmetric; `i`, `j` in any order).
    ///
    /// # Panics
    /// Panics if the entry lies outside the allocated bandwidth.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let band = hi - lo;
        assert!(
            band < self.bands.len(),
            "entry ({i},{j}) outside bandwidth {}",
            self.width()
        );
        self.bands[band][lo] = v;
    }

    /// Banded Cholesky factorization `A = L·Lᵀ` where `L` keeps the same
    /// bandwidth. `O(n·w²)` work.
    ///
    /// # Errors
    /// [`Error::FactorizationBreakdown`] on a non-positive pivot.
    pub fn cholesky(&self) -> Result<BandedCholesky> {
        let n = self.n;
        let w = self.width();
        let mut l = self.bands.clone();
        for j in 0..n {
            // pivot
            let mut d = l[0][j];
            let kmin = j.saturating_sub(w);
            for k in kmin..j {
                let ljk = l[j - k][k];
                d -= ljk * ljk;
            }
            if d <= 0.0 {
                return Err(Error::FactorizationBreakdown { row: j, pivot: d });
            }
            let dj = d.sqrt();
            l[0][j] = dj;
            // column below the pivot
            let imax = (j + w).min(n - 1);
            for i in (j + 1)..=imax {
                let mut s = if i - j < l.len() { l[i - j][j] } else { 0.0 };
                let kmin = i.saturating_sub(w).max(j.saturating_sub(w));
                for k in kmin..j {
                    if i - k <= w && j - k <= w {
                        s -= l[i - k][k] * l[j - k][k];
                    }
                }
                l[i - j][j] = s / dj;
            }
        }
        Ok(BandedCholesky { n, l })
    }

    /// Solve `A·x = b` via banded Cholesky.
    ///
    /// # Errors
    /// Propagates factorization breakdown.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        Ok(self.cholesky()?.solve(b))
    }
}

impl SymBanded {
    /// Value of row `i` of `A·x` — the single source of truth for the
    /// floating-point operation sequence, shared by `apply` and the fused
    /// `apply_dot` so both produce identical bits.
    #[inline]
    #[allow(clippy::needless_range_loop)] // band offsets index x directly
    fn row_value(&self, x: &[f64], i: usize) -> f64 {
        let w = self.width();
        let mut acc = self.bands[0][i] * x[i];
        let lo = i.saturating_sub(w);
        for j in lo..i {
            acc += self.bands[i - j][j] * x[j];
        }
        let hi = (i + w).min(self.n - 1);
        for j in (i + 1)..=hi {
            acc += self.bands[j - i][i] * x[j];
        }
        acc
    }
}

impl LinearOperator for SymBanded {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_value(x, i);
        }
    }
    fn max_row_nnz(&self) -> usize {
        2 * self.width() + 1
    }

    /// Row-fused band SpMV + dot (each row through `row_value`, the
    /// operation sequence of `apply`).
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        crate::fused::fused_sum(self.n, |i| {
            let v = self.row_value(x, i);
            y[i] = v;
            x[i] * v
        })
    }
}

/// A banded Cholesky factorization.
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    /// Lower factor in the same banded layout.
    l: Vec<Vec<f64>>,
}

impl BandedCholesky {
    /// Half-bandwidth of the factor.
    #[must_use]
    pub fn width(&self) -> usize {
        self.l.len().saturating_sub(1)
    }

    /// Solve `A·x = b` by banded forward/backward substitution (`O(n·w)`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "banded solve: rhs length");
        let w = self.width();
        // forward: L·y = b
        let mut y = b.to_vec();
        for i in 0..self.n {
            let lo = i.saturating_sub(w);
            for k in lo..i {
                y[i] -= self.l[i - k][k] * y[k];
            }
            y[i] /= self.l[0][i];
        }
        // backward: Lᵀ·x = y
        let mut x = y;
        for i in (0..self.n).rev() {
            let hi = (i + w).min(self.n - 1);
            for k in (i + 1)..=hi {
                x[i] -= self.l[k - i][i] * x[k];
            }
            x[i] /= self.l[0][i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn from_csr_roundtrip_entries() {
        let a = gen::poisson1d(12);
        let b = SymBanded::from_csr(&a).unwrap();
        assert_eq!(b.dim(), 12);
        assert_eq!(b.width(), 1);
        assert_eq!(b.get(3, 3), 2.0);
        assert_eq!(b.get(3, 4), -1.0);
        assert_eq!(b.get(4, 3), -1.0);
        assert_eq!(b.get(3, 5), 0.0);
    }

    #[test]
    fn rejects_asymmetric() {
        let mut coo = crate::CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        let a = coo.to_csr();
        assert!(SymBanded::from_csr(&a).is_err());
    }

    #[test]
    fn matvec_matches_csr() {
        let a = gen::poisson2d(8); // bandwidth 8
        let b = SymBanded::from_csr(&a).unwrap();
        assert_eq!(b.width(), 8);
        let x = gen::rand_vector(64, 3);
        let y_csr = a.spmv(&x);
        let y_band = b.apply_alloc(&x);
        for (u, v) in y_band.iter().zip(&y_csr) {
            assert!((u - v).abs() <= 1e-12 * (1.0 + v.abs()));
        }
        assert_eq!(LinearOperator::max_row_nnz(&b), 17);
    }

    #[test]
    fn banded_cholesky_matches_dense_on_small() {
        let a = gen::poisson2d(5);
        let band = SymBanded::from_csr(&a).unwrap();
        let rhs = gen::rand_vector(25, 4);
        let x_band = band.solve(&rhs).unwrap();
        let dense = crate::DenseMatrix::from_rows(&a.to_dense()).unwrap();
        let x_dense = dense.solve_spd(&rhs).unwrap();
        for (u, v) in x_band.iter().zip(&x_dense) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn banded_solver_validates_cg_at_scale() {
        // 48×48 grid = 2304 unknowns: far past dense-Cholesky comfort
        let n = 48;
        let a = gen::poisson2d(n);
        let band = SymBanded::from_csr(&a).unwrap();
        let rhs = gen::poisson2d_rhs(n);
        let x_direct = band.solve(&rhs).unwrap();
        // residual of the direct solve
        let ax = a.spmv(&x_direct);
        let mut r = vec![0.0; n * n];
        crate::kernels::sub(&rhs, &ax, &mut r);
        assert!(
            crate::kernels::norm2(&r) < 1e-10 * crate::kernels::norm2(&rhs),
            "direct residual {}",
            crate::kernels::norm2(&r)
        );
    }

    #[test]
    fn breakdown_on_indefinite() {
        let a = gen::tridiag_toeplitz(6, 1.0, -1.0);
        let band = SymBanded::from_csr(&a).unwrap();
        assert!(matches!(
            band.cholesky(),
            Err(Error::FactorizationBreakdown { .. })
        ));
    }

    #[test]
    fn set_get_and_bounds() {
        let mut b = SymBanded::zeros(5, 1);
        b.set(2, 2, 4.0);
        b.set(2, 3, -1.0);
        assert_eq!(b.get(3, 2), -1.0);
        assert_eq!(b.get(0, 4), 0.0); // outside band reads zero
    }

    #[test]
    #[should_panic(expected = "outside bandwidth")]
    fn set_outside_band_panics() {
        let mut b = SymBanded::zeros(5, 1);
        b.set(0, 4, 1.0);
    }

    #[test]
    fn zero_dim_matrix() {
        let b = SymBanded::zeros(0, 3);
        assert_eq!(b.dim(), 0);
        assert_eq!(b.width(), 0);
    }
}
