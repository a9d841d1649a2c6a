//! Compressed sparse row matrix — the compute format.

use crate::error::{Error, Result};
use crate::sparse::CooMatrix;
use crate::LinearOperator;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Invariants (validated by [`CsrMatrix::new`], assumed by `new_unchecked`):
///
/// 1. `indptr.len() == nrows + 1`, `indptr[0] == 0`,
///    `indptr[nrows] == indices.len() == data.len()`;
/// 2. `indptr` is non-decreasing;
/// 3. within each row, column indices are strictly increasing and `< ncols`.
///
/// ```
/// use vr_linalg::{CsrMatrix, LinearOperator};
/// // [2 1]
/// // [1 2]
/// let a = CsrMatrix::new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1],
///                        vec![2.0, 1.0, 1.0, 2.0]).unwrap();
/// assert_eq!(a.apply_alloc(&[1.0, 1.0]), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    /// Lazily narrowed copy of `data` backing [`LinearOperator::apply_f32`]
    /// (built on first mixed-precision matvec, invalidated by value
    /// mutation). Cache state is excluded from `PartialEq`.
    data_f32: std::sync::OnceLock<Vec<f32>>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality only: whether the f32 value cache has been
        // materialized is not part of the matrix's identity.
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.data == other.data
    }
}

impl CsrMatrix {
    /// Construct with full invariant validation.
    ///
    /// # Errors
    /// [`Error::InvalidStructure`] describing the first violated invariant.
    pub fn new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(Error::InvalidStructure(format!(
                "indptr length {} != nrows+1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(Error::InvalidStructure(format!(
                "indptr[0] = {} (must be 0)",
                indptr[0]
            )));
        }
        if *indptr.last().unwrap() != indices.len() {
            return Err(Error::InvalidStructure(format!(
                "indptr[last] = {} != indices.len() = {}",
                indptr.last().unwrap(),
                indices.len()
            )));
        }
        if indices.len() != data.len() {
            return Err(Error::InvalidStructure(format!(
                "indices.len() = {} != data.len() = {}",
                indices.len(),
                data.len()
            )));
        }
        for r in 0..nrows {
            if indptr[r] > indptr[r + 1] {
                return Err(Error::InvalidStructure(format!(
                    "indptr decreases at row {r}: {} > {}",
                    indptr[r],
                    indptr[r + 1]
                )));
            }
            let row = &indices[indptr[r]..indptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c >= ncols {
                    return Err(Error::InvalidStructure(format!(
                        "row {r}: column index {c} >= ncols {ncols}"
                    )));
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(Error::InvalidStructure(format!(
                        "row {r}: column indices not strictly increasing ({} then {c})",
                        row[k - 1]
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
            data_f32: std::sync::OnceLock::new(),
        })
    }

    /// Construct without validation. Intended for internal converters that
    /// produce valid structure by construction ([`CooMatrix::to_csr`]).
    #[must_use]
    pub fn new_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), data.len());
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
            data_f32: std::sync::OnceLock::new(),
        }
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![1.0; n],
            data_f32: std::sync::OnceLock::new(),
        }
    }

    /// Build from a dense row-major matrix, dropping entries with
    /// `|a_ij| <= drop_tol`.
    #[must_use]
    pub fn from_dense(rows: &[Vec<f64>], drop_tol: f64) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut coo = CooMatrix::new(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v.abs() > drop_tol {
                    coo.push(i, j, v).expect("in-bounds by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row-pointer array.
    #[must_use]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column-index array.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable value array (structure is immutable; values may be edited).
    /// Invalidates the lazily-built `f32` value cache.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data_f32.take();
        &mut self.data
    }

    /// Iterate `(col, value)` over row `r`.
    ///
    /// # Panics
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Entry lookup (binary search within the row); absent entries are 0.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&c) {
            Ok(k) => self.data[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Maximum number of stored entries in any row — the paper's `d`.
    #[must_use]
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows)
            .map(|r| self.indptr[r + 1] - self.indptr[r])
            .max()
            .unwrap_or(0)
    }

    /// Sparse matrix-vector product `y = A·x` into a new vector.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sparse matrix-vector product `y ← A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[allow(clippy::needless_range_loop)] // CSR row loop indexes indptr
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length != ncols");
        assert_eq!(y.len(), self.nrows, "spmv: y length != nrows");
        for r in 0..self.nrows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k]];
            }
            y[r] = acc;
        }
    }

    /// `y ← A·x + beta·y` (fused SpMV update).
    #[allow(clippy::needless_range_loop)] // CSR row loop indexes indptr
    pub fn spmv_acc(&self, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv_acc: x length != ncols");
        assert_eq!(y.len(), self.nrows, "spmv_acc: y length != nrows");
        for r in 0..self.nrows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k]];
            }
            y[r] = acc + beta * y[r];
        }
    }

    /// Transpose (produces sorted CSR).
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.nrows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k];
                indices[next[c]] = r;
                data[next[c]] = self.data[k];
                next[c] += 1;
            }
        }
        CsrMatrix::new_unchecked(self.ncols, self.nrows, indptr, indices, data)
    }

    /// Extract the diagonal (length `min(nrows, ncols)`).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Symmetry check: `|a_ij − a_ji| <= tol` for every stored entry (and
    /// absent transposed entries count as 0).
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scale all values in place. Invalidates the `f32` value cache.
    pub fn scale(&mut self, s: f64) {
        self.data_f32.take();
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Convert to dense row-major (for tests on small systems).
    #[must_use]
    #[allow(clippy::needless_range_loop)] // CSR row loop indexes indptr
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                out[r][c] = v;
            }
        }
        out
    }

    /// Gershgorin-disc upper bound on the spectral radius / largest
    /// eigenvalue: `max_i Σ_j |a_ij|`. Useful for scaling experiments.
    #[must_use]
    pub fn gershgorin_bound(&self) -> f64 {
        (0..self.nrows)
            .map(|r| self.row(r).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows, self.ncols, "operator must be square");
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }

    fn max_row_nnz(&self) -> usize {
        CsrMatrix::max_row_nnz(self)
    }

    fn as_sweep(&self) -> Option<crate::sweep::SweepOperator<'_>> {
        (self.nrows == self.ncols).then_some(crate::sweep::SweepOperator::Csr(self))
    }

    /// Native `f32` SpMV against a lazily narrowed copy of the value array
    /// (built once, cached; see [`CsrMatrix::data_mut`] for invalidation).
    /// The row accumulation is the [`CsrMatrix::spmv_into`] operation
    /// sequence in `f32`.
    #[allow(clippy::needless_range_loop)] // CSR row loop indexes indptr
    fn apply_f32(&self, x: &[f32], y: &mut [f32]) -> bool {
        assert_eq!(x.len(), self.ncols, "apply_f32: x length != ncols");
        assert_eq!(y.len(), self.nrows, "apply_f32: y length != nrows");
        let data = self
            .data_f32
            .get_or_init(|| self.data.iter().map(|&v| v as f32).collect());
        for r in 0..self.nrows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let mut acc = 0.0f32;
            for k in lo..hi {
                acc += data[k] * x[self.indices[k]];
            }
            y[r] = acc;
        }
        true
    }

    /// Row-fused SpMV + dot: each row result is dotted with `x[r]` the
    /// moment it is produced, so `x` and `y` stream through memory once.
    /// Bit-identical to `spmv_into` + `kernels::dot` because the row
    /// accumulation is the identical operation sequence and the outer
    /// summation runs through [`crate::fused::fused_sum`].
    fn apply_dot(&self, mode: crate::kernels::DotMode, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.ncols, "apply_dot: x length != ncols");
        assert_eq!(y.len(), self.nrows, "apply_dot: y length != nrows");
        crate::fused::fused_sum(mode, self.nrows, |r| {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k]];
            }
            y[r] = acc;
            x[r] * acc
        })
    }

    /// Row-range-blocked matrix-powers kernel with per-level halo
    /// expansion — see [`crate::mpk`] for the plan construction and the
    /// bit-identity argument. Falls back to the naive engine when the
    /// sparsity pattern makes halo growth unprofitable (auto tile only) or
    /// the system is too small to block.
    fn matrix_powers(
        &self,
        transform: &crate::mpk::MpkTransform<'_>,
        v: &mut [Vec<f64>],
        av: &mut [Vec<f64>],
        team: Option<&vr_par::Team>,
        tile: Option<usize>,
        ws: &mut crate::mpk::MpkWorkspace,
    ) {
        crate::mpk::csr_powers(self, transform, v, av, team, tile, ws);
    }

    /// Team-parallel SpMV by contiguous row ranges, one per shard — each
    /// row sum is the identical operation sequence to
    /// [`CsrMatrix::spmv_into`], hence bit-identical for any team width.
    fn apply_team(&self, team: Option<&vr_par::Team>, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "apply_team: x length != ncols");
        assert_eq!(y.len(), self.nrows, "apply_team: y length != nrows");
        let n = self.nrows;
        let width = team.map_or(1, |t| vr_par::team::dispatch_width(n, t.live_width()));
        if width <= 1 {
            self.spmv_into(x, y);
            return;
        }
        let team = team.expect("width > 1 implies a team");
        let per = n.div_ceil(width);
        let yp = vr_par::team::SendPtr(y.as_mut_ptr());
        let res = team.try_run_shards(
            &move |w| {
                let lo = w * per;
                if lo >= n {
                    return;
                }
                let hi = ((w + 1) * per).min(n);
                // Safety: shards own disjoint row ranges of `y`, which
                // outlives the epoch (`try_run_shards` blocks until every
                // shard finishes).
                let yband = unsafe { std::slice::from_raw_parts_mut(yp.get().add(lo), hi - lo) };
                self.spmv_rows_into(x, lo, hi, yband);
            },
            width,
        );
        if res.is_err() {
            y.fill(f64::NAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 1 0]
        // [1 2 1]
        // [0 1 2]
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_each_invariant() {
        // wrong indptr length
        assert!(matches!(
            CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(Error::InvalidStructure(_))
        ));
        // indptr[0] != 0
        assert!(CsrMatrix::new(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // last != nnz
        assert!(CsrMatrix::new(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // indices/data length mismatch
        assert!(CsrMatrix::new(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::new(1, 2, vec![0, 1], vec![2], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // duplicate columns
        assert!(CsrMatrix::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.spmv(&x), vec![4.0, 8.0, 8.0]);
    }

    #[test]
    fn spmv_acc_fuses_beta() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        a.spmv_acc(&x, -1.0, &mut y);
        assert_eq!(y, vec![3.0, 7.0, 7.0]);
    }

    #[test]
    fn identity_and_get() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(2, 3), 0.0);
        let x = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn transpose_involution_and_symmetry() {
        let a = small();
        assert!(a.is_symmetric(0.0));
        let at = a.transpose();
        assert_eq!(at, a); // symmetric
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let b = coo.to_csr();
        assert!(!b.is_symmetric(0.0));
        let bt = b.transpose();
        assert_eq!(bt.nrows(), 3);
        assert_eq!(bt.get(2, 0), 5.0);
        assert_eq!(bt.get(0, 1), -1.0);
        assert_eq!(bt.transpose(), b);
    }

    #[test]
    fn diagonal_and_max_row_nnz() {
        let a = small();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
        assert_eq!(a.max_row_nnz(), 3);
        assert_eq!(CsrMatrix::identity(0).max_row_nnz(), 0);
    }

    #[test]
    fn from_dense_and_to_dense_roundtrip() {
        let rows = vec![
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0],
        ];
        let a = CsrMatrix::from_dense(&rows, 0.0);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.to_dense(), rows);
        // drop tolerance removes small entries
        let b = CsrMatrix::from_dense(&rows, 2.5);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn frobenius_scale_gershgorin() {
        let mut a = small();
        let f = a.frobenius_norm();
        // values: three 2's and four 1's → sqrt(3·4 + 4·1) = 4
        assert!((f - 4.0).abs() < 1e-12);
        a.scale(2.0);
        assert!((a.frobenius_norm() - 2.0 * f).abs() < 1e-12);
        assert_eq!(a.gershgorin_bound(), 8.0); // middle row 2+4+2
    }

    #[test]
    fn linear_operator_impl() {
        let a = small();
        assert_eq!(LinearOperator::dim(&a), 3);
        assert_eq!(LinearOperator::max_row_nnz(&a), 3);
        let y = a.apply_alloc(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn data_mut_edits_values_not_structure() {
        let mut a = small();
        a.data_mut()[0] = 10.0;
        assert_eq!(a.get(0, 0), 10.0);
        assert_eq!(a.indptr().len(), 4);
        assert_eq!(a.indices().len(), 7);
        assert_eq!(a.data().len(), 7);
    }
}

/// Row-band SpMV, the unit of work of [`LinearOperator::apply_team`] and
/// of the whole-iteration sweep.
impl CsrMatrix {
    /// Row-range SpMV of rows `lo..hi` into `yband` (`yband[0]` is row
    /// `lo`). The per-row accumulation is the exact operation sequence of
    /// [`CsrMatrix::spmv_into`], so any row partition is bit-identical to
    /// the serial product.
    pub(crate) fn spmv_rows_into(&self, x: &[f64], lo: usize, hi: usize, yband: &mut [f64]) {
        for (off, yi) in yband.iter_mut().enumerate() {
            let r = lo + off;
            debug_assert!(r < hi);
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                acc += self.data[k] * x[self.indices[k]];
            }
            *yi = acc;
        }
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use crate::gen;

    #[test]
    fn par_spmv_bit_identical_to_serial() {
        // 40_000 rows clear the team dispatch grain for 4 workers
        let a = gen::poisson2d(200);
        let x = gen::rand_vector(40_000, 5);
        let serial = a.spmv(&x);
        for t in [1usize, 2, 3, 8] {
            let team = vr_par::team::Team::new(t);
            let mut y = vec![0.0; 40_000];
            a.apply_team(Some(&team), &x, &mut y);
            assert_eq!(y, serial, "threads = {t}");
        }
        // the Tree-mode matvec + dot pair the solvers run on a team
        for w in [2usize, 4] {
            let team = vr_par::team::Team::new(w);
            let mut y = vec![0.0; 40_000];
            a.apply_team(Some(&team), &x, &mut y);
            assert_eq!(y, serial, "team width {w}");
            let d = vr_par::reduce::par_dot_in(Some(&team), &x, &y);
            assert_eq!(
                d.to_bits(),
                vr_par::reduce::par_dot_in(None, &x, &serial).to_bits(),
                "team dot width {w}"
            );
        }
    }

    #[test]
    fn par_spmv_small_input_serial_path() {
        let a = gen::poisson1d(10);
        let x = gen::rand_vector(10, 6);
        let mut y = vec![0.0; 10];
        a.apply_team(Some(&vr_par::team::Team::new(8)), &x, &mut y);
        assert_eq!(y, a.spmv(&x));
    }
}
