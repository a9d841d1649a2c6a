//! Workload generators.
//!
//! The 1983 paper targets "large sparse linear systems occurring in practice"
//! — in the surrounding literature (Concus-Golub-O'Leary, Chandra, Adams)
//! that means elliptic PDE discretizations. These generators produce the
//! standard model problems, each SPD with a small, known `d` (max nonzeros
//! per row), which is exactly the parameter in the paper's
//! `max(log d, log log N)` bound:
//!
//! | generator | d | description |
//! |---|---|---|
//! | [`poisson1d`] | 3 | 1-D Laplacian `tridiag(−1, 2, −1)` |
//! | [`poisson2d`] | 5 | 2-D five-point Laplacian on an n×n grid |
//! | [`poisson3d`] | 7 | 3-D seven-point Laplacian on an n×n×n grid |
//! | [`poisson3d_27pt`] | 27 | 3-D 27-point stencil (HPCG-style) |
//! | [`anisotropic2d`] | 5 | 2-D anisotropic diffusion, ratio ε |
//! | [`tridiag_toeplitz`] | 3 | `tridiag(b, a, b)` |
//! | [`rand_spd`] | configurable | random diagonally dominant SPD |

use crate::sparse::{CooMatrix, CsrMatrix};

/// Row-by-row CSR assembly for the structured generators. Each row's
/// entries are pushed in increasing column order, so the arrays are built
/// in place: no COO triplets, no sort, and only the final arrays in memory.
struct RowsBuilder {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl RowsBuilder {
    fn with_capacity(nrows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0);
        RowsBuilder {
            indptr,
            indices: Vec::with_capacity(nnz),
            data: Vec::with_capacity(nnz),
        }
    }

    /// Append `(col, v)` to the current row, right of its last entry.
    fn push(&mut self, col: usize, v: f64) {
        let row_start = self.indptr[self.indptr.len() - 1];
        debug_assert!(
            self.indices[row_start..].last().is_none_or(|&c| c < col),
            "columns must increase within a row"
        );
        self.indices.push(col);
        self.data.push(v);
    }

    fn end_row(&mut self) {
        self.indptr.push(self.indices.len());
    }

    /// The square matrix of the rows pushed so far.
    fn finish(self) -> CsrMatrix {
        let n = self.indptr.len() - 1;
        CsrMatrix::new_unchecked(n, n, self.indptr, self.indices, self.data)
    }
}

/// 1-D Poisson matrix `tridiag(−1, 2, −1)` of dimension `n` (d = 3).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn poisson1d(n: usize) -> CsrMatrix {
    assert!(n > 0, "poisson1d: n must be positive");
    tridiag_toeplitz(n, 2.0, -1.0)
}

/// 2-D five-point Laplacian on an `n × n` grid with Dirichlet boundaries
/// (dimension `n²`, d = 5).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn poisson2d(n: usize) -> CsrMatrix {
    anisotropic2d(n, 1.0)
}

/// 2-D anisotropic diffusion `−u_xx − ε·u_yy` on an `n × n` grid (d = 5).
///
/// `eps = 1` recovers [`poisson2d`]; small `eps` produces the strongly
/// anisotropic problems on which unpreconditioned CG converges slowly.
///
/// # Panics
/// Panics if `n == 0` or `eps <= 0`.
#[must_use]
pub fn anisotropic2d(n: usize, eps: f64) -> CsrMatrix {
    assert!(n > 0, "anisotropic2d: n must be positive");
    assert!(eps > 0.0, "anisotropic2d: eps must be positive");
    let dim = n * n;
    let mut a = RowsBuilder::with_capacity(dim, dim + 4 * n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            let row = i * n + j;
            if i > 0 {
                a.push(row - n, -1.0);
            }
            if j > 0 {
                a.push(row - 1, -eps);
            }
            a.push(row, 2.0 + 2.0 * eps);
            if j + 1 < n {
                a.push(row + 1, -eps);
            }
            if i + 1 < n {
                a.push(row + n, -1.0);
            }
            a.end_row();
        }
    }
    a.finish()
}

/// 3-D seven-point Laplacian on an `n × n × n` grid (dimension `n³`, d = 7).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn poisson3d(n: usize) -> CsrMatrix {
    assert!(n > 0, "poisson3d: n must be positive");
    let (plane, dim) = (n * n, n * n * n);
    let mut a = RowsBuilder::with_capacity(dim, dim + 6 * plane * (n - 1));
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let row = (i * n + j) * n + k;
                if i > 0 {
                    a.push(row - plane, -1.0);
                }
                if j > 0 {
                    a.push(row - n, -1.0);
                }
                if k > 0 {
                    a.push(row - 1, -1.0);
                }
                a.push(row, 6.0);
                if k + 1 < n {
                    a.push(row + 1, -1.0);
                }
                if j + 1 < n {
                    a.push(row + n, -1.0);
                }
                if i + 1 < n {
                    a.push(row + plane, -1.0);
                }
                a.end_row();
            }
        }
    }
    a.finish()
}

/// 3-D 27-point stencil on an `n × n × n` grid (HPCG-style: 26 at the
/// center, −1 on every neighbor within the 3×3×3 cube). SPD, d = 27.
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn poisson3d_27pt(n: usize) -> CsrMatrix {
    assert!(n > 0, "poisson3d_27pt: n must be positive");
    let dim = n * n * n;
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    // Neighbours along one axis, in increasing order.
    let near = |i: usize| i.saturating_sub(1)..(i + 2).min(n);
    let mut a = RowsBuilder::with_capacity(dim, (3 * n - 2).pow(3));
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let row = idx(i, j, k);
                // Lexicographic neighbour order is increasing column order.
                for ii in near(i) {
                    for jj in near(j) {
                        for kk in near(k) {
                            let col = idx(ii, jj, kk);
                            a.push(col, if col == row { 26.0 } else { -1.0 });
                        }
                    }
                }
                a.end_row();
            }
        }
    }
    a.finish()
}

/// Tridiagonal Toeplitz matrix `tridiag(off, diag, off)` (d = 3).
///
/// SPD iff `diag > 2·|off|`; the generator does not enforce this so that
/// indefinite cases can be produced for negative tests.
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn tridiag_toeplitz(n: usize, diag: f64, off: f64) -> CsrMatrix {
    assert!(n > 0, "tridiag_toeplitz: n must be positive");
    let mut a = RowsBuilder::with_capacity(n, 3 * n - 2);
    for i in 0..n {
        if i > 0 {
            a.push(i - 1, off);
        }
        a.push(i, diag);
        if i + 1 < n {
            a.push(i + 1, off);
        }
        a.end_row();
    }
    a.finish()
}

/// Deterministic xorshift PRNG so that generators need no external crate in
/// the library itself (the `rand` crate is only a dev/bench dependency).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded constructor; a zero seed is mapped to a fixed nonzero value.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Random diagonally dominant SPD matrix with ~`row_nnz` off-diagonal
/// entries per row (d ≈ `row_nnz + 1`), deterministic in `seed`.
///
/// Off-diagonal entries are negative (an M-matrix, like the PDE stencils);
/// each diagonal entry exceeds its off-diagonal row sum by `dominance`,
/// guaranteeing positive definiteness by Gershgorin.
///
/// # Panics
/// Panics if `n == 0` or `dominance <= 0`.
#[must_use]
pub fn rand_spd(n: usize, row_nnz: usize, dominance: f64, seed: u64) -> CsrMatrix {
    assert!(n > 0, "rand_spd: n must be positive");
    assert!(dominance > 0.0, "rand_spd: dominance must be positive");
    let mut rng = XorShift64::new(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (row_nnz + 1));
    // Sample a symmetric off-diagonal pattern.
    let mut offdiag_sum = vec![0.0; n];
    for i in 0..n {
        for _ in 0..row_nnz.div_ceil(2) {
            let j = rng.below(n);
            if j == i {
                continue;
            }
            let v = -rng.range_f64(0.1, 1.0);
            coo.push_sym(i, j, v).unwrap();
            offdiag_sum[i] += v.abs();
            offdiag_sum[j] += v.abs();
        }
    }
    for (i, s) in offdiag_sum.iter().enumerate() {
        coo.push(i, i, s + dominance).unwrap();
    }
    coo.to_csr()
}

/// Random vector with entries uniform in `[-1, 1)`, deterministic in `seed`.
#[must_use]
pub fn rand_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Right-hand side for the 2-D Poisson problem: a localized Gaussian
/// source at (0.3, 0.4) — a realistic forcing term whose spectrum spreads
/// over many Laplacian eigenmodes. (A pure `sin(πx)·sin(πy)` field would
/// be a single eigenvector, on which CG converges in one iteration —
/// useless as a benchmark.)
#[must_use]
pub fn poisson2d_rhs(n: usize) -> Vec<f64> {
    let h = 1.0 / (n as f64 + 1.0);
    let mut b = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let x = (i as f64 + 1.0) * h;
            let y = (j as f64 + 1.0) * h;
            let d2 = (x - 0.3) * (x - 0.3) + (y - 0.4) * (y - 0.4);
            b.push((-10.0 * d2).exp());
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    #[test]
    fn poisson1d_structure() {
        let a = poisson1d(5);
        assert_eq!(a.nrows(), 5);
        assert_eq!(a.nnz(), 5 + 2 * 4);
        assert_eq!(a.max_row_nnz(), 3);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.get(2, 1), -1.0);
        assert_eq!(a.get(2, 4), 0.0);
    }

    #[test]
    fn poisson2d_structure_and_spd() {
        let a = poisson2d(4);
        assert_eq!(a.nrows(), 16);
        assert_eq!(a.max_row_nnz(), 5);
        assert!(a.is_symmetric(0.0));
        // SPD: Cholesky of the dense form succeeds.
        let d = DenseMatrix::from_rows(&a.to_dense()).unwrap();
        assert!(d.cholesky().is_ok());
    }

    #[test]
    fn poisson3d_structure() {
        let a = poisson3d(3);
        assert_eq!(a.nrows(), 27);
        assert_eq!(a.max_row_nnz(), 7);
        assert!(a.is_symmetric(0.0));
        // center point has all 6 neighbours
        let center = (3 + 1) * 3 + 1;
        assert_eq!(a.row(center).count(), 7);
    }

    #[test]
    fn poisson3d_27pt_structure() {
        let a = poisson3d_27pt(3);
        assert_eq!(a.nrows(), 27);
        assert_eq!(a.max_row_nnz(), 27);
        assert!(a.is_symmetric(0.0));
        let d = DenseMatrix::from_rows(&a.to_dense()).unwrap();
        assert!(d.cholesky().is_ok());
    }

    #[test]
    fn anisotropic_limits() {
        let iso = anisotropic2d(3, 1.0);
        let p = poisson2d(3);
        assert_eq!(iso, p);
        let aniso = anisotropic2d(3, 0.01);
        assert!(aniso.is_symmetric(0.0));
        assert!((aniso.get(4, 4) - 2.02).abs() < 1e-12);
    }

    #[test]
    fn tridiag_toeplitz_matches_poisson1d() {
        assert_eq!(tridiag_toeplitz(6, 2.0, -1.0), poisson1d(6));
        let indef = tridiag_toeplitz(4, 1.0, -1.0);
        let d = DenseMatrix::from_rows(&indef.to_dense()).unwrap();
        assert!(d.cholesky().is_err()); // not SPD
    }

    /// The COO route the structured generators took before they assembled
    /// CSR directly, kept as their oracle: `entries(row, push)` pushes each
    /// row's triplets in any order, and `to_csr` sorts them.
    fn coo_route(dim: usize, entries: impl Fn(usize, &mut dyn FnMut(usize, f64))) -> CsrMatrix {
        let mut coo = CooMatrix::new(dim, dim);
        for r in 0..dim {
            entries(r, &mut |c, v| coo.push(r, c, v).unwrap());
        }
        coo.to_csr()
    }

    fn assert_same_bits(direct: &CsrMatrix, oracle: &CsrMatrix, what: &str) {
        assert_eq!(direct.nrows(), oracle.nrows(), "{what}: nrows");
        assert_eq!(direct.ncols(), oracle.ncols(), "{what}: ncols");
        assert_eq!(direct.indptr(), oracle.indptr(), "{what}: indptr");
        assert_eq!(direct.indices(), oracle.indices(), "{what}: indices");
        let bits = |m: &CsrMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(direct), bits(oracle), "{what}: values");
    }

    /// Grid neighbours of `i` along one axis of side `n`, in the order the
    /// COO generators pushed them (lower first, then upper).
    fn axis(i: usize, n: usize) -> impl Iterator<Item = usize> {
        [i.checked_sub(1), (i + 1 < n).then_some(i + 1)]
            .into_iter()
            .flatten()
    }

    #[test]
    fn anisotropic2d_matches_its_coo_route() {
        for n in [1, 2, 3, 7, 16, 48, 300] {
            for eps in [1.0, 0.3, 0.01] {
                let oracle = coo_route(n * n, |row, push| {
                    let (i, j) = (row / n, row % n);
                    push(row, 2.0 + 2.0 * eps);
                    for ii in axis(i, n) {
                        push(ii * n + j, -1.0);
                    }
                    for jj in axis(j, n) {
                        push(i * n + jj, -eps);
                    }
                });
                assert_same_bits(&anisotropic2d(n, eps), &oracle, &format!("n={n} eps={eps}"));
            }
            let iso = anisotropic2d(n, 1.0);
            assert_same_bits(&poisson2d(n), &iso, &format!("poisson2d({n})"));
        }
    }

    #[test]
    fn poisson3d_matches_its_coo_route() {
        for n in [1, 2, 3, 5, 9] {
            let oracle = coo_route(n * n * n, |row, push| {
                let (i, j, k) = (row / (n * n), (row / n) % n, row % n);
                push(row, 6.0);
                for ii in axis(i, n) {
                    push((ii * n + j) * n + k, -1.0);
                }
                for jj in axis(j, n) {
                    push((i * n + jj) * n + k, -1.0);
                }
                for kk in axis(k, n) {
                    push((i * n + j) * n + kk, -1.0);
                }
            });
            assert_same_bits(&poisson3d(n), &oracle, &format!("n={n}"));
        }
    }

    #[test]
    fn poisson3d_27pt_matches_its_coo_route() {
        for n in [1, 2, 3, 5] {
            let oracle = coo_route(n * n * n, |row, push| {
                let (i, j, k) = (row / (n * n), (row / n) % n, row % n);
                let ni = n as isize;
                let (i, j, k) = (i as isize, j as isize, k as isize);
                for di in -1..=1 {
                    for dj in -1..=1 {
                        for dk in -1..=1 {
                            let (a, b, c) = (i + di, j + dj, k + dk);
                            if a < 0 || a >= ni || b < 0 || b >= ni || c < 0 || c >= ni {
                                continue;
                            }
                            let col = ((a * ni + b) * ni + c) as usize;
                            push(col, if col == row { 26.0 } else { -1.0 });
                        }
                    }
                }
            });
            assert_same_bits(&poisson3d_27pt(n), &oracle, &format!("n={n}"));
        }
    }

    #[test]
    fn tridiagonal_generators_match_their_coo_route() {
        for n in [1, 2, 3, 10] {
            for (diag, off) in [(2.0, -1.0), (2.0 + 4e-4, -1.0), (1.0, -1.0), (-3.5, 0.25)] {
                let oracle = coo_route(n, |i, push| {
                    push(i, diag);
                    for c in axis(i, n) {
                        push(c, off);
                    }
                });
                let what = format!("n={n} diag={diag} off={off}");
                assert_same_bits(&tridiag_toeplitz(n, diag, off), &oracle, &what);
            }
            let p = tridiag_toeplitz(n, 2.0, -1.0);
            assert_same_bits(&poisson1d(n), &p, &format!("poisson1d({n})"));
        }
    }

    #[test]
    fn rand_spd_is_spd_and_deterministic() {
        let a = rand_spd(30, 4, 1.0, 42);
        let b = rand_spd(30, 4, 1.0, 42);
        assert_eq!(a, b);
        assert!(a.is_symmetric(1e-15));
        let d = DenseMatrix::from_rows(&a.to_dense()).unwrap();
        assert!(d.cholesky().is_ok());
        let c = rand_spd(30, 4, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn xorshift_reproducible_and_in_range() {
        let mut r1 = XorShift64::new(7);
        let mut r2 = XorShift64::new(7);
        for _ in 0..100 {
            let a = r1.next_f64();
            assert_eq!(a, r2.next_f64());
            assert!((0.0..1.0).contains(&a));
        }
        let mut r0 = XorShift64::new(0);
        assert!(r0.next_u64() != 0); // zero seed remapped
        let mut r = XorShift64::new(3);
        for _ in 0..50 {
            assert!(r.below(7) < 7);
            let v = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn rand_vector_deterministic() {
        assert_eq!(rand_vector(10, 5), rand_vector(10, 5));
        assert_ne!(rand_vector(10, 5), rand_vector(10, 6));
        assert!(rand_vector(100, 1).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn poisson2d_rhs_is_positive_localized_field() {
        let n = 8;
        let b = poisson2d_rhs(n);
        assert_eq!(b.len(), 64);
        assert!(b.iter().all(|&v| v > 0.0));
        // peak near (0.3, 0.4): grid indices i ≈ 0.3·9−1 ≈ 2, j ≈ 0.4·9−1 ≈ 3
        let max = b.iter().cloned().fold(f64::MIN, f64::max);
        assert!(b[2 * n + 3] > 0.9 * max, "peak misplaced");
        // decays away from the source
        assert!(b[n * n - 1] < 0.2 * max);
    }
}
