//! # vr-linalg
//!
//! Dense and sparse linear-algebra substrate for the Van Rosendale (1983)
//! look-ahead conjugate-gradient reproduction.
//!
//! The 1983 paper assumes a symmetric positive-definite operator `A` with at
//! most `d` nonzeros per row (elliptic PDE discretizations were the target
//! workload of the era). This crate provides everything the solvers in
//! `vr-cg` need:
//!
//! * [`kernels`] — level-1 BLAS-style kernels on `&[f64]` slices and the
//!   dot product in each summation order ([`kernels::DotMode`]). Its
//!   `Tree` order is the **deterministic fixed-layout fan-in** of
//!   [`vr_par::reduce`], the `log₂`-depth summation tree the paper reasons
//!   about, with the same bits at every team width.
//! * [`sparse`] — COO and CSR matrices with validated invariants and SpMV.
//! * [`DenseMatrix`] — row-major dense matrices with Cholesky, used for
//!   reference solves in tests and small experiments.
//! * [`gen`] — workload generators (1D/2D/3D Poisson stencils, anisotropic
//!   diffusion, diagonally dominant random SPD, tridiagonal Toeplitz).
//! * [`precond`] — Jacobi, SSOR and IC(0) preconditioners.
//! * [`io`] — Matrix Market coordinate I/O.
//!
//! ## Quick example
//!
//! ```
//! use vr_linalg::{gen, kernels, LinearOperator};
//!
//! let a = gen::poisson2d(16);              // 256×256 five-point Laplacian
//! assert_eq!(a.nrows(), 256);
//! assert!(a.is_symmetric(0.0));
//! assert_eq!(a.max_row_nnz(), 5);          // the paper's `d`
//!
//! let x = vec![1.0; 256];
//! let mut y = vec![0.0; 256];
//! a.spmv_into(&x, &mut y);
//! // Interior rows of the Laplacian annihilate the constant vector:
//! // 4·1 − 1 − 1 − 1 − 1 = 0.
//! let interior = 16 * 7 + 7;               // row (7,7)
//! assert_eq!(y[interior], 0.0);
//! assert!(kernels::dot_serial(&x, &y) > 0.0); // boundary rows contribute
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod banded;
pub mod dense;
pub mod eig;
pub mod error;
pub mod fused;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod mpk;
pub mod precond;
pub mod reorder;
pub mod sparse;
pub mod stencil;
pub mod sweep;

pub use dense::DenseMatrix;
pub use error::{Error, Result};
pub use sparse::{CooMatrix, CsrMatrix};

/// Trait for anything that behaves as a linear operator `y = A·x` on ℝⁿ.
///
/// All CG variants in `vr-cg` are generic over this trait, so they run
/// unchanged on CSR matrices, dense matrices, or matrix-free stencils.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Compute `y ← A·x`. Both slices must have length [`LinearOperator::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Maximum number of nonzeros in any row — the paper's `d`.
    ///
    /// Used by the cost-model simulator to size SpMV reduction depth.
    /// Defaults to `dim()` (dense worst case).
    fn max_row_nnz(&self) -> usize {
        self.dim()
    }

    /// Apply into a freshly allocated vector.
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }

    /// Working-precision matvec `y ← A·x` with `f32` storage *and* `f32`
    /// arithmetic, returning `true` when performed.
    ///
    /// This is the operator half of mixed-precision CG: the solver keeps
    /// its working vectors in `f32` and streams half the bytes per sweep,
    /// while convergence decisions stay in `f64` (widened reductions plus
    /// true-residual confirmation through [`LinearOperator::apply`]).
    /// The per-row operation *sequence* must match `apply` — same
    /// neighbor/coefficient order, narrowed — so the `f32` recurrence
    /// tracks its `f64` twin as closely as `f32` rounding allows.
    ///
    /// The default returns `false` (no native `f32` path): mixed-precision
    /// solvers must then reject the configuration rather than silently
    /// widening every iterate. Matrix-free stencils and CSR override it.
    fn apply_f32(&self, _x: &[f32], _y: &mut [f32]) -> bool {
        false
    }

    /// Fused `y ← A·x` returning `(x, y)` summed in row order: the `Serial`
    /// order of [`kernels::dot`].
    ///
    /// The default is the two-pass composition `apply` + [`kernels::dot`].
    /// Concrete operators override this with a single-pass form that dots
    /// each row result as it is produced. An override must be
    /// bit-identical to the default (same products, same association),
    /// which holds whenever the row value is computed by the same
    /// operation sequence as `apply`. `Tree` has no single-pass form: its
    /// chunk sums do not follow row order, so its product and dot are
    /// [`LinearOperator::apply_team`] and [`vr_par::reduce::par_dot_in`].
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.apply(x, y);
        kernels::dot_serial(x, y)
    }

    /// Parallel `y ← A·x` on a persistent SPMD team (`None` ⇒ serial).
    ///
    /// Every output row `y[i]` is a function of `x` alone, so *any* row
    /// partition produces bits identical to the serial [`LinearOperator::
    /// apply`]. The default ignores the team and applies serially — always
    /// correct; operators with row-addressable storage (CSR, stencils)
    /// override it with contiguous row-band partitions, one band per team
    /// shard. If the team is poisoned (a worker panicked), overrides fill
    /// `y` with NaN so downstream solver guards terminate honestly.
    fn apply_team(&self, team: Option<&vr_par::Team>, x: &[f64], y: &mut [f64]) {
        let _ = team;
        self.apply(x, y);
    }

    /// Matrix-powers kernel: build the Krylov column family seeded by
    /// `v[0]` in one pass. With `s = v.len()`, computes for `l in 0..s`
    /// `av[l] ← A·v[l]` and, while `l + 1 < s`,
    /// `v[l+1][j] = transform.level(l, av[l][j], v[l][j], v[l−1][j])` —
    /// a total of `s` operator applications.
    ///
    /// Contract (the same one [`LinearOperator::apply_team`] obeys):
    /// overrides must produce outputs **bit-identical** to the default
    /// [`mpk::naive_powers`] body for *every* tile size and team width, by
    /// computing each row through the exact `apply` operation sequence
    /// (redundant ghost compute at tile boundaries). On a poisoned team,
    /// every derived column is NaN-filled so solver guards terminate with
    /// an honest breakdown. `tile` overrides the operator's internal tile
    /// heuristic (rows/planes per tile for stencils, matrix rows for CSR);
    /// `ws` carries reusable scratch so repeated builds are allocation-free
    /// after warm-up.
    fn matrix_powers(
        &self,
        transform: &mpk::MpkTransform<'_>,
        v: &mut [Vec<f64>],
        av: &mut [Vec<f64>],
        team: Option<&vr_par::Team>,
        tile: Option<usize>,
        ws: &mut mpk::MpkWorkspace,
    ) {
        let _ = (tile, ws);
        mpk::naive_powers(self, transform, v, av, team);
    }

    /// Borrow this operator as a whole-iteration sweep operand, if it
    /// supports band-addressable row staging (`y[lo..hi] ← (A·x)[lo..hi]`
    /// through the exact `apply` operation sequence). Returning `Some`
    /// opts the operator into [`sweep::FusedIterationSweep`], the engine
    /// behind `Execution::WholeIteration` in the solver crate; the
    /// default `None` makes whole-iteration fusion an explicit per-format
    /// capability rather than a silent fallback.
    fn as_sweep(&self) -> Option<sweep::SweepOperator<'_>> {
        None
    }
}

// Forward every method explicitly: falling back to a default body here
// would silently discard `T`'s override behind a reference.
impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
    fn max_row_nnz(&self) -> usize {
        (**self).max_row_nnz()
    }
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        (**self).apply_alloc(x)
    }
    fn apply_f32(&self, x: &[f32], y: &mut [f32]) -> bool {
        (**self).apply_f32(x, y)
    }
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        (**self).apply_dot(x, y)
    }
    fn apply_team(&self, team: Option<&vr_par::Team>, x: &[f64], y: &mut [f64]) {
        (**self).apply_team(team, x, y)
    }
    fn matrix_powers(
        &self,
        transform: &mpk::MpkTransform<'_>,
        v: &mut [Vec<f64>],
        av: &mut [Vec<f64>],
        team: Option<&vr_par::Team>,
        tile: Option<usize>,
        ws: &mut mpk::MpkWorkspace,
    ) {
        (**self).matrix_powers(transform, v, av, team, tile, ws)
    }
    fn as_sweep(&self) -> Option<sweep::SweepOperator<'_>> {
        (**self).as_sweep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_operator_by_ref_delegates() {
        let a = gen::poisson1d(8);
        let r: &CsrMatrix = &a;
        assert_eq!(LinearOperator::dim(&r), 8);
        assert_eq!(LinearOperator::max_row_nnz(&r), 3);
        let x = vec![1.0; 8];
        let y1 = a.apply_alloc(&x);
        let y2 = r.apply_alloc(&x);
        assert_eq!(y1, y2);
    }

    /// An operator whose every trait method is an override that records
    /// its own name, so a caller can see which body a wrapper reached.
    #[derive(Default)]
    struct Probe(std::cell::RefCell<Vec<&'static str>>);

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.0.borrow_mut().push(method);
        }
        fn take(&self) -> Vec<&'static str> {
            self.0.take()
        }
    }

    impl LinearOperator for Probe {
        fn dim(&self) -> usize {
            self.hit("dim");
            0
        }
        fn apply(&self, _x: &[f64], _y: &mut [f64]) {
            self.hit("apply");
        }
        fn max_row_nnz(&self) -> usize {
            self.hit("max_row_nnz");
            0
        }
        fn apply_alloc(&self, _x: &[f64]) -> Vec<f64> {
            self.hit("apply_alloc");
            Vec::new()
        }
        fn apply_f32(&self, _x: &[f32], _y: &mut [f32]) -> bool {
            self.hit("apply_f32");
            true
        }
        fn apply_dot(&self, _x: &[f64], _y: &mut [f64]) -> f64 {
            self.hit("apply_dot");
            0.0
        }
        fn apply_team(&self, _team: Option<&vr_par::Team>, _x: &[f64], _y: &mut [f64]) {
            self.hit("apply_team");
        }
        fn matrix_powers(
            &self,
            _transform: &mpk::MpkTransform<'_>,
            _v: &mut [Vec<f64>],
            _av: &mut [Vec<f64>],
            _team: Option<&vr_par::Team>,
            _tile: Option<usize>,
            _ws: &mut mpk::MpkWorkspace,
        ) {
            self.hit("matrix_powers");
        }
        fn as_sweep(&self) -> Option<sweep::SweepOperator<'_>> {
            self.hit("as_sweep");
            None
        }
    }

    /// A call of one trait method on an operator.
    type Call = fn(&dyn LinearOperator);

    /// One call per trait method, named after the method it makes. A new
    /// trait method needs a row here, and a forward in both wrappers.
    const CALLS: [(&str, Call); 9] = [
        ("dim", |op| {
            op.dim();
        }),
        ("apply", |op| op.apply(&[], &mut [])),
        ("max_row_nnz", |op| {
            op.max_row_nnz();
        }),
        ("apply_alloc", |op| {
            op.apply_alloc(&[]);
        }),
        ("apply_f32", |op| {
            op.apply_f32(&[], &mut []);
        }),
        ("apply_dot", |op| {
            op.apply_dot(&[], &mut []);
        }),
        ("apply_team", |op| op.apply_team(None, &[], &mut [])),
        ("matrix_powers", |op| {
            let mut ws = mpk::MpkWorkspace::new();
            op.matrix_powers(
                &mpk::MpkTransform::Monomial,
                &mut [],
                &mut [],
                None,
                None,
                &mut ws,
            );
        }),
        ("as_sweep", |op| {
            op.as_sweep();
        }),
    ];

    #[test]
    fn wrappers_forward_every_trait_method() {
        // A missed forward changes no bits (the default bodies compute the
        // same values), so only the override that ran can show it.
        let probe = Probe::default();
        let by_ref: &dyn LinearOperator = &&probe;
        let oracle = mpk::NaivePowers(Probe::default());
        for (method, call) in CALLS {
            call(by_ref);
            assert_eq!(probe.take(), [method], "&T must forward {method}");
            call(&oracle);
            let reached = oracle.0.take();
            if method == "matrix_powers" {
                // the oracle's whole point: the trait's naive engine runs
                // (it only asks the inner operator for its dimension)
                assert_eq!(reached, ["dim"], "NaivePowers must not forward {method}");
            } else {
                assert_eq!(reached, [method], "NaivePowers must forward {method}");
            }
        }
    }
}
