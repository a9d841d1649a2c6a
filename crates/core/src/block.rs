//! Block conjugate gradients for multiple right-hand sides (O'Leary 1980).
//!
//! Contemporary with the paper, and its spatial dual: Van Rosendale
//! amortizes each reduction's latency across k *iterations*; block CG
//! amortizes it across s *right-hand sides* — one batched Gram reduction
//! serves all s systems, and the shared block Krylov space accelerates
//! convergence for clustered spectra.
//!
//! Iteration (X, R, P are n×s blocks):
//!
//! ```text
//! W  = A·P
//! Λ  = (PᵀW)⁻¹ · (PᵀR)            — s×s Cholesky solve
//! X += P·Λ;   R −= W·Λ
//! Β  = −(PᵀW)⁻¹ · (WᵀR)
//! P  = R + P·Β
//! ```
//!
//! All `2s²` inner products per iteration form batched Gram families.
//! They are computed serially with the SIMD leaf kernel over whole
//! columns: serial summation is trivially bit-invariant across team
//! widths (the property the daemon's batch scheduler relies on), and at
//! block sizes the flat single-pass dot beats the 256-chunk partitioned
//! reduction — the chunks exist to shard work across workers, but the
//! s × s Gram family is many *small* dots, where per-chunk dispatch
//! overhead would dominate the arithmetic.

use crate::driver::Driver;
use crate::instrument::OpCounts;
use crate::resilience::guard;
use crate::solver::{Execution, SolveOptions, Termination};
use vr_linalg::kernels;
use vr_linalg::{DenseMatrix, LinearOperator};
use vr_par::simd::leaf_dot;

/// Serial SIMD Gram block `G[i][j] = (u[i], v[j])`, one flat pass per dot.
fn gram_block(u: &[&[f64]], v: &[&[f64]]) -> Vec<Vec<f64>> {
    u.iter()
        .map(|x| v.iter().map(|y| leaf_dot(x, y)).collect())
        .collect()
}

/// Result of a block solve.
#[derive(Debug, Clone)]
pub struct BlockSolveResult {
    /// Solution columns, one per right-hand side.
    pub x: Vec<Vec<f64>>,
    /// Why the iteration stopped.
    pub termination: Termination,
    /// Block iterations performed.
    pub iterations: usize,
    /// Residual norm history per column (recursive).
    pub residual_norms: Vec<Vec<f64>>,
    /// Operation counts (matvecs counted per column application).
    pub counts: OpCounts,
    /// Whether every column converged.
    pub converged: bool,
}

/// Block CG solver for `A·X = B` with `s` right-hand sides.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCg;

impl BlockCg {
    /// Construct.
    #[must_use]
    pub fn new() -> Self {
        BlockCg
    }

    /// Solve for all columns of `b` simultaneously.
    ///
    /// Runs under `Execution::Reference` and `Execution::Fused` alike;
    /// under `WholeIteration` or `Mixed` it returns
    /// [`Termination::Unsupported`] after no iterations, with `x = 0` and
    /// the initial residual norms.
    ///
    /// # Panics
    /// Panics if `b` is empty or its columns mismatch the operator
    /// dimension.
    #[must_use]
    pub fn solve(
        &self,
        a: &dyn LinearOperator,
        b: &[Vec<f64>],
        opts: &SolveOptions,
    ) -> BlockSolveResult {
        let s = b.len();
        assert!(s > 0, "block solve needs at least one right-hand side");
        let n = a.dim();
        for col in b {
            assert_eq!(col.len(), n, "rhs column length mismatch");
        }
        let mut counts = OpCounts::default();
        let drv = Driver::attach(opts);

        let mut x: Vec<Vec<f64>> = vec![vec![0.0; n]; s];
        let mut r: Vec<Vec<f64>> = b.to_vec();
        counts.vector_ops += s;

        let thresh_sq: Vec<f64> = b
            .iter()
            .map(|col| {
                let t = opts.tol * kernels::norm2(col);
                (t * t).max(f64::MIN_POSITIVE)
            })
            .collect();

        let mut norms: Vec<Vec<f64>> = vec![Vec::new(); s];
        let col_rr = |r: &[Vec<f64>], counts: &mut OpCounts| -> Vec<f64> {
            counts.dots += s;
            r.iter().map(|c| leaf_dot(c, c)).collect()
        };
        let mut rr = col_rr(&r, &mut counts);
        if opts.record_residuals {
            for (h, v) in norms.iter_mut().zip(&rr) {
                h.push(v.max(0.0).sqrt());
            }
        }

        // One loop, run alike under `Reference` and `Fused`: with no
        // mixed-precision twin or sweep schedule, the other executions
        // reject after no iterations, like a single-rhs loop without twins.
        if !matches!(opts.execution, Execution::Reference | Execution::Fused) {
            return BlockSolveResult {
                x,
                termination: Termination::Unsupported,
                iterations: 0,
                residual_norms: norms,
                counts,
                converged: false,
            };
        }

        let mut termination = Termination::MaxIterations;
        let mut iterations = 0;

        // Deflation: only unconverged columns stay in the direction block.
        // `active[i]` maps block column i to its rhs index.
        let mut active: Vec<usize> = (0..s).filter(|&j| rr[j] > thresh_sq[j]).collect();
        let mut p: Vec<Vec<f64>> = active.iter().map(|&j| r[j].clone()).collect();
        counts.vector_ops += active.len();

        if active.is_empty() {
            termination = Termination::Converged;
        } else {
            let mut w: Vec<Vec<f64>> = vec![vec![0.0; n]; active.len()];
            'outer: for it in 0..opts.max_iters {
                // progress streams the worst (max) active-column squared
                // residual — the quantity the block's convergence gates on
                let worst = active
                    .iter()
                    .map(|&j| rr[j])
                    .fold(f64::NEG_INFINITY, f64::max);
                if drv.poll(it, worst) {
                    termination = Termination::Cancelled;
                    iterations = it;
                    break 'outer;
                }
                let sa = active.len();
                // W = A·P (sa matvecs); the buffer is hoisted — deflation
                // only ever shrinks the block, so truncate and reuse
                w.truncate(sa);
                for (wc, pc) in w.iter_mut().zip(&p) {
                    opts.matvec(a, pc, wc, &mut counts);
                }

                // Gram blocks, flat serial SIMD passes over views (no
                // per-iteration column clones)
                let (ptw, ptr) = {
                    let pv: Vec<&[f64]> = p.iter().map(Vec::as_slice).collect();
                    let wv: Vec<&[f64]> = w.iter().map(Vec::as_slice).collect();
                    let rv: Vec<&[f64]> = active.iter().map(|&j| r[j].as_slice()).collect();
                    (gram_block(&pv, &wv), gram_block(&pv, &rv)) // PᵀW (sa×sa), PᵀR_active
                };
                counts.dots += 2 * sa * sa;

                let gram = DenseMatrix::from_rows(&ptw).expect("square");
                let chol = match gram.cholesky() {
                    Ok(c) => c,
                    Err(_) => {
                        termination = Termination::Breakdown;
                        iterations = it;
                        break 'outer;
                    }
                };

                // Λ column c solves (PᵀW)·λ_c = (PᵀR)·e_c
                let lambda: Vec<Vec<f64>> = (0..sa)
                    .map(|c| {
                        let rhs: Vec<f64> = (0..sa).map(|i| ptr[i][c]).collect();
                        chol.solve(&rhs)
                    })
                    .collect();
                counts.scalar_ops += sa * sa * sa;

                // X += P·Λ ; R −= W·Λ (active columns only)
                for (c, &j) in active.iter().enumerate() {
                    for (i, (pc, wc)) in p.iter().zip(&w).enumerate() {
                        let lic = lambda[c][i];
                        if lic != 0.0 {
                            kernels::axpy(lic, pc, &mut x[j]);
                            kernels::axpy(-lic, wc, &mut r[j]);
                        }
                    }
                }
                counts.vector_ops += 2 * sa * sa;

                rr = col_rr(&r, &mut counts);
                if opts.record_residuals {
                    for (h, v) in norms.iter_mut().zip(&rr) {
                        h.push(v.max(0.0).sqrt());
                    }
                }
                iterations = it + 1;
                if !guard::all_finite(rr.iter().copied()) {
                    termination = Termination::Breakdown;
                    break;
                }

                // deflate newly converged columns out of the block
                let still: Vec<usize> = (0..sa)
                    .filter(|&c| rr[active[c]] > thresh_sq[active[c]])
                    .collect();
                if still.is_empty() {
                    termination = Termination::Converged;
                    break;
                }

                // Β = −(PᵀW)⁻¹(WᵀR_still); P ← R_still + P·Β
                let wtr = {
                    let wv: Vec<&[f64]> = w.iter().map(Vec::as_slice).collect();
                    let rv: Vec<&[f64]> = still.iter().map(|&c| r[active[c]].as_slice()).collect();
                    gram_block(&wv, &rv)
                };
                counts.dots += sa * still.len();
                let beta: Vec<Vec<f64>> = (0..still.len())
                    .map(|c| {
                        let rhs: Vec<f64> = (0..sa).map(|i| -wtr[i][c]).collect();
                        chol.solve(&rhs)
                    })
                    .collect();
                counts.scalar_ops += sa * sa * still.len();
                let p_old = p;
                p = Vec::with_capacity(still.len());
                for (c, &sc) in still.iter().enumerate() {
                    let mut new_col = r[active[sc]].clone();
                    for (i, pc) in p_old.iter().enumerate() {
                        let bic = beta[c][i];
                        if bic != 0.0 {
                            kernels::axpy(bic, pc, &mut new_col);
                        }
                    }
                    p.push(new_col);
                }
                counts.vector_ops += still.len() * (sa + 1);
                active = still.iter().map(|&c| active[c]).collect();
            }
        }

        BlockSolveResult {
            x,
            converged: termination == Termination::Converged,
            termination,
            iterations,
            residual_norms: norms,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCg;
    use crate::CgVariant;
    use vr_linalg::gen;

    fn opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-9).with_max_iters(2000)
    }

    #[test]
    fn single_rhs_matches_standard_cg() {
        let a = gen::poisson2d(10);
        let b = gen::poisson2d_rhs(10);
        let single = StandardCg::new().solve(&a, &b, None, &opts());
        let block = BlockCg::new().solve(&a, std::slice::from_ref(&b), &opts());
        assert!(block.converged, "{:?}", block.termination);
        for (u, v) in block.x[0].iter().zip(&single.x) {
            assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()), "{u} vs {v}");
        }
    }

    #[test]
    fn multiple_rhs_all_solved() {
        let a = gen::poisson2d(12);
        let n = a.nrows();
        let bs: Vec<Vec<f64>> = (0..4).map(|k| gen::rand_vector(n, 60 + k)).collect();
        let res = BlockCg::new().solve(&a, &bs, &opts());
        assert!(res.converged, "{:?}", res.termination);
        for (j, b) in bs.iter().enumerate() {
            let ax = a.spmv(&res.x[j]);
            let mut r = vec![0.0; n];
            kernels::sub(b, &ax, &mut r);
            assert!(
                kernels::norm2(&r) < 1e-6 * kernels::norm2(b),
                "column {j}: residual {}",
                kernels::norm2(&r)
            );
        }
    }

    #[test]
    fn block_converges_in_fewer_iterations_than_single() {
        // the block Krylov space sees s directions per iteration: strictly
        // better per-iteration progress on a shared spectrum
        let a = gen::poisson2d(14);
        let n = a.nrows();
        let bs: Vec<Vec<f64>> = (0..4).map(|k| gen::rand_vector(n, 70 + k)).collect();
        let block = BlockCg::new().solve(&a, &bs, &opts());
        assert!(block.converged);
        let worst_single = bs
            .iter()
            .map(|b| StandardCg::new().solve(&a, b, None, &opts()).iterations)
            .max()
            .unwrap();
        assert!(
            block.iterations < worst_single,
            "block {} !< worst single {}",
            block.iterations,
            worst_single
        );
    }

    #[test]
    fn reduction_batching_is_constant_per_iteration() {
        // dots per block iteration = 3s² + s regardless of n — two Gram
        // batches + WᵀR + the per-column residual check
        let a = gen::poisson2d(10);
        let n = a.nrows();
        let s = 3;
        let bs: Vec<Vec<f64>> = (0..s).map(|k| gen::rand_vector(n, 80 + k as u64)).collect();
        let res = BlockCg::new().solve(&a, &bs, &opts());
        assert!(res.converged);
        let per_iter = (res.counts.dots as f64 - s as f64) / res.iterations as f64;
        let expect = (3 * s * s + s) as f64;
        assert!(
            (per_iter - expect).abs() <= expect * 0.2,
            "dots/iter {per_iter} vs expected ≈ {expect}"
        );
    }

    #[test]
    fn zero_rhs_column_converges_immediately_with_others() {
        let a = gen::poisson1d(20);
        let bs = vec![vec![0.0; 20], gen::rand_vector(20, 90)];
        let res = BlockCg::new().solve(&a, &bs, &opts());
        assert!(res.converged, "{:?}", res.termination);
        assert!(kernels::norm2(&res.x[0]) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_block_rejected() {
        let a = gen::poisson1d(4);
        let _ = BlockCg::new().solve(&a, &[], &opts());
    }

    #[test]
    fn breakdown_on_dependent_rhs_handled() {
        // two identical right-hand sides make PᵀAP singular in exact
        // arithmetic; round-off may keep it barely SPD — accept either
        // clean convergence or an honest Breakdown, never a wrong answer
        let a = gen::poisson1d(16);
        let b = gen::rand_vector(16, 91);
        let res = BlockCg::new().solve(&a, &[b.clone(), b.clone()], &opts());
        if res.converged {
            let ax = a.spmv(&res.x[0]);
            let mut r = vec![0.0; 16];
            kernels::sub(&b, &ax, &mut r);
            assert!(kernels::norm2(&r) < 1e-6 * kernels::norm2(&b));
        } else {
            assert_eq!(res.termination, Termination::Breakdown);
        }
    }
}
