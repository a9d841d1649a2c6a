//! Property-based tests over the core data structures and invariants.
//!
//! The harness is a deterministic seed sweep: every property runs over a
//! fixed number of pseudo-random cases drawn from `gen::XorShift64`, so
//! failures are reproducible from the printed case seed alone (no external
//! property-testing framework — the build must work fully offline).

use cg_lookahead::cg::recurrence::identities;
use cg_lookahead::cg::standard::StandardCg;
use cg_lookahead::cg::{CgVariant, SolveOptions};
use cg_lookahead::linalg::kernels;
use cg_lookahead::linalg::{gen, CooMatrix, DenseMatrix};
use cg_lookahead::par::reduce;
use cg_lookahead::par::team::{dispatch_width, GRAIN};
use cg_lookahead::poly::{Monomial, MultiPoly};
use gen::XorShift64;

/// Run `prop` over `cases` deterministic seeds; panics carry the case seed.
fn check(cases: u64, prop: impl Fn(&mut XorShift64) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case + 1) | 1;
        let result = std::panic::catch_unwind(|| {
            let mut rng = XorShift64::new(seed);
            prop(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed at case {case} (rng seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn small_vec(rng: &mut XorShift64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.range_f64(-100.0, 100.0)).collect()
}

// ---------- kernels ----------

#[test]
fn tree_dot_close_to_serial() {
    check(64, |rng| {
        let x = small_vec(rng, 257);
        let y = small_vec(rng, 257);
        let s = kernels::dot_serial(&x, &y);
        let t = kernels::dot(kernels::DotMode::Tree, &x, &y);
        let scale = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum::<f64>();
        assert!((s - t).abs() <= 1e-10 * (1.0 + scale));
    });
}

#[test]
fn par_dot_is_thread_invariant() {
    // long enough that width 3 and width 7 each dispatch that many shards
    let n = 7 * GRAIN + 1000;
    assert_eq!(dispatch_width(n, 3), 3);
    assert_eq!(dispatch_width(n, 7), 7);
    check(16, |rng| {
        let x = small_vec(rng, n);
        let d1 = reduce::par_dot_in(None, &x, &x);
        let d3 = reduce::par_dot_in(Some(&Team::new(3)), &x, &x);
        let d7 = reduce::par_dot_in(Some(&Team::new(7)), &x, &x);
        assert_eq!(d1.to_bits(), d3.to_bits());
        assert_eq!(d1.to_bits(), d7.to_bits());
    });
}

#[test]
fn axpy_then_inverse_restores() {
    check(64, |rng| {
        let a = rng.range_f64(-10.0, 10.0);
        let x = small_vec(rng, 64);
        let mut y = vec![1.0; 64];
        let y0 = y.clone();
        kernels::axpy(a, &x, &mut y);
        kernels::axpy(-a, &x, &mut y);
        for (yi, y0i) in y.iter().zip(&y0) {
            assert!((yi - y0i).abs() <= 1e-9 * (1.0 + a.abs() * 100.0));
        }
    });
}

#[test]
fn norm_triangle_inequality() {
    check(64, |rng| {
        let x = small_vec(rng, 50);
        let y = small_vec(rng, 50);
        let mut s = vec![0.0; 50];
        kernels::add(&x, &y, &mut s);
        assert!(kernels::norm2(&s) <= kernels::norm2(&x) + kernels::norm2(&y) + 1e-9);
    });
}

#[test]
fn cauchy_schwarz() {
    check(64, |rng| {
        let x = small_vec(rng, 40);
        let y = small_vec(rng, 40);
        let d = kernels::dot_serial(&x, &y).abs();
        assert!(d <= kernels::norm2(&x) * kernels::norm2(&y) * (1.0 + 1e-12) + 1e-9);
    });
}

// ---------- sparse matrices ----------

#[test]
fn coo_to_csr_preserves_matvec() {
    check(64, |rng| {
        let ntrip = rng.below(60);
        let mut coo = CooMatrix::new(12, 12);
        let mut dense = vec![vec![0.0; 12]; 12];
        for _ in 0..ntrip {
            let (r, c) = (rng.below(12), rng.below(12));
            let v = rng.range_f64(-5.0, 5.0);
            coo.push(r, c, v).unwrap();
            dense[r][c] += v;
        }
        let x = small_vec(rng, 12);
        let csr = coo.to_csr();
        let y_sparse = csr.spmv(&x);
        let d = DenseMatrix::from_rows(&dense).unwrap();
        let y_dense = d.matvec(&x);
        for (a, b) in y_sparse.iter().zip(&y_dense) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }
    });
}

#[test]
fn transpose_transpose_identity() {
    check(64, |rng| {
        let ntrip = rng.below(50);
        let mut coo = CooMatrix::new(10, 14);
        for _ in 0..ntrip {
            let (r, c) = (rng.below(10), rng.below(14));
            coo.push(r, c, rng.range_f64(-5.0, 5.0)).unwrap();
        }
        let a = coo.to_csr();
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn spmv_linearity() {
    check(64, |rng| {
        let seed = rng.next_u64() % 5000;
        let alpha = rng.range_f64(-3.0, 3.0);
        let a = gen::rand_spd(20, 3, 1.0, seed);
        let x = gen::rand_vector(20, seed.wrapping_add(1));
        let y = gen::rand_vector(20, seed.wrapping_add(2));
        // A(αx + y) == αAx + Ay
        let mut xy = vec![0.0; 20];
        for i in 0..20 {
            xy[i] = alpha * x[i] + y[i];
        }
        let lhs = a.spmv(&xy);
        let ax = a.spmv(&x);
        let ay = a.spmv(&y);
        for i in 0..20 {
            let rhs = alpha * ax[i] + ay[i];
            assert!((lhs[i] - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
        }
    });
}

#[test]
fn spd_quadratic_form_positive() {
    check(64, |rng| {
        let seed = rng.next_u64() % 5000;
        let a = gen::rand_spd(25, 4, 1.0, seed);
        let x = gen::rand_vector(25, seed.wrapping_add(7));
        if kernels::norm2(&x) > 1e-6 {
            let ax = a.spmv(&x);
            assert!(kernels::dot_serial(&x, &ax) > 0.0);
        }
    });
}

// ---------- polynomials ----------

#[test]
fn mpoly_mul_commutes_and_matches_eval() {
    check(64, |rng| {
        let e1: Vec<u32> = (0..2).map(|_| rng.below(3) as u32).collect();
        let e2: Vec<u32> = (0..2).map(|_| rng.below(3) as u32).collect();
        let c1 = rng.below(10) as i64 - 5;
        let c2 = rng.below(10) as i64 - 5;
        let x = rng.range_f64(-2.0, 2.0);
        let y = rng.range_f64(-2.0, 2.0);
        let mut p = MultiPoly::zero(2);
        p.add_term(Monomial::from_exps(e1), c1);
        let mut q = MultiPoly::zero(2);
        q.add_term(Monomial::from_exps(e2), c2);
        let pq = &p * &q;
        let qp = &q * &p;
        assert_eq!(&pq, &qp);
        let pt = [x, y];
        assert!(
            (pq.eval(&pt) - p.eval(&pt) * q.eval(&pt)).abs() <= 1e-9 * (1.0 + pq.eval(&pt).abs())
        );
    });
}

#[test]
fn mpoly_distributive() {
    check(64, |rng| {
        let ca = rng.below(8) as i64 - 4;
        let cb = rng.below(8) as i64 - 4;
        let cc = rng.below(8) as i64 - 4;
        let x = MultiPoly::var(2, 0);
        let y = MultiPoly::var(2, 1);
        let a = x.scale(ca);
        let b = y.scale(cb);
        let c = (&x * &y).scale(cc);
        let lhs = &a * &(&b + &c);
        let rhs = &(&a * &b) + &(&a * &c);
        assert_eq!(lhs, rhs);
    });
}

// ---------- recurrence identities under arbitrary steps ----------

#[test]
fn rr_general_identity_for_any_lambda() {
    check(64, |rng| {
        let seed = rng.next_u64() % 3000;
        let lambda = rng.range_f64(-3.0, 3.0);
        let a = gen::rand_spd(15, 3, 1.0, seed);
        let r = gen::rand_vector(15, seed.wrapping_add(3));
        let p = gen::rand_vector(15, seed.wrapping_add(4));
        let w = a.spmv(&p);
        let mut r2 = r.clone();
        kernels::axpy(-lambda, &w, &mut r2);
        let direct = kernels::dot_serial(&r2, &r2);
        let rec = identities::rr_general(
            kernels::dot_serial(&r, &r),
            kernels::dot_serial(&r, &w),
            kernels::dot_serial(&w, &w),
            lambda,
        );
        assert!((rec - direct).abs() <= 1e-8 * (1.0 + direct));
    });
}

// ---------- end-to-end on random SPD systems ----------

#[test]
fn standard_cg_solves_random_spd() {
    check(48, |rng| {
        let seed = rng.next_u64() % 2000;
        let n = 24;
        let a = gen::rand_spd(n, 4, 1.5, seed);
        let b = gen::rand_vector(n, seed.wrapping_add(9));
        let res = StandardCg::new().solve(
            &a,
            &b,
            None,
            &SolveOptions::default()
                .with_tol(1e-9)
                .with_max_iters(10 * n),
        );
        assert!(res.converged);
        assert!(res.true_residual(&a, &b) <= 1e-6 * (1.0 + kernels::norm2(&b)));
    });
}

// ---------- second wave: I/O, reordering, spectra, scheduling ----------

use cg_lookahead::linalg::eig;
use cg_lookahead::linalg::io;
use cg_lookahead::linalg::reorder;
use cg_lookahead::sim::{ListScheduler, MachineModel, OpKind, TaskGraph};

#[test]
fn matrix_market_roundtrip_exact() {
    check(48, |rng| {
        let ntrip = 1 + rng.below(39);
        let mut coo = CooMatrix::new(9, 9);
        for _ in 0..ntrip {
            let (r, c) = (rng.below(9), rng.below(9));
            coo.push(r, c, rng.range_f64(-9.0, 9.0)).unwrap();
        }
        let a = coo.to_csr();
        let mut buf = Vec::new();
        io::write_matrix_market(&a, &mut buf).unwrap();
        let b = io::read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    });
}

#[test]
fn vector_file_roundtrip_exact() {
    check(48, |rng| {
        let len = rng.below(50);
        let x: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e12, 1e12)).collect();
        let mut buf = Vec::new();
        io::write_vector(&x, &mut buf).unwrap();
        let y = io::read_vector(&buf[..]).unwrap();
        assert_eq!(x, y);
    });
}

#[test]
fn rcm_always_yields_valid_permutation() {
    check(48, |rng| {
        let seed = rng.next_u64() % 5000;
        let a = gen::rand_spd(30, 4, 1.0, seed);
        let p = reorder::reverse_cuthill_mckee(&a);
        let mut idx = p.new_to_old().to_vec();
        idx.sort_unstable();
        assert_eq!(idx, (0..30).collect::<Vec<_>>());
        // two-sided application preserves symmetry and diagonal multiset
        let b = p.apply_matrix(&a);
        assert!(b.is_symmetric(1e-12));
        let mut da = a.diagonal();
        let mut db = b.diagonal();
        da.sort_by(f64::total_cmp);
        db.sort_by(f64::total_cmp);
        for (x, y) in da.iter().zip(&db) {
            assert!((x - y).abs() < 1e-12);
        }
    });
}

#[test]
fn permutation_apply_unapply_inverse() {
    check(48, |rng| {
        let seed = (rng.next_u64() % 5000).max(1);
        let n = 25;
        let mut prng = XorShift64::new(seed);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = prng.below(i + 1);
            idx.swap(i, j);
        }
        let p = reorder::Permutation::from_vec(idx);
        let x = gen::rand_vector(n, seed.wrapping_add(1));
        let y = p.unapply_vec(&p.apply_vec(&x));
        assert_eq!(x, y);
    });
}

#[test]
fn lanczos_bounds_inside_gershgorin() {
    check(48, |rng| {
        let seed = rng.next_u64() % 3000;
        let m = 3 + rng.below(17);
        let a = gen::rand_spd(24, 3, 1.0, seed);
        let b = eig::estimate_spectrum(&a, m, seed.wrapping_add(5));
        assert!(
            b.lambda_min > 0.0,
            "SPD spectrum positive: {}",
            b.lambda_min
        );
        assert!(b.lambda_max <= a.gershgorin_bound() + 1e-9);
        assert!(b.lambda_min <= b.lambda_max);
    });
}

/// Random layered DAGs: scheduling invariants hold for any budget.
#[test]
fn scheduler_invariants_on_random_dags() {
    check(48, |rng| {
        let layers = 2 + rng.below(4);
        let width = 1 + rng.below(4);
        let procs = 1 + rng.below(1999);
        let mut g = TaskGraph::new();
        let src = g.add(OpKind::Source, "src", None, &[]);
        let mut prev_layer = vec![src];
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                // each node depends on 1-2 nodes of the previous layer
                let mut deps = vec![prev_layer[rng.below(prev_layer.len())]];
                if prev_layer.len() > 1 && rng.next_f64() < 0.5 {
                    deps.push(prev_layer[rng.below(prev_layer.len())]);
                }
                let kind = match rng.below(4) {
                    0 => OpKind::Elementwise {
                        n: 64 + rng.below(512),
                    },
                    1 => OpKind::Dot {
                        n: 64 + rng.below(512),
                    },
                    2 => OpKind::Scalar,
                    _ => OpKind::SpMv {
                        n: 32 + rng.below(128),
                        d: 3 + rng.below(8),
                    },
                };
                layer.push(g.add(kind, format!("n{l}-{w}"), Some(l), &deps));
            }
            prev_layer = layer;
        }

        let m = MachineModel::pram();
        let r = ListScheduler::new(procs).run(&g, &m);
        // (1) dependencies respected
        for (id, node) in g.nodes() {
            for d in &node.deps {
                assert!(
                    r.times[id.0].0 + 1e-9 >= r.times[d.0].1,
                    "node {id:?} starts before dep {d:?}"
                );
            }
        }
        // (2) utilization within [0, 1]
        assert!(r.utilization >= 0.0 && r.utilization <= 1.0 + 1e-9);
        // (3) makespan ≥ both lower bounds
        let work = g.total_work(&m);
        assert!(r.makespan + 1e-6 >= work / procs as f64);
        assert!(r.makespan + 1e-6 >= g.makespan(&m));
        // (4) waiting non-negative
        assert!(r.total_wait >= -1e-9);
    });
}

#[test]
fn moment_window_step_is_exact_algebra() {
    check(48, |rng| {
        use cg_lookahead::cg::recurrence::moments::MomentWindow;
        let seed = rng.next_u64() % 2000;
        let lambda = rng.range_f64(0.01, 2.0);
        let alpha = rng.range_f64(0.0, 2.0);
        // arbitrary (non-CG) lambda/alpha: the window update must still
        // track the actual vector updates, because it is pure algebra
        let a = gen::rand_spd(16, 3, 1.5, seed);
        let r = gen::rand_vector(16, seed.wrapping_add(1));
        let p = gen::rand_vector(16, seed.wrapping_add(2));
        let k = 1;
        let fam = |r: &[f64], p: &[f64]| {
            let mut z = vec![r.to_vec()];
            z.push(a.spmv(&z[0]));
            let mut w = vec![p.to_vec()];
            w.push(a.spmv(&w[0]));
            let next = a.spmv(&w[1]);
            w.push(next);
            (z, w)
        };
        let (z, w) = fam(&r, &p);
        let (mut win, _) = MomentWindow::direct(&z, &w, 2 * k, kernels::dot_serial);
        let mu_new = win.mu_step(lambda);
        win.finish_step(mu_new, lambda, alpha);

        // actual updates with the same parameters
        let ap = a.spmv(&p);
        let mut r2 = r.clone();
        kernels::axpy(-lambda, &ap, &mut r2);
        let mut p2 = r2.clone();
        kernels::axpy(alpha, &p, &mut p2);
        let (z2, w2) = fam(&r2, &p2);
        let (win2, _) = MomentWindow::direct(&z2, &w2, 2 * k, kernels::dot_serial);
        for i in 0..=2 * k {
            assert!(
                (win.mu[i] - win2.mu[i]).abs() <= 1e-7 * (1.0 + win2.mu[i].abs()),
                "mu[{}]: {} vs {}",
                i,
                win.mu[i],
                win2.mu[i]
            );
        }
        assert!((win.sigma[0] - win2.sigma[0]).abs() <= 1e-7 * (1.0 + win2.sigma[0].abs()));
    });
}

#[test]
fn batched_dots_equal_tree_dots() {
    check(48, |rng| {
        let seed = (rng.next_u64() % 3000).max(1);
        let len = 1 + rng.below(2999);
        let x = gen::rand_vector(len, seed);
        let y = gen::rand_vector(len, seed.wrapping_add(9));
        // shared-sweep dot pairs, the batched reduction the solvers launch
        let team = cg_lookahead::par::shared_team(4);
        let (xy, _) = fused::par_dot2_in(Some(&team), &x, &y, &x);
        let (yx, _) = fused::par_dot2_in(Some(&team), &y, &x, &y);
        let d = reduce::par_dot_in(None, &x, &y);
        assert_eq!(xy.to_bits(), d.to_bits());
        assert_eq!(yx.to_bits(), d.to_bits()); // commutative products
    });
}

// ---------- third wave: resilience ----------

use cg_lookahead::cg::baselines::chronopoulos_gear::ChronopoulosGearCg;
use cg_lookahead::cg::baselines::pipelined::PipelinedCg;
use cg_lookahead::cg::baselines::three_term::ThreeTermCg;
use cg_lookahead::cg::lookahead::LookaheadCg;
use cg_lookahead::cg::overlap_k1::OverlapK1Cg;
use cg_lookahead::cg::resilience::{FaultKind, RecoveryPolicy, SeededInjector, SingleFault};
use cg_lookahead::cg::sstep::SStepCg;

fn all_variants() -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(StandardCg::new()),
        Box::new(OverlapK1Cg::new()),
        Box::new(LookaheadCg::new(2)),
        Box::new(LookaheadCg::new(4)),
        Box::new(SStepCg::monomial(3)),
        Box::new(ThreeTermCg::new()),
        Box::new(ChronopoulosGearCg::new()),
        Box::new(PipelinedCg::new()),
    ]
}

/// Random symmetric matrices that violate CG's contract: indefinite
/// tridiagonal Toeplitz (|diag| < 2|off|) or a singular diagonal (some
/// zero pivots, possibly with mixed signs).
fn nasty_matrix(rng: &mut XorShift64, n: usize) -> cg_lookahead::linalg::CsrMatrix {
    if rng.below(2) == 0 {
        let off = rng.range_f64(0.5, 2.0);
        let diag = rng.range_f64(-1.0, 1.0) * off; // |diag| < 2|off| → indefinite
        gen::tridiag_toeplitz(n, diag, -off)
    } else {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let d = match rng.below(4) {
                0 => 0.0, // singular pivot
                1 => -rng.range_f64(0.1, 3.0),
                _ => rng.range_f64(0.1, 3.0),
            };
            if d != 0.0 {
                coo.push(i, i, d).unwrap();
            }
        }
        coo.to_csr()
    }
}

#[test]
fn nasty_matrices_terminate_honestly_for_every_variant() {
    // indefinite or singular systems defeat CG — what matters is that no
    // variant lies: it may stop with Breakdown / Stagnated / Diverged /
    // MaxIterations, but a claimed convergence must be a real solution
    check(16, |rng| {
        let n = 16 + rng.below(17);
        let a = nasty_matrix(rng, n);
        let b = gen::rand_vector(n, rng.next_u64() % 4000);
        let bnorm = kernels::norm2(&b);
        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);
        for v in all_variants() {
            let res = v.solve(&a, &b, None, &opts);
            assert!(res.iterations <= 300, "{}: runaway iterations", v.name());
            if res.converged {
                let rel = res.true_residual(&a, &b) / bnorm.max(1e-300);
                assert!(
                    rel < 1e-5,
                    "{}: claimed convergence with rel true residual {rel}",
                    v.name()
                );
            }
        }
    });
}

#[test]
fn nasty_matrices_with_recovery_ladder_stay_honest() {
    // same honesty property with the full recovery machinery switched on:
    // the ladder may burn its restart budget, but must never fake success
    check(12, |rng| {
        let n = 16 + rng.below(17);
        let a = nasty_matrix(rng, n);
        let b = gen::rand_vector(n, rng.next_u64() % 4000);
        let bnorm = kernels::norm2(&b);
        let opts = SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(400)
            .with_recovery(RecoveryPolicy::default().with_max_restarts(3));
        for v in [
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
            Box::new(LookaheadCg::new(3)),
            Box::new(SStepCg::monomial(2)),
        ] {
            let res =
                cg_lookahead::cg::resilience::solve_with_recovery(v.as_ref(), &a, &b, None, &opts);
            if res.converged {
                let rel = res.true_residual(&a, &b) / bnorm.max(1e-300);
                assert!(
                    rel < 1e-5,
                    "{}: recovered to a wrong answer, rel {rel}",
                    v.name()
                );
            }
        }
    });
}

#[test]
fn spd_solve_survives_single_fault_with_recovery() {
    // one random upset (random kind, random strike time) against an SPD
    // solve under the default recovery policy: must still converge to the
    // true solution
    check(24, |rng| {
        let seed = rng.next_u64() % 2000;
        let n = 24;
        let a = gen::rand_spd(n, 4, 1.5, seed);
        let b = gen::rand_vector(n, seed.wrapping_add(9));
        let kind = match rng.below(4) {
            0 => FaultKind::Nan,
            1 => FaultKind::Inf,
            2 => FaultKind::Perturb(1.0),
            _ => FaultKind::Drop,
        };
        let at_call = rng.next_u64() % 30_000;
        let inj = std::sync::Arc::new(SingleFault::new(at_call, kind));
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(2000)
            .with_injector(inj)
            .with_recovery(RecoveryPolicy::default());
        for v in [
            Box::new(StandardCg::new()) as Box<dyn CgVariant>,
            Box::new(LookaheadCg::new(2)),
        ] {
            let res =
                cg_lookahead::cg::resilience::solve_with_recovery(v.as_ref(), &a, &b, None, &opts);
            assert!(
                res.converged,
                "{} under {kind:?}@{at_call}: {:?}",
                v.name(),
                res.termination
            );
            assert!(
                res.true_residual(&a, &b) <= 1e-6 * (1.0 + kernels::norm2(&b)),
                "{} under {kind:?}@{at_call}: bad solution",
                v.name()
            );
        }
    });
}

// ---------- fourth wave: fused single-pass kernels ----------

use cg_lookahead::linalg::fused;
use cg_lookahead::linalg::kernels::DotMode as FusedDotMode;
use cg_lookahead::par::fault::FaultInjector as _;

const FUSED_MODES: [FusedDotMode; 2] = [FusedDotMode::Serial, FusedDotMode::Tree];

/// The fused `update_xr` in `mode`: the serial kernel for Serial, the team
/// kernel on the calling thread for Tree.
fn fused_update_xr(
    mode: FusedDotMode,
    lambda: f64,
    p: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> f64 {
    match mode {
        FusedDotMode::Tree => fused::par_update_xr_in(None, lambda, p, w, x, r),
        FusedDotMode::Serial => fused::update_xr(lambda, p, w, x, r),
    }
}

#[test]
fn fused_kernels_are_total_and_finite_preserving() {
    // any finite bounded input, any mode, any length: every fused kernel
    // returns a finite scalar and leaves only finite values in its output
    check(32, |rng| {
        let n = 1 + rng.below(700);
        let p = small_vec(rng, n);
        let w = small_vec(rng, n);
        let z = small_vec(rng, n);
        let lambda = rng.range_f64(-3.0, 3.0);
        for mode in FUSED_MODES {
            let mut x = small_vec(rng, n);
            let mut r = small_vec(rng, n);
            let rr = fused_update_xr(mode, lambda, &p, &w, &mut x, &mut r);
            assert!(rr.is_finite());
            assert!(x.iter().chain(r.iter()).all(|v| v.is_finite()));

            let mut y = small_vec(rng, n);
            let (yz, yy, (d1, d2)) = if mode == FusedDotMode::Tree {
                (
                    fused::par_axpy_dot_in(None, lambda, &p, &mut y, &z),
                    fused::par_axpy_norm2_sq_in(None, lambda, &w, &mut y),
                    fused::par_dot2_in(None, &p, &w, &z),
                )
            } else {
                (
                    fused::axpy_dot(lambda, &p, &mut y, &z),
                    fused::axpy_norm2_sq(lambda, &w, &mut y),
                    fused::dot2(&p, &w, &z),
                )
            };
            assert!(yz.is_finite() && yy.is_finite());
            assert!(y.iter().all(|v| v.is_finite()));
            assert!(d1.is_finite() && d2.is_finite());
        }
    });
}

#[test]
fn update_xr_return_equals_dot_of_output_residual() {
    // the scalar a fused update_xr hands back is exactly (r,r) of the
    // residual it just wrote — same mode, same bits
    check(32, |rng| {
        let n = 1 + rng.below(500);
        let p = small_vec(rng, n);
        let w = small_vec(rng, n);
        let lambda = rng.range_f64(-2.0, 2.0);
        for mode in FUSED_MODES {
            let mut x = small_vec(rng, n);
            let mut r = small_vec(rng, n);
            let rr = fused_update_xr(mode, lambda, &p, &w, &mut x, &mut r);
            assert_eq!(rr.to_bits(), kernels::dot(mode, &r, &r).to_bits());
        }
    });
}

#[test]
fn par_fused_fault_injection_is_seed_reproducible_and_thread_invariant() {
    // faults routed through the par_*_with_in entry points must hit the fused
    // reduction sites (nonzero injected count at this rate), and the whole
    // corrupted computation must replay bit-for-bit from the seed alone,
    // independent of thread count
    check(12, |rng| {
        let seed = rng.next_u64();
        // long enough that width 4 dispatches four shards
        let n = 4 * GRAIN + rng.below(2048);
        assert_eq!(dispatch_width(n, 4), 4);
        let p = small_vec(rng, n);
        let w = small_vec(rng, n);
        let x0 = small_vec(rng, n);
        let r0 = small_vec(rng, n);
        let z = small_vec(rng, n);
        let run = |threads: usize| {
            let team = (threads > 1).then(|| Team::new(threads));
            let t = team.as_ref();
            let inj = SeededInjector::new(seed, 0.05, FaultKind::Perturb(0.5));
            let mut x = x0.clone();
            let mut r = r0.clone();
            let rr = fused::par_update_xr_with_in(t, 0.3, &p, &w, &mut x, &mut r, &inj);
            let pair = fused::par_dot2_with_in(t, &r, &p, &z, &inj);
            (rr, pair, inj.injected(), x, r)
        };
        let (rr1, pair1, hits1, x1, r1) = run(1);
        for threads in [1usize, 4] {
            let (rr2, pair2, hits2, x2, r2) = run(threads);
            assert_eq!(rr1.to_bits(), rr2.to_bits(), "threads={threads}");
            assert_eq!(pair1.0.to_bits(), pair2.0.to_bits(), "threads={threads}");
            assert_eq!(pair1.1.to_bits(), pair2.1.to_bits(), "threads={threads}");
            assert_eq!(hits1, hits2, "threads={threads}");
            assert_eq!(x1, x2, "threads={threads}");
            assert_eq!(r1, r2, "threads={threads}");
        }
        assert!(hits1 > 0, "faults never reached the fused reduction sites");
    });
}

#[test]
fn injected_rates_reproduce_exactly_per_seed() {
    // the whole subsystem leans on injector determinism: two solves with
    // the same seed must agree bit-for-bit in iterates and fault counts
    check(12, |rng| {
        let seed = rng.next_u64();
        let a = gen::poisson2d(8);
        let b = gen::poisson2d_rhs(8);
        let run = || {
            let inj = std::sync::Arc::new(SeededInjector::new(seed, 1e-3, FaultKind::Nan));
            let opts = SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(500)
                .with_injector(inj)
                .with_recovery(RecoveryPolicy::default());
            StandardCg::new().solve(&a, &b, None, &opts)
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.termination, r2.termination);
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.recovery, r2.recovery);
        for (x1, x2) in r1.x.iter().zip(&r2.x) {
            assert_eq!(x1.to_bits(), x2.to_bits());
        }
    });
}

// ---------- fifth wave: persistent team runtime ----------

use cg_lookahead::cg::OpCounts;
use cg_lookahead::par::{PendingScalar, Team};

#[test]
fn team_reductions_bits_invariant_across_widths() {
    // the team decides who computes which chunk leaves, never the leaf
    // layout or the fan-in order — so any width, including the degenerate
    // no-team path, produces the same bits. n spans the dispatch grain so
    // multi-shard epochs genuinely run.
    check(6, |rng| {
        let n = 20_000 + rng.below(20_000);
        let x = small_vec(rng, n);
        let y = small_vec(rng, n);
        let d0 = reduce::par_dot_in(None, &x, &y);
        let s0 = reduce::par_dot_in(None, &x, &x);
        for width in [2usize, 4, 8] {
            let team = Team::new(width);
            let d = reduce::par_dot_in(Some(&team), &x, &y);
            let s = reduce::par_dot_in(Some(&team), &x, &x);
            assert_eq!(d0.to_bits(), d.to_bits(), "dot width {width}");
            assert_eq!(s0.to_bits(), s.to_bits(), "norm2 width {width}");
        }
    });
}

#[test]
fn team_fused_sweeps_bits_invariant_across_widths() {
    // fused sweep kernels on a team: outputs are exact per element and the
    // carried reductions use the fixed chunk tree, so vectors and scalars
    // both match the width-1 run bit for bit
    check(6, |rng| {
        let n = 20_000 + rng.below(10_000);
        let p = small_vec(rng, n);
        let w = small_vec(rng, n);
        let z = small_vec(rng, n);
        let lambda = rng.range_f64(-2.0, 2.0);
        let mut y0 = small_vec(rng, n);
        let y_init = y0.clone();
        let d0 = fused::par_axpy_dot_in(None, lambda, &p, &mut y0, &z);
        let (u0, v0) = fused::par_dot2_in(None, &w, &p, &z);
        for width in [2usize, 4] {
            let team = Team::new(width);
            let mut y = y_init.clone();
            let d = fused::par_axpy_dot_in(Some(&team), lambda, &p, &mut y, &z);
            let (u, v) = fused::par_dot2_in(Some(&team), &w, &p, &z);
            assert_eq!(d0.to_bits(), d.to_bits(), "axpy_dot width {width}");
            assert_eq!(y0, y, "axpy output width {width}");
            assert_eq!(u0.to_bits(), u.to_bits(), "dot2.0 width {width}");
            assert_eq!(v0.to_bits(), v.to_bits(), "dot2.1 width {width}");
        }
    });
}

#[test]
fn deferred_dot2_matches_eager_bits() {
    // the split-phase launch path (partials now, tree fan-in at the
    // consume point) must be indistinguishable in value from the eager
    // fused reduction it replaces
    check(8, |rng| {
        let n = 12_000 + rng.below(24_000);
        let x = small_vec(rng, n);
        let y = small_vec(rng, n);
        let z = small_vec(rng, n);
        for threads in [1usize, 4] {
            let opts = SolveOptions::default()
                .with_dot_mode(FusedDotMode::Tree)
                .with_threads(threads);
            let mut counts = OpCounts::default();
            let (a_eager, b_eager) = opts.dot2(&x, &y, &z, &mut counts);
            let (pa, pb) = opts.dot2_deferred(&x, &y, &z, &mut counts);
            assert_eq!(a_eager.to_bits(), pa.wait().to_bits(), "t={threads}");
            assert_eq!(b_eager.to_bits(), pb.wait().to_bits(), "t={threads}");
        }
    });
}

#[test]
fn deferred_pending_scalar_resolves_tree_combine_of_partials() {
    // PendingScalar::deferred(partials) is the team's launch handle: its
    // wait() must equal the one-shot team reduction over the same data
    check(8, |rng| {
        let n = 9_000 + rng.below(30_000);
        let x = small_vec(rng, n);
        let y = small_vec(rng, n);
        let team = Team::new(4);
        let partials = reduce::par_dot_partials_in(Some(&team), &x, &y).expect("healthy team");
        let pending = PendingScalar::deferred(partials);
        let expect = reduce::par_dot_in(None, &x, &y);
        assert_eq!(expect.to_bits(), pending.wait().to_bits());
    });
}

#[test]
fn poisoned_team_reductions_return_nan_at_any_width() {
    // a poisoned team must never return a plausible-but-wrong number: the
    // kernel wrappers overwrite with NaN so solver guards break down
    check(3, |rng| {
        let n = 4 + rng.below(40_000);
        let x = small_vec(rng, n);
        for width in [1usize, 2, 4] {
            let team = Team::new(width);
            let _ = team.try_run(&|_| panic!("injected shard abort"));
            assert!(team.is_poisoned(), "width {width}");
            assert!(reduce::par_dot_in(Some(&team), &x, &x).is_nan());
            let mut y = x.clone();
            assert!(fused::par_axpy_dot_in(Some(&team), 0.5, &x, &mut y, &x).is_nan());
        }
    });
}

// ---------- sixth wave: matrix-powers kernel ----------

use cg_lookahead::cg::sstep::basis::{self, BasisKind, BasisParams, KrylovBasis};
use cg_lookahead::linalg::mpk::{self, MpkTransform, MpkWorkspace, NaivePowers};
use cg_lookahead::linalg::stencil::{Stencil2d, Stencil3d};
use cg_lookahead::linalg::LinearOperator;

fn fbits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn mpk_stencil_powers_bit_match_naive_for_any_tile_width_and_basis() {
    // cache-blocked trapezoidal sweeps recompute ghost zones redundantly,
    // so whatever the tile size (including degenerate ones) or team width,
    // the basis must be BIT-identical to s naive repeated applies — for
    // all three basis transforms and both stencil dimensions. Sizes span
    // the dispatch grain so team runs genuinely shard.
    check(4, |rng| {
        let s = 2 + rng.below(4);
        let ops: Vec<Box<dyn LinearOperator>> = vec![
            Box::new(Stencil2d::poisson(40 + rng.below(100))),
            Box::new(Stencil3d::new(8 + rng.below(18))),
        ];
        for a in &ops {
            let n = a.dim();
            let r = small_vec(rng, n);
            let mut counts = OpCounts::default();
            for kind in [BasisKind::Monomial, BasisKind::Newton, BasisKind::Chebyshev] {
                let params = BasisParams::estimate(kind, a.as_ref(), s, &mut counts);
                let mut ws = MpkWorkspace::new();
                let mut naive = KrylovBasis::default();
                basis::build_into(
                    &NaivePowers(a.as_ref()),
                    &r,
                    s,
                    &params,
                    None,
                    None,
                    &mut ws,
                    &mut naive,
                    &mut counts,
                );
                // random explicit tile and the auto heuristic (None)
                for tile in [Some(1 + rng.below(n)), None] {
                    for width in [1usize, 2, 4] {
                        let team = (width > 1).then(|| Team::new(width));
                        let mut out = KrylovBasis::default();
                        basis::build_into(
                            a.as_ref(),
                            &r,
                            s,
                            &params,
                            team.as_ref(),
                            tile,
                            &mut ws,
                            &mut out,
                            &mut counts,
                        );
                        for l in 0..s {
                            let ctx = format!(
                                "{kind:?} n={n} s={s} level={l} tile={tile:?} width={width}"
                            );
                            assert_eq!(fbits(&naive.v[l]), fbits(&out.v[l]), "{ctx}: v");
                            assert_eq!(fbits(&naive.av[l]), fbits(&out.av[l]), "{ctx}: av");
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn mpk_csr_halo_expansion_bit_matches_naive_on_random_sparsity() {
    // the CSR plan walks dependencies backwards from each row tile,
    // expanding the halo level by level; any sparsity pattern — including
    // empty rows, which contribute no dependencies at all — must give the
    // exact bits of the unblocked sweep. Explicit tiles force the tiled
    // path even when the profitability heuristic would decline.
    check(8, |rng| {
        let n = 30 + rng.below(170);
        let mut rows = vec![vec![0.0; n]; n];
        for row in rows.iter_mut() {
            if rng.below(8) == 0 {
                continue; // empty row
            }
            for _ in 0..(1 + rng.below(6)) {
                let j = rng.below(n);
                row[j] = rng.range_f64(-2.0, 2.0);
            }
        }
        let a = cg_lookahead::linalg::CsrMatrix::from_dense(&rows, 0.0);
        let s = 2 + rng.below(4);
        let r = small_vec(rng, n);
        let shifts = small_vec(rng, s.max(2) - 1);
        let scales: Vec<f64> = (0..s.max(2) - 1)
            .map(|_| f64::exp2(rng.below(7) as f64 - 3.0))
            .collect();
        let transforms = [
            MpkTransform::Monomial,
            MpkTransform::Newton {
                shifts: &shifts,
                scales: &scales,
            },
            MpkTransform::Newton {
                shifts: &[],
                scales: &[],
            },
            MpkTransform::Chebyshev {
                center: rng.range_f64(0.5, 4.0),
                half_width: rng.range_f64(0.25, 2.0),
            },
        ];
        for transform in &transforms {
            let mut v1 = vec![vec![0.0; n]; s];
            let mut av1 = vec![vec![0.0; n]; s];
            v1[0].copy_from_slice(&r);
            mpk::naive_powers(&a, transform, &mut v1, &mut av1, None);
            for tile in [1 + rng.below(n), 1 + rng.below(8)] {
                let mut ws = MpkWorkspace::new();
                let mut v2 = vec![vec![0.0; n]; s];
                let mut av2 = vec![vec![0.0; n]; s];
                v2[0].copy_from_slice(&r);
                a.matrix_powers(transform, &mut v2, &mut av2, None, Some(tile), &mut ws);
                for l in 0..s {
                    let ctx = format!("n={n} s={s} level={l} tile={tile}");
                    assert_eq!(fbits(&v1[l]), fbits(&v2[l]), "{ctx}: v");
                    assert_eq!(fbits(&av1[l]), fbits(&av2[l]), "{ctx}: av");
                }
            }
        }
    });
}

// ---------- seventh wave: self-healing runtime under concurrent faults ----------

use cg_lookahead::par::fault::FaultSite;

#[test]
fn concurrent_shard_faults_recover_bit_reproducibly_across_widths() {
    // Multiple leaf partials corrupted in the SAME reduction epoch — at a
    // 256-leaf layout and 1% per-leaf rate, most faulty dots lose two or
    // more leaves, landing on shards of *different* workers at width > 1.
    // Faults are seeded by injector call order, which the fixed leaf
    // layout makes width-invariant, so the entire recovery trajectory —
    // detections, restarts, checkpoint rollbacks, iteration count, final
    // bits — must be identical for widths 1, 2, and 4.
    use cg_lookahead::linalg::kernels::DotMode;
    use std::sync::Arc;

    check(4, |rng| {
        let seed = rng.next_u64() % 10_000;
        let a = gen::poisson2d(64); // 4096 unknowns
        let b = gen::poisson2d_rhs(64);
        let mk = |width: usize| {
            let o = SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(500)
                .with_dot_mode(DotMode::Tree)
                .with_injector(Arc::new(
                    SeededInjector::new(seed, 0.01, FaultKind::Nan).at_site(FaultSite::DotPartial),
                ))
                .with_recovery(
                    RecoveryPolicy::default()
                        .with_checkpoint_period(8)
                        .with_max_restarts(3),
                );
            if width > 1 {
                o.with_team(Arc::new(Team::new(width)))
            } else {
                o.with_threads(1)
            }
        };
        let base = cg_lookahead::cg::resilience::solve_with_recovery(
            &StandardCg::new(),
            &a,
            &b,
            None,
            &mk(1),
        );
        for width in [2usize, 4] {
            let res = cg_lookahead::cg::resilience::solve_with_recovery(
                &StandardCg::new(),
                &a,
                &b,
                None,
                &mk(width),
            );
            assert_eq!(
                base.termination, res.termination,
                "seed {seed} width {width}"
            );
            assert_eq!(base.iterations, res.iterations, "seed {seed} width {width}");
            assert_eq!(
                base.recovery, res.recovery,
                "seed {seed} width {width}: RecoveryStats must be width-invariant"
            );
            // bit patterns, not values: a solve that breaks down may hand
            // back a NaN iterate, and NaN != NaN even when the bits agree
            assert_eq!(
                fbits(&base.x),
                fbits(&res.x),
                "seed {seed} width {width}: x bits"
            );
            assert_eq!(
                fbits(&base.residual_norms),
                fbits(&res.residual_norms),
                "seed {seed} width {width}: trace bits"
            );
        }
    });
}

// ---------- eighth wave: deep-pipelined and predict-and-recompute ----------

use cg_lookahead::cg::pipelined_deep::DeepPipelinedCg;
use cg_lookahead::cg::predict_recompute::{PipelinedPrCg, PredictRecomputeCg};

#[test]
fn predict_recompute_scalars_track_true_recurrence_on_random_spd() {
    // The recomputed ν = (r,r) and μ = (w,w)-family scalars are predictions
    // corrected one iteration later; on a well-conditioned random SPD
    // system they must stay finite, agree with the exact (standard CG)
    // residual recurrence while the iteration is in its convergent regime,
    // and the claimed solution must be corroborated by the true residual.
    check(12, |rng| {
        let seed = rng.next_u64() % 8000;
        let n = 40 + rng.below(41);
        let a = gen::rand_spd(n, 5, 2.5, seed);
        let b = gen::rand_vector(n, seed.wrapping_add(3));
        let bnorm = kernels::norm2(&b);
        let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(600);
        let exact = StandardCg::new().solve(&a, &b, None, &opts);
        for v in [
            Box::new(PredictRecomputeCg::new()) as Box<dyn CgVariant>,
            Box::new(PipelinedPrCg::new()),
        ] {
            let res = v.solve(&a, &b, None, &opts);
            assert!(
                res.converged,
                "{} seed {seed}: {:?}",
                v.name(),
                res.termination
            );
            for (k, nrm) in res.residual_norms.iter().enumerate() {
                assert!(
                    nrm.is_finite(),
                    "{} seed {seed}: non-finite recomputed norm at {k}",
                    v.name()
                );
            }
            // early iterations (before rounding regimes diverge) must track
            // the exact recurrence to a loose relative tolerance
            let m = exact
                .residual_norms
                .len()
                .min(res.residual_norms.len())
                .min(12);
            for k in 0..m {
                let (e, p) = (exact.residual_norms[k], res.residual_norms[k]);
                assert!(
                    (e - p).abs() <= 1e-3 * (1.0 + e.abs()),
                    "{} seed {seed}: recomputed norm[{k}] {p:e} drifts from exact {e:e}",
                    v.name()
                );
            }
            let rel = res.true_residual(&a, &b) / bnorm.max(1e-300);
            assert!(
                rel < 1e-6,
                "{} seed {seed}: rel true residual {rel:e}",
                v.name()
            );
        }
    });
}

#[test]
fn deep_pipeline_fault_recovery_is_bit_reproducible_across_widths() {
    // Seeded NaN upsets against the depth-2 pipeline's reduction partials:
    // the rollback-refill recovery (restore checkpointed x, recompute the
    // true residual, restart the Lanczos epoch) is seeded by injector call
    // order, which the fixed leaf layout makes width-invariant — so the
    // whole trajectory must be identical at widths 1, 2, and 4.
    use cg_lookahead::linalg::kernels::DotMode;
    use std::sync::Arc;

    check(4, |rng| {
        let seed = rng.next_u64() % 10_000;
        let a = gen::poisson2d(24);
        let b = gen::poisson2d_rhs(24);
        let mk = |width: usize| {
            let o = SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(400)
                .with_dot_mode(DotMode::Tree)
                .with_injector(Arc::new(
                    SeededInjector::new(seed, 0.002, FaultKind::Nan).at_site(FaultSite::DotPartial),
                ))
                .with_recovery(
                    RecoveryPolicy::default()
                        .with_checkpoint_period(8)
                        .with_max_restarts(4),
                );
            if width > 1 {
                o.with_team(Arc::new(Team::new(width)))
            } else {
                o.with_threads(1)
            }
        };
        let solver = DeepPipelinedCg::new(2);
        let base = solver.solve(&a, &b, None, &mk(1));
        for width in [2usize, 4] {
            let res = solver.solve(&a, &b, None, &mk(width));
            assert_eq!(
                base.termination, res.termination,
                "seed {seed} width {width}"
            );
            assert_eq!(base.iterations, res.iterations, "seed {seed} width {width}");
            assert_eq!(
                base.recovery, res.recovery,
                "seed {seed} width {width}: RecoveryStats must be width-invariant"
            );
            assert_eq!(base.x, res.x, "seed {seed} width {width}: x bits");
            assert_eq!(
                base.residual_norms, res.residual_norms,
                "seed {seed} width {width}: trace bits"
            );
        }
    });
}

#[test]
fn new_variants_survive_single_fault_with_checkpoint_rollback() {
    // One random upset (random kind, random strike time) against each of
    // the three new variants with checkpointing on: the internal
    // rollback must round-trip the saved state — the solve still converges
    // and the solution is the true one.
    check(16, |rng| {
        let seed = rng.next_u64() % 2000;
        let n = 36;
        let a = gen::rand_spd(n, 4, 2.0, seed);
        let b = gen::rand_vector(n, seed.wrapping_add(7));
        let kind = match rng.below(3) {
            0 => FaultKind::Nan,
            1 => FaultKind::Inf,
            _ => FaultKind::Perturb(1.0),
        };
        let at_call = rng.next_u64() % 20_000;
        let inj = std::sync::Arc::new(SingleFault::new(at_call, kind));
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(1500)
            .with_injector(inj)
            .with_recovery(
                RecoveryPolicy::default()
                    .with_checkpoint_period(6)
                    .with_max_restarts(4),
            );
        for v in [
            Box::new(DeepPipelinedCg::new(2)) as Box<dyn CgVariant>,
            Box::new(PredictRecomputeCg::new()),
            Box::new(PipelinedPrCg::new()),
        ] {
            let res =
                cg_lookahead::cg::resilience::solve_with_recovery(v.as_ref(), &a, &b, None, &opts);
            assert!(
                res.converged,
                "{} under {kind:?}@{at_call} seed {seed}: {:?}",
                v.name(),
                res.termination
            );
            assert!(
                res.true_residual(&a, &b) <= 1e-6 * (1.0 + kernels::norm2(&b)),
                "{} under {kind:?}@{at_call} seed {seed}: bad solution",
                v.name()
            );
        }
    });
}

// ---------- ninth wave: SIMD lanes and mixed precision ----------

use cg_lookahead::cg::Execution;
use cg_lookahead::par::simd;

fn mixed_eligible_trio() -> Vec<Box<dyn CgVariant>> {
    vec![
        Box::new(StandardCg::new()) as Box<dyn CgVariant>,
        Box::new(OverlapK1Cg::new()),
        Box::new(PipelinedCg::new()),
    ]
}

/// Pinning the SIMD lanes is unobservable on random SPD systems: under
/// the order-preserving `Tree` reduction, scalar and vector solves are
/// bit-for-bit identical — iterate and residual trace — for random
/// dimensions straddling the 8-lane blocks.
#[test]
fn simd_policy_is_bit_invariant_on_random_spd() {
    use cg_lookahead::linalg::kernels::DotMode;
    check(24, |rng| {
        let n = 16 + rng.below(70); // 16..=85: odd sizes included
        let seed = rng.next_u64();
        let a = gen::rand_spd(n, 4, 3.0, seed);
        let b = gen::rand_vector(n, seed.wrapping_add(3));
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(600)
            .with_dot_mode(DotMode::Tree);
        for v in mixed_eligible_trio() {
            let s = simd::with_level(simd::SimdLevel::Scalar, || v.solve(&a, &b, None, &opts));
            let w = simd::with_level(simd::auto_level(), || v.solve(&a, &b, None, &opts));
            let eq =
                s.x.iter()
                    .zip(&w.x)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
                    && s.residual_norms
                        .iter()
                        .zip(&w.residual_norms)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
                    && s.residual_norms.len() == w.residual_norms.len();
            assert!(
                eq,
                "{} n {n} seed {seed:#x}: simd changed the bits",
                v.name()
            );
        }
    });
}

/// Cools-style residual-replacement bound (per the 1601.07068 analysis of
/// pipelined CG rounding errors): with `f32` working vectors, periodic
/// true-residual confirmation, and residual replacement, the *f64 true*
/// residual at exit may not drift beyond the recursive residual by more
/// than O(ε₃₂ · (‖A‖·‖x‖ + ‖b‖)). The guard also forbids optimistic
/// exits: a `Converged` claim must hold at the requested tolerance
/// against the true residual.
#[test]
fn mixed_precision_residual_replacement_bound_on_random_spd() {
    check(24, |rng| {
        let n = 24 + rng.below(60);
        let seed = rng.next_u64();
        let a = gen::rand_spd(n, 4, 2.0 + rng.range_f64(0.0, 2.0), seed);
        let b = gen::rand_vector(n, seed.wrapping_add(11));
        let tol = 1e-5;
        let opts = SolveOptions::default()
            .with_tol(tol)
            .with_max_iters(2000)
            .with_execution(Execution::Mixed);
        // ‖A‖_∞ from the row sums (exact for CSR)
        let norm_a = (0..n)
            .map(|i| a.row(i).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let bnorm = kernels::norm2(&b);
        for v in mixed_eligible_trio() {
            let res = v.solve(&a, &b, None, &opts);
            let true_res = res.true_residual(&a, &b);
            let xnorm = kernels::norm2(&res.x);
            // replacement bound: true residual tracks the recursive one up
            // to the f32 working-precision floor of the problem's scale
            let floor = 1e3 * f64::from(f32::EPSILON) * (norm_a * xnorm + bnorm);
            assert!(
                true_res <= res.final_residual + floor,
                "{} n {n} seed {seed:#x}: true residual {true_res:e} exceeds \
                 recursive {:e} + replacement floor {floor:e} ({:?})",
                v.name(),
                res.final_residual,
                res.termination
            );
            // no optimistic exits
            if res.converged {
                assert!(
                    true_res <= 10.0 * tol * bnorm,
                    "{} n {n} seed {seed:#x}: claimed convergence at tol \
                     {tol:e} but true residual is {true_res:e}",
                    v.name()
                );
            }
        }
    });
}
