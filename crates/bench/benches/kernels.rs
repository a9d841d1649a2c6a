//! Microbenchmarks of the level-1 kernels and the deterministic parallel
//! reductions — the primitives whose latency structure the whole paper is
//! about.

use std::hint::black_box;
use vr_bench::timing::Bench;
use vr_linalg::{kernels, LinearOperator};
use vr_par::{reduce, Team};

fn bench_dot_orders(b: &mut Bench) {
    for log_n in [12u32, 16, 20] {
        let n = 1usize << log_n;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        b.run(format!("kernels/dot/serial/{log_n}"), || {
            black_box(kernels::dot_serial(&x, &y))
        });
        b.run(format!("kernels/dot/tree/{log_n}"), || {
            black_box(kernels::dot(kernels::DotMode::Tree, &x, &y))
        });
    }
}

fn bench_parallel_reduce(b: &mut Bench) {
    let n = 1usize << 22;
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    for threads in [1usize, 2, 4, 8] {
        let team = (threads > 1).then(|| Team::new(threads));
        b.run(format!("par/dot/threads/{threads}"), || {
            black_box(reduce::par_dot_in(team.as_ref(), &x, &x))
        });
    }
}

fn bench_axpy(b: &mut Bench) {
    let n = 1usize << 20;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut y = vec![0.0; n];
    b.run("kernels/axpy-1M", || {
        kernels::axpy(black_box(1.0000001), &x, &mut y);
    });
}

fn bench_batched_reductions(b: &mut Bench) {
    // shared-left dot pairs in one sweep (the pairing the overlapped and
    // pipelined solvers launch) vs separate passes
    let n = 1usize << 18;
    let vs: Vec<Vec<f64>> = (0..6)
        .map(|k| (0..n).map(|i| ((i + 31 * k) % 17) as f64 / 17.0).collect())
        .collect();
    b.run("par/batch/six-separate-dots", || {
        let mut acc = 0.0;
        for v in &vs {
            acc += reduce::par_dot_in(None, black_box(v), black_box(&vs[0]));
        }
        black_box(acc)
    });
    b.run("par/batch/three-dot2-sweeps", || {
        let mut acc = 0.0;
        for pair in vs.chunks(2) {
            let (u, v) = vr_linalg::fused::par_dot2_in(None, &vs[0], &pair[0], &pair[1]);
            acc += u + v;
        }
        black_box(acc)
    });
}

fn bench_parallel_spmv(b: &mut Bench) {
    let a = vr_linalg::gen::poisson2d(256); // 65536 unknowns
    let x = vr_linalg::gen::rand_vector(a.nrows(), 5);
    let mut y = vec![0.0; a.nrows()];
    b.run("linalg/spmv-65k/serial", || {
        a.spmv_into(black_box(&x), black_box(&mut y));
    });
    for t in [2usize, 4, 8] {
        let team = Team::new(t);
        b.run(format!("linalg/spmv-65k/par/{t}"), || {
            a.apply_team(Some(&team), black_box(&x), black_box(&mut y));
        });
    }
}

fn main() {
    let mut b = Bench::new();
    bench_dot_orders(&mut b);
    bench_parallel_reduce(&mut b);
    bench_axpy(&mut b);
    bench_batched_reductions(&mut b);
    bench_parallel_spmv(&mut b);
}
