//! The paper's Figure 1, two ways:
//!
//! 1. **Simulated**: the earliest-start schedule of the look-ahead task
//!    graph rendered as an ASCII Gantt — inner-product fan-ins of iteration
//!    n stretching under the vector work of iterations n+1..n+k.
//! 2. **Real threads**: `vr_par::PendingScalar` reductions launched at
//!    iteration n and consumed at iteration n+k, with their leaf partials
//!    folded on a persistent worker team — the launch-now/consume-later
//!    discipline in running code.
//!
//! Run with: `cargo run --release --example lookahead_pipeline`

use cg_lookahead::par::{reduce, PendingScalar, Team};
use cg_lookahead::sim::render::{gantt, GanttOptions};
use cg_lookahead::sim::{builders, MachineModel};
use std::collections::VecDeque;

fn main() {
    // ---- part 1: the simulated Figure 1 ----
    let (n, d, k) = (1usize << 20, 5usize, 4usize);
    let dag = builders::lookahead_cg(n, d, 16, k);
    let m = MachineModel::pram();
    println!("Figure 1 (simulated): look-ahead CG, N = 2^20, d = {d}, k = {k}");
    println!("iterations 8..9 — note the dot fan-ins outliving the vector ops:\n");
    let opts = GanttOptions {
        width: 60,
        iter_range: Some((8, 9)),
        skip_instant: true,
    };
    print!("{}", gantt(&dag.graph, &m, &opts));

    // ---- part 2: launch-now / consume-later on real threads ----
    println!("\nReal pipelined reductions (launch at iteration i, consume at i+{k}):");
    let team = Team::new(2);
    let len = 1 << 16;
    let vectors: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 31 + j) % 17) as f64 / 17.0)
                .collect()
        })
        .collect();

    let mut in_flight: VecDeque<(usize, PendingScalar)> = VecDeque::new();
    for (i, v) in vectors.iter().enumerate() {
        // launch this iteration's inner product: the team folds the leaf
        // partials now; the fan-in waits for the consume point
        let partials = reduce::par_dot_partials_in(Some(&team), v, v).expect("healthy team");
        in_flight.push_back((i, PendingScalar::deferred(partials)));

        // consume the result launched k iterations ago
        if in_flight.len() > k {
            let (launched_at, pending) = in_flight.pop_front().expect("non-empty");
            let value = pending.wait();
            println!(
                "  iteration {i:2}: consumed (v,v) launched at iteration {launched_at:2} → {value:.3}"
            );
        } else {
            println!(
                "  iteration {i:2}: pipeline filling ({} in flight)",
                in_flight.len()
            );
        }
    }
    // drain
    while let Some((launched_at, pending)) = in_flight.pop_front() {
        let _ = pending.wait();
        println!("  drain      : consumed dot launched at iteration {launched_at:2}");
    }
}
