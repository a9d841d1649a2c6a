//! # cg-lookahead
//!
//! Facade crate for the reproduction of Van Rosendale, *Minimizing Inner
//! Product Data Dependencies in Conjugate Gradient Iteration* (NASA
//! CR-172178 / ICASE 83-36, 1983) — re-exports every subsystem under one
//! roof:
//!
//! * [`cg`] — the solvers: standard CG, the paper's §3 overlap and §4-5
//!   look-ahead algorithms, s-step CG (monomial/Newton/Chebyshev bases),
//!   block CG, and the baselines (three-term, Chronopoulos-Gear, pipelined,
//!   conjugate residual, Chebyshev iteration, preconditioned CG). Each
//!   solve makes one execution choice (`cg::Execution`: reference or
//!   fused kernels, whole-iteration sweep epochs, or mixed precision).
//! * [`linalg`] — sparse/dense/banded matrices, kernels with explicit
//!   summation orders, PDE generators, preconditioners, Lanczos, RCM,
//!   Matrix Market I/O.
//! * [`par`] — deterministic parallel runtime on a persistent worker team
//!   (bit-reproducible reductions, SIMD leaf kernels, pipelined
//!   launch-now/consume-later scalars).
//! * [`obs`] — allocation-free span tracing and per-iteration critical-path
//!   attribution: measures how much of an iteration is dependency-gated
//!   reduction wait versus overlappable work, on real threads.
//! * [`poly`] — exact polynomial algebra for the symbolic (*)-coefficient
//!   derivation.
//! * [`sim`] — the idealized parallel machine: task DAGs, cost models,
//!   topologies, schedulers, Gantt/Graphviz rendering.
//! * [`svc`] — the solver as a service: a multi-tenant daemon with bounded
//!   admission, block-CG batching of compatible jobs, stability-table
//!   variant routing, and streamed per-iteration convergence events.
//!
//! ```
//! use cg_lookahead::cg::{lookahead::LookaheadCg, standard::StandardCg,
//!                        CgVariant, SolveOptions};
//! use cg_lookahead::linalg::gen;
//! use cg_lookahead::sim::{builders, MachineModel};
//!
//! // numerically: the restructured algorithm solves the same system
//! let a = gen::poisson2d(16);
//! let b = gen::poisson2d_rhs(16);
//! let opts = SolveOptions::default().with_tol(1e-8);
//! let x_std = StandardCg::new().solve(&a, &b, None, &opts);
//! let x_la = LookaheadCg::new(2).with_resync(12).solve(&a, &b, None, &opts);
//! assert!(x_std.converged && x_la.converged);
//!
//! // structurally: it removes the log N fan-ins from the critical path
//! let m = MachineModel::pram();
//! let t_std = builders::standard_cg(1 << 20, 5, 24).steady_cycle_time(&m);
//! let t_la = builders::lookahead_cg(1 << 20, 5, 24, 20).steady_cycle_time(&m);
//! assert!(t_la * 3.0 < t_std);
//! ```

pub use vr_cg as cg;
pub use vr_linalg as linalg;
pub use vr_obs as obs;
pub use vr_par as par;
pub use vr_poly as poly;
pub use vr_sim as sim;
pub use vr_svc as svc;
