//! `vr-svc` — the solver as a long-running, multi-tenant service.
//!
//! The library crates solve one system per call; this crate turns them
//! into a daemon that accepts concurrent solve jobs over a socket
//! (Unix-domain or TCP, newline-delimited JSON in the same
//! [`vr_obs::json`](mod@vr_obs::json)
//! value model as the committed `BENCH_*.json` envelopes), schedules them
//! onto the **one** shared persistent [`vr_par::team::Team`], and streams
//! per-iteration convergence events back to each client.
//!
//! The design leans on three properties the rest of the workspace already
//! guarantees:
//!
//! 1. **Cooperative cancellation** — every registered variant polls
//!    [`vr_cg::SolveOptions::with_cancel_flag`] at its iteration top and
//!    returns an honest [`vr_cg::Termination::Cancelled`], so a tenant
//!    disconnecting or cancelling never wedges the scheduler.
//! 2. **Width-invariant Tree reductions** — the team's fixed 256-leaf
//!    reduction layout makes Tree-dot solves bit-identical at any live
//!    width, so a worker dying mid-job degrades throughput, not answers.
//! 3. **Block CG batching** — compatible same-operator jobs coalesce into
//!    one [`vr_cg::block::BlockCg`] solve whose single batched Gram
//!    reduction serves every tenant in the batch (O'Leary 1980, the
//!    paper's spatial dual).
//!
//! Module map:
//!
//! | module | role |
//! |---|---|
//! | [`proto`] | wire messages: requests, events, job specs |
//! | [`queue`] | bounded admission queue with explicit backpressure |
//! | [`routing`] | measured stability table → variant choice per deadline class |
//! | [`scheduler`] | executor: batching, routing, cancellation, phase attribution |
//! | [`daemon`] | socket front-end: listener, per-connection I/O, drain/shutdown |
//! | [`client`] | blocking client library (used by the `e24` bench harness) |

#![warn(clippy::all)]
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod proto;
pub mod queue;
pub mod routing;
pub mod scheduler;

pub use client::{Client, Completed, JobHandle, Rejection};
pub use daemon::{Listen, Server, ServerConfig, ShutdownMode};
pub use proto::{DeadlineClass, Event, JobSpec, OperatorSpec, Request, RhsSpec};
pub use queue::{AdmissionQueue, RejectReason};
pub use routing::RoutingTable;
