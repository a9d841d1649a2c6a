//! # vr-obs
//!
//! Allocation-free span tracing and critical-path accounting for the
//! Van Rosendale CG reproduction.
//!
//! The paper's argument (C1–C3) is about the *critical path inside one CG
//! iteration*: how much of it is inner-product fan-in wait versus
//! overlappable vector work. `vr_bench::timing` can only wall-clock a solve
//! from the outside and `OpCounts` only tallies logical operations; this
//! crate records *when* each phase of an iteration ran, on every worker
//! thread, so the §3 overlap claim can be measured rather than inferred.
//!
//! ## Design
//!
//! * [`Clock`] — one monotonic origin (`Instant`), all
//!   timestamps are `u64` nanoseconds since it. No atomics.
//! * [`Tracer`] — one fixed-capacity ring buffer of
//!   [`Span`] records *per shard* (per SPMD worker). Recording
//!   is a bounds check, two stores and a counter increment: no locks, no
//!   atomics, no allocation. Shard exclusivity (worker `w` writes only slot
//!   `w`, epochs are serialized by the team's run lock) makes the
//!   `&self`-recording sound; see the [`tracer`] module docs.
//! * [`tls`] — a thread-local attachment so deep callees
//!   (`vr_par::team` epochs, `PendingScalar::wait`) can record spans
//!   without threading a tracer through every kernel signature. Detached
//!   cost is one thread-local read and a branch.
//! * [`critpath`] — the per-iteration aggregator: shard-0 spans between
//!   `IterMark`s are attributed to {reduction-wait, matvec, vector,
//!   overhead}; unclassified window time counts as overhead so the four
//!   phases always sum to the measured iteration time.
//! * [`hist`] — log₂-bucketed duration histograms per span kind.
//! * [`chrome`] — Chrome trace-event JSON (open in Perfetto / `chrome://tracing`).
//!
//! The *disabled* path is the absence of a tracer: `SolveOptions` holds an
//! `Option<Arc<Tracer>>` that defaults to `None`, every record helper takes
//! one branch and does nothing, and solver arithmetic is untouched — solves
//! are bit-identical and allocation-free with or without tracing (asserted
//! in `tests/tracing.rs` and `tests/alloc_free.rs`).
//!
//! ## Reduction-wait accounting
//!
//! "Reduction wait" is *dependency-gated* time, the quantity the paper (and
//! the pipelined-CG literature after it) reasons about:
//!
//! * an **eager** inner product ([`SpanKind::DotWait`](span::SpanKind)) gates
//!   immediately — its result is consumed at the call site, so the whole
//!   call (leaf sweep + tree fan-in) is reduction wait;
//! * a fan-in consuming partials folded by a **fused** sweep
//!   ([`SpanKind::DotFanIn`](span::SpanKind)) gates only for the combine —
//!   the producing sweep was useful vector work;
//! * a **deferred** reduction pays only its consume-point
//!   [`SpanKind::DeferredWait`](span::SpanKind): the leaf sweep
//!   ([`SpanKind::DotLaunch`](span::SpanKind)) ran an iteration's worth of
//!   useful work before the value was needed, which is exactly the §3
//!   overlap.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chrome;
pub mod clock;
pub mod critpath;
pub mod hist;
pub mod json;
pub mod span;
pub mod tls;
pub mod tracer;

pub use clock::Clock;
pub use critpath::{IterBreakdown, Phases, Report};
pub use json::{report_json, Json, ToJson};
pub use span::{PhaseClass, Span, SpanKind};
pub use tracer::{TraceLog, Tracer};
