//! Wire protocol: newline-delimited JSON, one message per line.
//!
//! Both directions reuse the workspace's own JSON value model
//! ([`vr_obs::json::Json`], the type every `BENCH_*.json` envelope is
//! built from) rendered with [`Json::compact`] — so a daemon transcript
//! is parseable by the exact reader the envelope-schema tests use, and
//! every `f64` crossing the wire round-trips bit-exactly (the writer uses
//! shortest-round-trip formatting, the reader correctly-rounded
//! `f64::from_str`). That bit-exactness is load-bearing: E24 asserts the
//! streamed final residual equals the library solve's bits.
//!
//! Requests (client → daemon):
//!
//! ```text
//! {"op":"submit","tag":1,"job":{...}}     → accepted | rejected (echoes tag)
//! {"op":"cancel","job_id":3}              → (job's done event: cancelled)
//! {"op":"stats"}                          → stats
//! {"op":"shutdown","mode":"drain"|"now"}  → daemon-wide
//! {"op":"ping"}                           → pong
//! ```
//!
//! Events (daemon → client) all carry `"event"`; see [`Event`].

use vr_obs::json::{Json, ToJson};
use vr_obs::jsonable;

/// Hard cap on right-hand sides a single batch may carry — bounds the s×s
/// Gram work and the wire size of a batched done event.
pub const MAX_BATCH_WIDTH: usize = 8;

/// Deadline class a tenant declares at submit time; drives variant routing
/// (see [`crate::routing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineClass {
    /// Minimize wall latency of this one job (reduction-hiding variants).
    Latency,
    /// Tightest attainable residual floor wins.
    Accuracy,
    /// Aggregate jobs/sec across tenants wins (batch-friendly default).
    Throughput,
}

impl DeadlineClass {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeadlineClass::Latency => "latency",
            DeadlineClass::Accuracy => "accuracy",
            DeadlineClass::Throughput => "throughput",
        }
    }

    /// Parse a wire name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "latency" => Some(DeadlineClass::Latency),
            "accuracy" => Some(DeadlineClass::Accuracy),
            "throughput" => Some(DeadlineClass::Throughput),
            _ => None,
        }
    }
}

/// The operator a job solves against.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// 5-point 2-D Poisson stencil on a `grid × grid` mesh (the workspace
    /// generator) — the cheap path: only the dimension crosses the wire.
    Poisson2d {
        /// Mesh side length (`n = grid²` unknowns).
        grid: usize,
    },
    /// Explicit CSR upload.
    Csr {
        /// Matrix dimension.
        n: usize,
        /// Row pointer array, length `n + 1`.
        indptr: Vec<usize>,
        /// Column indices.
        indices: Vec<usize>,
        /// Nonzero values.
        data: Vec<f64>,
    },
}

impl OperatorSpec {
    /// Number of unknowns.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            OperatorSpec::Poisson2d { grid } => grid * grid,
            OperatorSpec::Csr { n, .. } => *n,
        }
    }

    /// Batching fingerprint: two jobs may share a block solve only when
    /// their operators are identical. Stencils compare by dimensions; CSR
    /// uploads by an FNV-1a hash over structure and value bits (exact, not
    /// approximate — a single perturbed nonzero separates the batches).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        match self {
            OperatorSpec::Poisson2d { grid } => {
                eat(b"poisson2d");
                eat(&(*grid as u64).to_le_bytes());
            }
            OperatorSpec::Csr {
                n,
                indptr,
                indices,
                data,
            } => {
                eat(b"csr");
                eat(&(*n as u64).to_le_bytes());
                for &p in indptr {
                    eat(&(p as u64).to_le_bytes());
                }
                for &i in indices {
                    eat(&(i as u64).to_le_bytes());
                }
                for &v in data {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    fn to_json(&self) -> Json {
        match self {
            OperatorSpec::Poisson2d { grid } => vr_obs::json!({
                "kind": "poisson2d",
                "grid": Json::Int(*grid as i64),
            }),
            OperatorSpec::Csr {
                n,
                indptr,
                indices,
                data,
            } => vr_obs::json!({
                "kind": "csr",
                "n": Json::Int(*n as i64),
                "indptr": Json::Arr(indptr.iter().map(|&p| Json::Int(p as i64)).collect()),
                "indices": Json::Arr(indices.iter().map(|&i| Json::Int(i as i64)).collect()),
                "data": Json::Arr(data.iter().map(|&v| Json::Num(v)).collect()),
            }),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        match j.get("kind").and_then(Json::as_str) {
            Some("poisson2d") => {
                let grid = j
                    .get("grid")
                    .and_then(Json::as_i64)
                    .filter(|&g| g >= 1)
                    .ok_or("poisson2d operator needs a positive integer grid")?;
                Ok(OperatorSpec::Poisson2d {
                    grid: grid as usize,
                })
            }
            Some("csr") => {
                let n = j
                    .get("n")
                    .and_then(Json::as_i64)
                    .filter(|&n| n >= 1)
                    .ok_or("csr operator needs a positive integer n")?;
                let usize_arr = |key: &str| -> Result<Vec<usize>, String> {
                    j.get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("csr operator needs array {key}"))?
                        .iter()
                        .map(|v| {
                            v.as_i64()
                                .filter(|&i| i >= 0)
                                .map(|i| i as usize)
                                .ok_or_else(|| format!("csr {key}: non-negative integers only"))
                        })
                        .collect()
                };
                let data = j
                    .get("data")
                    .and_then(Json::as_arr)
                    .ok_or("csr operator needs array data")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("csr data: numbers only"))
                    .collect::<Result<Vec<f64>, _>>()?;
                Ok(OperatorSpec::Csr {
                    n: n as usize,
                    indptr: usize_arr("indptr")?,
                    indices: usize_arr("indices")?,
                    data,
                })
            }
            _ => Err("operator kind must be poisson2d or csr".into()),
        }
    }
}

/// Right-hand sides for a job: uploaded columns, or a seed the daemon
/// expands with the workspace generator (keeps burst-submission payloads
/// tiny in the benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub enum RhsSpec {
    /// Explicit columns (each of operator dimension).
    Explicit(Vec<Vec<f64>>),
    /// `count` columns of `gen::rand_vector(n, seed + k)`.
    Seeded {
        /// Base seed.
        seed: u64,
        /// Number of columns.
        count: usize,
    },
}

impl RhsSpec {
    /// Number of right-hand-side columns this spec expands to.
    #[must_use]
    pub fn columns(&self) -> usize {
        match self {
            RhsSpec::Explicit(cols) => cols.len(),
            RhsSpec::Seeded { count, .. } => *count,
        }
    }

    /// Materialize the columns at the operator dimension.
    #[must_use]
    pub fn expand(&self, n: usize) -> Vec<Vec<f64>> {
        match self {
            RhsSpec::Explicit(cols) => cols.clone(),
            RhsSpec::Seeded { seed, count } => (0..*count)
                .map(|k| vr_linalg::gen::rand_vector(n, seed + k as u64))
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            RhsSpec::Explicit(cols) => Json::Arr(
                cols.iter()
                    .map(|c| Json::Arr(c.iter().map(|&v| Json::Num(v)).collect()))
                    .collect(),
            ),
            RhsSpec::Seeded { seed, count } => vr_obs::json!({
                "seed": Json::Int(*seed as i64),
                "count": Json::Int(*count as i64),
            }),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Arr(cols) => {
                let out = cols
                    .iter()
                    .map(|c| {
                        c.as_arr()
                            .ok_or("rhs columns must be arrays")?
                            .iter()
                            .map(|v| v.as_f64().ok_or("rhs entries must be numbers"))
                            .collect::<Result<Vec<f64>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if out.is_empty() {
                    return Err("rhs needs at least one column".into());
                }
                Ok(RhsSpec::Explicit(out))
            }
            Json::Obj(_) => {
                let seed = j
                    .get("seed")
                    .and_then(Json::as_i64)
                    .filter(|&s| s >= 0)
                    .ok_or("seeded rhs needs non-negative integer seed")?;
                let count = j
                    .get("count")
                    .and_then(Json::as_i64)
                    .filter(|&c| c >= 1)
                    .ok_or("seeded rhs needs positive integer count")?;
                Ok(RhsSpec::Seeded {
                    seed: seed as u64,
                    count: count as usize,
                })
            }
            _ => Err("rhs must be an array of columns or a {seed, count} object".into()),
        }
    }
}

/// A solve job as submitted by a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The operator.
    pub operator: OperatorSpec,
    /// Right-hand side(s).
    pub rhs: RhsSpec,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// Deadline class for routing.
    pub class: DeadlineClass,
    /// Stream a progress event every `events_every` iterations
    /// (0 = no progress stream, done event only).
    pub events_every: usize,
    /// Whether this job may be coalesced into a block batch.
    pub batch: bool,
    /// Explicit variant pin (registry key), overriding the router.
    pub variant: Option<String>,
}

impl JobSpec {
    /// A throughput-class job with defaults matching the daemon's:
    /// `tol 1e-8`, `max_iters 2000`, no progress stream, batchable.
    #[must_use]
    pub fn new(operator: OperatorSpec, rhs: RhsSpec) -> Self {
        JobSpec {
            operator,
            rhs,
            tol: 1e-8,
            max_iters: 2000,
            class: DeadlineClass::Throughput,
            events_every: 0,
            batch: true,
            variant: None,
        }
    }

    /// Serialize for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("operator".to_string(), self.operator.to_json()),
            ("rhs".to_string(), self.rhs.to_json()),
            ("tol".to_string(), Json::Num(self.tol)),
            ("max_iters".to_string(), Json::Int(self.max_iters as i64)),
            ("class".to_string(), Json::Str(self.class.name().into())),
            (
                "events_every".to_string(),
                Json::Int(self.events_every as i64),
            ),
            ("batch".to_string(), Json::Bool(self.batch)),
        ];
        if let Some(v) = &self.variant {
            fields.push(("variant".to_string(), Json::Str(v.clone())));
        }
        Json::Obj(fields)
    }

    /// Parse from the wire, with defaults for omitted optionals.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let operator = OperatorSpec::from_json(j.get("operator").ok_or("job needs operator")?)?;
        let rhs = RhsSpec::from_json(j.get("rhs").ok_or("job needs rhs")?)?;
        if rhs.columns() == 0 {
            return Err("job needs at least one rhs column".into());
        }
        if let RhsSpec::Explicit(cols) = &rhs {
            for c in cols {
                if c.len() != operator.dim() {
                    return Err(format!(
                        "rhs column length {} mismatches operator dimension {}",
                        c.len(),
                        operator.dim()
                    ));
                }
            }
        }
        let tol = match j.get("tol") {
            None => 1e-8,
            Some(v) => v
                .as_f64()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or("tol must be a finite non-negative number")?,
        };
        let max_iters = match j.get("max_iters") {
            None => 2000,
            Some(v) => v
                .as_i64()
                .filter(|&m| m >= 1)
                .ok_or("max_iters must be a positive integer")? as usize,
        };
        let class = match j.get("class") {
            None => DeadlineClass::Throughput,
            Some(v) => v
                .as_str()
                .and_then(DeadlineClass::from_name)
                .ok_or("class must be latency, accuracy, or throughput")?,
        };
        let events_every = match j.get("events_every") {
            None => 0,
            Some(v) => {
                v.as_i64()
                    .filter(|&e| e >= 0)
                    .ok_or("events_every must be a non-negative integer")? as usize
            }
        };
        let batch = match j.get("batch") {
            None => true,
            Some(v) => v.as_bool().ok_or("batch must be a bool")?,
        };
        let variant = match j.get("variant") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("variant must be a registry key string")?
                    .to_string(),
            ),
        };
        Ok(JobSpec {
            operator,
            rhs,
            tol,
            max_iters,
            class,
            events_every,
            batch,
            variant,
        })
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; `tag` is echoed in the accepted/rejected reply so a
    /// client with several in-flight submits can match responses.
    Submit {
        /// Client-chosen correlation tag.
        tag: i64,
        /// The job.
        job: JobSpec,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Daemon-assigned job id (from the accepted event).
        job_id: u64,
    },
    /// Request a stats event.
    Stats,
    /// Daemon-wide shutdown; `drain` finishes queued work first, `now`
    /// cancels everything in flight.
    Shutdown {
        /// True = drain, false = now.
        drain: bool,
    },
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Serialize for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { tag, job } => vr_obs::json!({
                "op": "submit",
                "tag": Json::Int(*tag),
                "job": job.to_json(),
            }),
            Request::Cancel { job_id } => vr_obs::json!({
                "op": "cancel",
                "job_id": Json::Int(*job_id as i64),
            }),
            Request::Stats => vr_obs::json!({ "op": "stats" }),
            Request::Shutdown { drain } => vr_obs::json!({
                "op": "shutdown",
                "mode": if *drain { "drain" } else { "now" },
            }),
            Request::Ping => vr_obs::json!({ "op": "ping" }),
        }
    }

    /// Parse one request line.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        match j.get("op").and_then(Json::as_str) {
            Some("submit") => Ok(Request::Submit {
                tag: j.get("tag").and_then(Json::as_i64).unwrap_or(0),
                job: JobSpec::from_json(j.get("job").ok_or("submit needs job")?)?,
            }),
            Some("cancel") => Ok(Request::Cancel {
                job_id: j
                    .get("job_id")
                    .and_then(Json::as_i64)
                    .filter(|&i| i >= 0)
                    .ok_or("cancel needs non-negative job_id")? as u64,
            }),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => match j.get("mode").and_then(Json::as_str) {
                Some("drain") | None => Ok(Request::Shutdown { drain: true }),
                Some("now") => Ok(Request::Shutdown { drain: false }),
                Some(other) => Err(format!("shutdown mode must be drain or now, got {other}")),
            },
            Some("ping") => Ok(Request::Ping),
            Some(other) => Err(format!("unknown op {other}")),
            None => Err("request needs a string op".into()),
        }
    }
}

jsonable! {
    /// Routing decision attached to a done event: which variant the
    /// scheduler ran for the job, and why.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireRouting {
        /// Registry key of the variant that ran (`"block"` for batches).
        pub variant: String,
        /// Router's stated reason.
        pub reason: String,
        /// Whether the job rode a coalesced block solve.
        pub batched: bool,
        /// Total right-hand sides in the batch (1 for singletons).
        pub batch_width: i64,
    }
}

/// A daemon → client event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Job admitted; `job_id` names it from here on.
    Accepted {
        /// Echo of the submit tag.
        tag: i64,
        /// Daemon-assigned id.
        job_id: u64,
        /// Queue depth observed at admission (admitted job included).
        queue_depth: usize,
    },
    /// Job refused at the door — the explicit backpressure signal.
    Rejected {
        /// Echo of the submit tag.
        tag: i64,
        /// Machine-readable reason (`queue-full`, `draining`, `bad-request`).
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Streamed convergence sample: the variant's loop-top residual norm.
    Progress {
        /// Job id.
        job_id: u64,
        /// Iteration index (0-based, as the solver counts).
        iter: usize,
        /// Residual norm `√(r,r)` at that iteration.
        residual: f64,
    },
    /// Terminal event for a job.
    Done {
        /// Job id.
        job_id: u64,
        /// Stable lowercase termination name (`converged`, `cancelled`, …).
        termination: String,
        /// Whether the solve converged.
        converged: bool,
        /// Iterations performed.
        iterations: usize,
        /// Final residual norms, one per rhs column of this job.
        residuals: Vec<f64>,
        /// Wall time in the scheduler (queue wait excluded), milliseconds.
        solve_ms: f64,
        /// Routing decision.
        routing: WireRouting,
        /// Critical-path phase attribution from the per-job tracer:
        /// `[reduction_wait, matvec, vector, overhead]` shares summing to
        /// ~1, or `None` when tracing was unavailable.
        phase_shares: Option<[f64; 4]>,
    },
    /// Reply to stats.
    Stats {
        /// Jobs currently queued.
        queued: usize,
        /// Jobs admitted since start.
        admitted: u64,
        /// Jobs rejected since start.
        rejected: u64,
        /// Jobs completed since start.
        completed: u64,
        /// Team width the daemon was started with.
        width: usize,
        /// Live (non-dead) workers right now.
        live_width: usize,
    },
    /// Reply to ping.
    Pong,
    /// Connection- or daemon-level error not tied to a job.
    Error {
        /// Detail.
        detail: String,
    },
}

impl Event {
    /// Serialize for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Event::Accepted {
                tag,
                job_id,
                queue_depth,
            } => vr_obs::json!({
                "event": "accepted",
                "tag": Json::Int(*tag),
                "job_id": Json::Int(*job_id as i64),
                "queue_depth": Json::Int(*queue_depth as i64),
            }),
            Event::Rejected {
                tag,
                reason,
                detail,
            } => vr_obs::json!({
                "event": "rejected",
                "tag": Json::Int(*tag),
                "reason": reason.clone(),
                "detail": detail.clone(),
            }),
            Event::Progress {
                job_id,
                iter,
                residual,
            } => vr_obs::json!({
                "event": "progress",
                "job_id": Json::Int(*job_id as i64),
                "iter": Json::Int(*iter as i64),
                "residual": Json::Num(*residual),
            }),
            Event::Done {
                job_id,
                termination,
                converged,
                iterations,
                residuals,
                solve_ms,
                routing,
                phase_shares,
            } => {
                let shares = match phase_shares {
                    Some(s) => Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()),
                    None => Json::Null,
                };
                vr_obs::json!({
                    "event": "done",
                    "job_id": Json::Int(*job_id as i64),
                    "termination": termination.clone(),
                    "converged": *converged,
                    "iterations": Json::Int(*iterations as i64),
                    "residuals": Json::Arr(residuals.iter().map(|&v| Json::Num(v)).collect()),
                    "solve_ms": Json::Num(*solve_ms),
                    "routing": routing.to_json(),
                    "phase_shares": shares,
                })
            }
            Event::Stats {
                queued,
                admitted,
                rejected,
                completed,
                width,
                live_width,
            } => vr_obs::json!({
                "event": "stats",
                "queued": Json::Int(*queued as i64),
                "admitted": Json::Int(*admitted as i64),
                "rejected": Json::Int(*rejected as i64),
                "completed": Json::Int(*completed as i64),
                "width": Json::Int(*width as i64),
                "live_width": Json::Int(*live_width as i64),
            }),
            Event::Pong => vr_obs::json!({ "event": "pong" }),
            Event::Error { detail } => vr_obs::json!({
                "event": "error",
                "detail": detail.clone(),
            }),
        }
    }

    /// Parse one event line.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let int = |key: &str| -> Result<i64, String> {
            j.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("event needs integer {key}"))
        };
        let text = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event needs string {key}"))
        };
        match j.get("event").and_then(Json::as_str) {
            Some("accepted") => Ok(Event::Accepted {
                tag: int("tag")?,
                job_id: int("job_id")? as u64,
                queue_depth: int("queue_depth")? as usize,
            }),
            Some("rejected") => Ok(Event::Rejected {
                tag: int("tag")?,
                reason: text("reason")?,
                detail: text("detail")?,
            }),
            Some("progress") => Ok(Event::Progress {
                job_id: int("job_id")? as u64,
                iter: int("iter")? as usize,
                residual: j
                    .get("residual")
                    .and_then(Json::as_f64)
                    .ok_or("progress needs number residual")?,
            }),
            Some("done") => {
                let residuals = j
                    .get("residuals")
                    .and_then(Json::as_arr)
                    .ok_or("done needs array residuals")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("residuals must be numbers"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let routing_j = j.get("routing").ok_or("done needs routing")?;
                let routing = WireRouting {
                    variant: routing_j
                        .get("variant")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    reason: routing_j
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    batched: routing_j
                        .get("batched")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    batch_width: routing_j
                        .get("batch_width")
                        .and_then(Json::as_i64)
                        .unwrap_or(1),
                };
                let phase_shares = match j.get("phase_shares") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let arr = v.as_arr().ok_or("phase_shares must be an array")?;
                        if arr.len() != 4 {
                            return Err("phase_shares must have 4 entries".into());
                        }
                        let mut out = [0.0; 4];
                        for (slot, item) in out.iter_mut().zip(arr) {
                            *slot = item.as_f64().ok_or("phase_shares must be numbers")?;
                        }
                        Some(out)
                    }
                };
                Ok(Event::Done {
                    job_id: int("job_id")? as u64,
                    termination: text("termination")?,
                    converged: j
                        .get("converged")
                        .and_then(Json::as_bool)
                        .ok_or("done needs bool converged")?,
                    iterations: int("iterations")? as usize,
                    residuals,
                    solve_ms: j
                        .get("solve_ms")
                        .and_then(Json::as_f64)
                        .ok_or("done needs number solve_ms")?,
                    routing,
                    phase_shares,
                })
            }
            Some("stats") => Ok(Event::Stats {
                queued: int("queued")? as usize,
                admitted: int("admitted")? as u64,
                rejected: int("rejected")? as u64,
                completed: int("completed")? as u64,
                width: int("width")? as usize,
                live_width: int("live_width")? as usize,
            }),
            Some("pong") => Ok(Event::Pong),
            Some("error") => Ok(Event::Error {
                detail: text("detail")?,
            }),
            Some(other) => Err(format!("unknown event {other}")),
            None => Err("event line needs a string event".into()),
        }
    }

    /// The job id this event belongs to, if any (demux key for clients).
    #[must_use]
    pub fn job_id(&self) -> Option<u64> {
        match self {
            Event::Progress { job_id, .. } | Event::Done { job_id, .. } => Some(*job_id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_obs::json::parse;

    fn round_trip_request(req: &Request) {
        let line = req.to_json().compact();
        assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = Request::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(*req, back);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Ping);
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Cancel { job_id: 42 });
        round_trip_request(&Request::Shutdown { drain: true });
        round_trip_request(&Request::Shutdown { drain: false });
        let mut job = JobSpec::new(
            OperatorSpec::Poisson2d { grid: 16 },
            RhsSpec::Seeded { seed: 7, count: 2 },
        );
        job.class = DeadlineClass::Accuracy;
        job.events_every = 5;
        job.variant = Some("predict_recompute".into());
        round_trip_request(&Request::Submit { tag: 3, job });
    }

    #[test]
    fn csr_and_explicit_rhs_round_trip_bit_exact() {
        let job = JobSpec::new(
            OperatorSpec::Csr {
                n: 2,
                indptr: vec![0, 1, 2],
                indices: vec![0, 1],
                data: vec![4.0, 0.1 + 0.2], // a value with no short decimal
            },
            RhsSpec::Explicit(vec![vec![1.0, f64::MIN_POSITIVE]]),
        );
        let line = Request::Submit {
            tag: 1,
            job: job.clone(),
        }
        .to_json()
        .compact();
        let Request::Submit { job: back, .. } = Request::from_json(&parse(&line).unwrap()).unwrap()
        else {
            panic!("wrong op")
        };
        assert_eq!(job, back, "f64 payloads must survive the wire bit-exactly");
    }

    #[test]
    fn events_round_trip() {
        let events = vec![
            Event::Accepted {
                tag: 1,
                job_id: 9,
                queue_depth: 3,
            },
            Event::Rejected {
                tag: 2,
                reason: "queue-full".into(),
                detail: "cap 4".into(),
            },
            Event::Progress {
                job_id: 9,
                iter: 17,
                residual: 1.2345678901234567e-9,
            },
            Event::Done {
                job_id: 9,
                termination: "converged".into(),
                converged: true,
                iterations: 57,
                residuals: vec![9.87e-10, 1.2e-11],
                solve_ms: 1.25,
                routing: WireRouting {
                    variant: "block".into(),
                    reason: "batched with 2 compatible jobs".into(),
                    batched: true,
                    batch_width: 3,
                },
                phase_shares: Some([0.1, 0.6, 0.25, 0.05]),
            },
            Event::Stats {
                queued: 1,
                admitted: 10,
                rejected: 2,
                completed: 9,
                width: 4,
                live_width: 3,
            },
            Event::Pong,
            Event::Error {
                detail: "bad line".into(),
            },
        ];
        for ev in events {
            let line = ev.to_json().compact();
            assert!(!line.contains('\n'));
            let back = Event::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(ev, back);
        }
    }

    #[test]
    fn fingerprints_separate_operators() {
        let a = OperatorSpec::Poisson2d { grid: 16 };
        let b = OperatorSpec::Poisson2d { grid: 17 };
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = OperatorSpec::Csr {
            n: 1,
            indptr: vec![0, 1],
            indices: vec![0],
            data: vec![2.0],
        };
        let mut d = c.clone();
        if let OperatorSpec::Csr { data, .. } = &mut d {
            // 2.0 + EPSILON would round back to 2.0 (half-ulp, ties-to-even);
            // bump the bit pattern directly for a guaranteed one-ulp change
            data[0] = f64::from_bits(2.0f64.to_bits() + 1);
        }
        assert_ne!(
            c.fingerprint(),
            d.fingerprint(),
            "a one-ulp value change must split the batch"
        );
    }

    #[test]
    fn bad_requests_reject_with_reasons() {
        for (line, needle) in [
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"nop":1}"#, "needs a string op"),
            (r#"{"op":"submit","job":{}}"#, "operator"),
            (
                r#"{"op":"submit","job":{"operator":{"kind":"poisson2d","grid":0},"rhs":{"seed":1,"count":1}}}"#,
                "positive integer grid",
            ),
            (
                r#"{"op":"submit","job":{"operator":{"kind":"poisson2d","grid":4},"rhs":[]}}"#,
                "at least one column",
            ),
            (
                r#"{"op":"submit","job":{"operator":{"kind":"poisson2d","grid":4},"rhs":[[1.0]]}}"#,
                "mismatches operator dimension",
            ),
        ] {
            let err =
                Request::from_json(&parse(line).unwrap()).expect_err(&format!("accepted: {line}"));
            assert!(err.contains(needle), "{line}: got {err}");
        }
    }
}
