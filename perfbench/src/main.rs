//! The repository benchmark.
//!
//! ```text
//! perfbench --workload solve-large|serve-small --seed N
//!           --seconds S --trace 0|1 --daemon PATH --out DIR
//! ```
//!
//! `--trace 0` runs one workload untraced and reports its end-to-end
//! metrics beside the host diagnostics; `--trace 1` reports the per-layer
//! breakdown, timing calls into each layer from this harness. Both print a
//! table of named metrics with units and sample counts, then, as the last
//! line of stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is non-zero when any output check failed.
//! `perfbench/README.md` records why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod host;
mod large;
mod plan;
mod probes;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use vr_obs::json::Json;

const USAGE: &str = "usage: perfbench --workload solve-large|serve-small \
                     --seed N --seconds S --trace 0|1 --daemon PATH --out DIR";

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `vr-svc` daemon binary serve-small spawns.
    pub daemon: PathBuf,
    /// Directory for span and per-job records.
    pub out: PathBuf,
}

/// The two workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SolveLarge,
    ServeSmall,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeSmall => "serve-small",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        [Workload::SolveLarge, Workload::ServeSmall]
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s}"))
    }
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon, mut out) =
        (None, None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or base, printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What one run measured and checked.
pub struct Report {
    pub title: String,
    /// Operations attempted: solves or served jobs, checks included.
    pub attempted: usize,
    /// One line per failed operation, naming its cause.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Printed in the table only: host diagnostics and the per-job split.
    pub context: Vec<Metric>,
}

impl Report {
    fn print(&self) -> Result<(), String> {
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        println!("{}", self.title);
        for m in self.metrics.iter().chain(&self.context) {
            println!(
                "  {:<36} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let failed = self.failures.len();
        println!(
            "  {:<36} {:>14} {:<6} ({failed} failed of {} attempted)",
            "failed", failed, "count", self.attempted
        );
        for cause in &self.failures {
            println!("  FAILED {cause}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vr_obs::json!({ "value": Json::Num(m.value), "unit": m.unit });
                (m.name.clone(), entry)
            })
            .collect();
        let line = vr_obs::json!({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": Json::Obj(metrics),
        });
        println!("{}", line.compact());
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.trace) {
        (Workload::SolveLarge, false) => large::run(&args),
        (Workload::ServeSmall, false) => serve::run(&args),
        (_, true) => trace::run(&args),
    };
    let printed = result.and_then(|report| report.print().map(|()| report.failures.is_empty()));
    match printed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
