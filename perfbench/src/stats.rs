//! Sample statistics and the harness's own span log.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vr_obs::json::Json;

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of a non-empty sample.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest value. Returns `(value, percentile)`, or `None` below
/// eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((s[k], 100.0 * k as f64 / (n - 1) as f64))
}

/// Tail metric note: which percentile, over how many samples.
pub fn tail_note(pct: f64, n: usize) -> String {
    format!("(p{pct:.1} of n={n}, 10 samples beyond)")
}

/// A deterministic 64-bit mix, so every input derives from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One span the harness recorded around a call into a layer.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Served job (or library solve) the span belongs to.
    job: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log. Disabled logs record nothing, so untraced runs
/// pay one branch per call site.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, on: bool) -> Self {
        Spans {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Spans::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, job: Option<u64>) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, job);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, k)| {
                k.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in k.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time and count per span name, in first-seen order.
    fn self_ms_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let ms = own as f64 / 1e6;
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some((_, total, count)) => {
                    *total += ms;
                    *count += 1;
                }
                None => out.push((s.name, ms, 1)),
            }
        }
        out
    }

    /// Print the self-time table to stderr and write every span, with its
    /// self time, to `path` as JSON.
    pub fn write(&self, path: &Path, header: Vec<(String, Json)>) -> Result<(), String> {
        eprintln!("self time by span (ms, count):");
        for (name, ms, count) in self.self_ms_by_name() {
            eprintln!("  {name:<28} {ms:>12.3} {count:>8}");
        }
        let spans = self
            .spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(id, (s, own))| {
                vr_obs::json!({
                    "id": id,
                    "parent": s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    "job": s.job.map_or(Json::Null, |j| Json::Int(j as i64)),
                    "name": s.name,
                    "start_us": Json::Num(s.start_ns as f64 / 1e3),
                    "dur_us": Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    "self_us": Json::Num(own as f64 / 1e3),
                })
            })
            .collect();
        let mut doc = header;
        doc.push(("spans".into(), Json::Arr(spans)));
        write_json(path, &Json::Obj(doc))
    }
}

/// Write a JSON document, creating the parent directory.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(doc.compact().as_bytes())
        .and_then(|()| f.write_all(b"\n"))
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (0..30).rev().map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 19.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 100.0 * 19.0 / 29.0).abs() < 1e-12);
        // Eleven samples: the smallest, with all ten others beyond it.
        let (value, pct) = tail(&v[..11]).unwrap();
        assert_eq!((value, pct), (19.0, 0.0));
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut s = Spans::new(Instant::now(), true);
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            job: Some(1),
            start_ns,
            end_ns,
        };
        s.spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
        ];
        assert_eq!(s.self_ns(), vec![50, 30, 30]);
    }
}
