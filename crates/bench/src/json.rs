//! JSON serialization for experiment results.
//!
//! The value tree, parser, and `ToJson` trait live in [`vr_obs::json`](mod@vr_obs::json)
//! (the leaf crate) so the solve service can share one JSON
//! implementation with the harness without a dependency cycle; this
//! module re-exports them and keeps the harness-specific part — the
//! shared experiment-result *envelope*, which needs `vr_par::team::GRAIN`
//! and so cannot live in the leaf. Experiment binaries keep using
//! `vr_bench::json::{Json, ToJson}` and the `vr_bench::json!` /
//! `vr_bench::jsonable!` macros unchanged.

pub use vr_obs::json::{parse, report_json, Json, ParseError, ToJson};

/// Version of the shared experiment-result envelope. Bump when the
/// envelope keys (not the per-experiment row schemas) change shape.
pub const SCHEMA_VERSION: i64 = 1;

/// Wrap experiment row sections in the common envelope shared by the
/// perf-oriented experiments (e15–e24) and the solve-service wire format.
///
/// Every emitted file starts with the same five keys — `schema_version`,
/// `experiment`, `smoke`, `host_cpus`, `grain` — so downstream tooling can
/// interpret any result (e.g. discount headlines measured on a starved
/// host) without per-experiment parsers. The payload follows as one or
/// more named row arrays, e.g. `[("rows", rows.to_json())]`.
#[must_use]
pub fn envelope(experiment: &str, smoke: bool, sections: &[(&str, Json)]) -> Json {
    let host_cpus = std::thread::available_parallelism().map_or(1, |v| v.get());
    let mut pairs = vec![
        ("schema_version".to_string(), Json::Int(SCHEMA_VERSION)),
        ("experiment".to_string(), Json::Str(experiment.to_string())),
        ("smoke".to_string(), Json::Bool(smoke)),
        ("host_cpus".to_string(), Json::Int(host_cpus as i64)),
        ("grain".to_string(), Json::Int(vr_par::team::GRAIN as i64)),
    ];
    for (k, v) in sections {
        pairs.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(pairs)
}

/// Build a [`Json`] object literal: `json!({ "rows": rows, "slope": s })`.
///
/// Delegates to [`vr_obs::json!`]; kept under the `vr_bench` name so the
/// experiment binaries' call sites are stable.
#[macro_export]
macro_rules! json {
    ($($tt:tt)*) => { ::vr_obs::json!($($tt)*) };
}

/// Define a struct together with a field-by-field [`ToJson`] impl (the
/// stand-in for `#[derive(Serialize)]` on experiment row records).
///
/// Delegates to [`vr_obs::jsonable!`]; kept under the `vr_bench` name so
/// the experiment binaries' call sites are stable.
#[macro_export]
macro_rules! jsonable {
    ($($tt:tt)*) => { ::vr_obs::jsonable! { $($tt)* } };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_leads_with_shared_keys_then_sections() {
        let rows = crate::json!([crate::json!({ "n": 4 })]);
        let env = envelope("e99_test", true, &[("rows", rows)]);
        let s = env.pretty();
        let order = [
            "schema_version",
            "experiment",
            "smoke",
            "host_cpus",
            "grain",
            "rows",
        ];
        let mut last = 0;
        for key in order {
            let pos = s.find(&format!("\"{key}\"")).unwrap_or_else(|| {
                panic!("envelope missing key {key}: {s}");
            });
            assert!(pos > last || last == 0, "key {key} out of order: {s}");
            last = pos;
        }
        assert!(s.contains("\"experiment\": \"e99_test\""), "{s}");
        assert!(s.contains("\"smoke\": true"), "{s}");
    }

    #[test]
    fn delegating_macros_produce_obs_values() {
        crate::jsonable! {
            struct Row {
                n: usize,
            }
        }
        let v = crate::json!({ "rows": vec![Row { n: 4 }] });
        // round-trips through the shared parser: proof both sides agree
        let back = parse(&v.pretty()).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            back.get("rows").unwrap().as_arr().unwrap()[0]
                .get("n")
                .unwrap()
                .as_i64(),
            Some(4)
        );
    }
}
