//! Self-test of the benchmark at tiny sizes: every workload runs clean
//! in both modes, reports every registered metric with its unit, and
//! its traced run's spans nest; the registry matches `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use thicket_perfbench::host::Scratch;
use thicket_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use thicket_perfbench::{run, span, Report, RunConfig, Workload};
use thicket_perfsim::Json;

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-selftest")
        .join(name)
}

fn tiny(workload: Workload, traced: bool) -> Report {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.5,
        traced,
        tiny: true,
        work_dir: work_dir(workload.name()),
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let o = &report.outcome;
    assert!(
        o.correct(),
        "{} checks failed: {:?}",
        workload.name(),
        o.check_failures
    );
    assert!(
        o.attempted > 0 && o.failed == 0,
        "{}: {}/{}",
        workload.name(),
        o.failed,
        o.attempted
    );
    report
}

/// Parse the last-line JSON and check it has exactly the contract's
/// keys and every metric of `defs` with its unit; returns the values.
fn result_values(report: &Report, defs: &[MetricDef]) -> Vec<(&'static str, f64)> {
    let line = report.outcome.result_json(report.config.traced);
    let doc = Json::parse(&line).expect("result line is JSON");
    let Json::Obj(members) = &doc else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(
        metrics.len(),
        defs.len(),
        "extra or missing metrics in {line}"
    );
    defs.iter()
        .map(|d| {
            let m = doc.get("metrics").and_then(|m| m.get(d.name));
            let m = m.unwrap_or_else(|| panic!("{} missing from {line}", d.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "unit of {}",
                d.name
            );
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "{} = {v}", d.name);
            (d.name, v)
        })
        .collect()
}

fn value(values: &[(&str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .expect("registered metric")
}

fn end_to_end(workload: Workload) {
    let report = tiny(workload, false);
    for (name, v) in result_values(&report, END_TO_END) {
        assert!(
            v > 0.0,
            "{}: end-to-end {name} must never be 0",
            workload.name()
        );
    }
    assert!(
        report.outcome.spans.is_empty(),
        "an untraced run records no span"
    );
    assert!(
        !report.outcome.named.is_empty(),
        "headline figures are reported"
    );
}

/// The traced run: every per-layer metric present, the layers the
/// workload calls non-zero, spans nested, unaccounted share and
/// tracing overhead reported.
fn traced(workload: Workload, called: &[&str]) {
    let report = tiny(workload, true);
    let values = result_values(&report, PER_LAYER);
    for name in called {
        assert!(
            value(&values, name) > 0.0,
            "{}: {name} is 0",
            workload.name()
        );
    }
    let spans = &report.outcome.spans;
    assert!(!spans.is_empty());
    span::check_nesting(spans).unwrap();
    assert!(spans
        .iter()
        .any(|s| s.parent.is_none() && !span::is_layer(s.name)));
    let share = value(&values, "tracing.unaccounted_share");
    assert!((0.0..1.0).contains(&share), "unaccounted share {share}");
    assert!(report.outcome.metrics.contains_key("tracing.overhead_pct"));
    assert_eq!(value(&values, "tracing.spans"), spans.len() as f64);
}

#[test]
fn eda_session_end_to_end() {
    end_to_end(Workload::EdaSession);
}

#[test]
fn eda_session_traced() {
    traced(
        Workload::EdaSession,
        &[
            "store.open_ms",
            "store.read_ms",
            "store.bytes_read",
            "core.compose_ms",
            "core.rows",
            "core.filter_ms",
            "core.groupby_ms",
            "core.query_ms",
            "core.stats_ms",
            "model.fit_ms",
            "query.parse_us",
        ],
    );
}

#[test]
fn service_mixed_end_to_end() {
    end_to_end(Workload::ServiceMixed);
}

#[test]
fn service_mixed_traced() {
    traced(
        Workload::ServiceMixed,
        &[
            "store.open_ms",
            "store.select_ms",
            "store.read_ms",
            "core.compose_ms",
            "core.query_ms",
            "query.parse_us",
            "serve.status_ms_p50",
            "serve.load_ms_p50",
            "serve.query_ms_p50",
            "serve.stats_ms_p50",
            "serve.encode_ms",
            "serve.decode_ms",
            "serve.response_bytes",
            "serve.served",
            "store.append_ms_p50",
            "store.commits",
            "store.manifest_bytes",
            "store.write_bytes",
        ],
    );
}

#[test]
fn trace_ingest_end_to_end() {
    end_to_end(Workload::TraceIngest);
}

#[test]
fn trace_ingest_traced() {
    traced(
        Workload::TraceIngest,
        &[
            "store.open_ms",
            "store.read_ms",
            "core.compose_ms",
            "store.append_ms_p50",
            "store.append_ms_first10",
            "store.append_ms_last10",
            "store.commits",
            "store.manifest_bytes",
            "store.write_bytes",
            "store.write_amp",
            "store.compact_ms",
            "trace.parse_ms",
            "trace.events",
            "trace.aggregate_ms",
            "trace.chunk_ms",
        ],
    );
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark reports, with the same units.
#[test]
fn registry_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string();
                (
                    name,
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let declared = |defs: &[MetricDef]| -> Vec<(String, Option<String>)> {
        defs.iter()
            .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(END_TO_END));
    assert_eq!(names("per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn scratch_dirs_are_unique_and_removed() {
    let root = work_dir("scratch");
    let a = Scratch::new(&root, "unique").unwrap();
    let b = Scratch::new(&root, "unique").unwrap();
    assert_ne!(a.path(), b.path());
    let kept = a.path().to_path_buf();
    drop(a);
    assert!(!kept.exists());
    assert!(b.path().exists());
}
