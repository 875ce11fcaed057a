//! The metric registry (names and units `BENCHMARK.json` declares),
//! summary statistics, and the result every workload returns.

use std::collections::BTreeMap;

use thicket_perfsim::Json;

use crate::span::Span;

/// A metric the benchmark reports: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: what running the system costs its user. Every
/// workload reports every one of them with tracing off; README.md maps
/// each to its meaning per workload ("op" is a session, a request, or
/// an ingest iteration). The times are CPU time of the benchmark
/// process, which the shared host's busy spells leave alone; wall-clock
/// latencies and rates are printed beside them as headline figures.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_cpu_ms_p50", "ms"),
    m("cpu_ms_per_op", "ms"),
    m("ok_ratio", "ratio"),
];

/// Per-layer metrics, from the traced run. A workload that makes no
/// call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // perfsim::store reader
    m("store.open_ms", "ms"),
    m("store.select_ms", "ms"),
    m("store.read_ms", "ms"),
    m("store.bytes_read", "bytes"),
    m("store.read_mib_per_s", "MiB/s"),
    // core loader / compose
    m("core.compose_ms", "ms"),
    m("core.rows", "count"),
    m("load.unaccounted_ms", "ms"),
    // core::ops, core::stats, model
    m("core.filter_ms", "ms"),
    m("core.groupby_ms", "ms"),
    m("core.query_ms", "ms"),
    m("core.stats_ms", "ms"),
    m("model.fit_ms", "ms"),
    // query dialect
    m("query.parse_us", "us"),
    // serve: client-observed per verb, codec, server counters
    m("serve.status_ms_p50", "ms"),
    m("serve.load_ms_p50", "ms"),
    m("serve.query_ms_p50", "ms"),
    m("serve.stats_ms_p50", "ms"),
    m("serve.encode_ms", "ms"),
    m("serve.decode_ms", "ms"),
    m("serve.response_bytes", "bytes"),
    m("serve.served", "count"),
    m("serve.shed", "count"),
    m("serve.status_unaccounted_ms", "ms"),
    m("serve.load_unaccounted_ms", "ms"),
    m("serve.query_unaccounted_ms", "ms"),
    m("serve.stats_unaccounted_ms", "ms"),
    // perfsim::store writer
    m("store.append_ms_p50", "ms"),
    m("store.append_ms_first10", "ms"),
    m("store.append_ms_last10", "ms"),
    m("store.commits", "count"),
    m("store.manifest_bytes", "bytes"),
    m("store.write_bytes", "bytes"),
    m("store.write_amp", "ratio"),
    m("store.compact_ms", "ms"),
    // perfsim::trace and core::trace_agg
    m("trace.parse_ms", "ms"),
    m("trace.events", "count"),
    m("trace.aggregate_ms", "ms"),
    m("trace.chunk_ms", "ms"),
    // the workload's process: VmHWM after a fixed number of operations
    // (bimodal run to run under glibc malloc, so it carries no bound)
    m("peak_rss_mib", "MiB"),
    // the traced run itself
    m("tracing.overhead_pct", "%"),
    m("tracing.unaccounted_share", "ratio"),
    m("tracing.spans", "count"),
    m("failed_ratio", "ratio"),
];

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

const MAX_CHECK_MESSAGES: usize = 20;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, requests + appends, iterations).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub check_failures: Vec<String>,
    /// Registry metrics by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own headline figures, under the names the
    /// workload description uses (`analysis_ms_p50`, `req_ms_p90`, ...).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Free-form facts about the run (sample counts, repeat share).
    pub notes: Vec<String>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// Record a failed output check. Each distinct message is kept
    /// once, and at most [`MAX_CHECK_MESSAGES`] of them; any failure
    /// leaves at least one, so the run reads as incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            return;
        }
        let msg = what();
        if self.check_failures.len() < MAX_CHECK_MESSAGES && !self.check_failures.contains(&msg) {
            self.check_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The last-line JSON object: `correct`, `attempted`, `failed` and
    /// every metric of the mode's list with its unit. A metric the
    /// workload did not set reads 0 (its layer was not called).
    pub fn result_json(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let metrics = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
                let value = Json::Obj(vec![
                    ("value".into(), num(v)),
                    ("unit".into(), Json::Str(d.unit.into())),
                ]);
                (d.name.to_string(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), num(self.attempted.max(1) as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// A JSON number; a value that is not finite (no samples) reads 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
