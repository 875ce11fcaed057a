//! The thicket benchmark: three workloads, each run in a process of its
//! own, measured end to end with tracing off and layer by layer in a
//! separate traced run. See README.md for what each workload does, why
//! it was chosen, and which layer metric should move which end-to-end
//! metric.
//!
//! The benchmark touches no library code: every span is timed around a
//! public call, from the benchmark's side, so the figures keep their
//! meaning across later changes to the library.

pub mod calib;
pub mod eda;
pub mod host;
pub mod ingest;
pub mod metrics;
pub mod service;
pub mod span;

use std::path::{Path, PathBuf};
use std::time::Instant;

use calib::Calibrator;
use host::HostFacts;
use metrics::{mean, median, num, Outcome};
use span::Tracer;
use thicket_core::{IngestReport, Thicket};
use thicket_dataframe::Value;
use thicket_perfsim::{default_threads, Json, Profile, Store};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdaSession,
    ServiceMixed,
    TraceIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EdaSession,
        Workload::ServiceMixed,
        Workload::TraceIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdaSession => "eda_session",
            Workload::ServiceMixed => "service_mixed",
            Workload::TraceIngest => "trace_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds every generated input; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer spans instead of end-to-end figures.
    pub traced: bool,
    /// Tiny inputs, for the self-test.
    pub tiny: bool,
    /// Directory under which the run makes its scratch directories.
    pub work_dir: PathBuf,
}

/// How many times a run sets its inputs up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Reference-kernel runs after each set-up.
const SETUP_KERNELS: usize = 3;

/// Medians of [`SETUP_REPEATS`] set-ups: CPU seconds the process spent
/// (`setup_s`, once scaled) and wall seconds (a headline figure).
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Run `make` [`SETUP_REPEATS`] times, timing each, and keep the last
/// result (earlier ones are dropped, which removes their files and
/// stops their servers). The reference kernel runs between set-ups, so
/// the run's host-speed scale covers them. Returns the inputs and the
/// median times.
pub fn repeated_setup<T>(
    calib: &mut Calibrator,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let mut cpu = Vec::with_capacity(SETUP_REPEATS);
    let mut wall = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take()); // free the previous inputs before building new ones
        let c = CpuMeter::start();
        let t = Instant::now();
        let made = make()?;
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(c.elapsed_ms() / 1e3);
        kept = Some(made);
        calib.sample(SETUP_KERNELS);
    }
    let time = SetupTime {
        cpu_s: median(&cpu),
        wall_s: median(&wall),
    };
    Ok((kept.expect("SETUP_REPEATS > 0"), time))
}

/// Record the end-to-end metrics of an untraced run: `setup_s`,
/// `op_cpu_ms_p50` (median CPU time of one operation) and
/// `cpu_ms_per_op` (CPU time of the measured phase, reference-kernel
/// runs taken out, over the operations done), each scaled to the
/// reference host by `calib`; and the raw figures and the scale as
/// headline lines.
pub fn report_cpu(
    out: &mut Outcome,
    calib: &Calibrator,
    setup: SetupTime,
    op_cpu_ms_p50: f64,
    cpu_ms_per_op: f64,
) {
    let scale = calib.scale();
    out.set("setup_s", setup.cpu_s * scale);
    out.set("op_cpu_ms_p50", op_cpu_ms_p50 * scale);
    out.set("cpu_ms_per_op", cpu_ms_per_op * scale);
    out.named("setup_cpu_s_raw", setup.cpu_s, "s");
    out.named("setup_wall_s", setup.wall_s, "s");
    out.named("op_cpu_ms_p50_raw", op_cpu_ms_p50, "ms");
    out.named("cpu_ms_per_op_raw", cpu_ms_per_op, "ms");
    out.named("reference_kernel_ms", calib.kernel_ms(), "ms");
    out.named("reference_compute_ms", median(&calib.compute_ms), "ms");
    out.named("reference_wake_ms", median(&calib.wake_ms), "ms");
    out.named("host_speed_scale", scale, "ratio");
}

/// CPU time of the whole process (all threads) over a stretch of work.
pub struct CpuMeter {
    start_s: f64,
}

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter {
            start_s: host::process_cpu_s(),
        }
    }

    /// CPU milliseconds since [`CpuMeter::start`].
    pub fn elapsed_ms(&self) -> f64 {
        (host::process_cpu_s() - self.start_s) * 1e3
    }
}

/// In a traced run, iterations alternate untraced and traced so the
/// tracing overhead is measured on interleaved samples.
pub fn traced_turn(traced_run: bool, i: u64) -> bool {
    traced_run && i % 2 == 1
}

/// Peak RSS of a fixed amount of measured work. [`PeakRss::begin`],
/// right before timing starts, resets the process's high-water mark so
/// set-up and warm-up do not count; [`PeakRss::after_op`] reads it once,
/// when the workload has done `ops` operations (or at the end of a
/// shorter run). A fixed operation count keeps the figure from growing
/// with throughput, as heap fragmentation would over a fixed time.
pub struct PeakRss {
    reset: bool,
    ops: u64,
    mib: Option<f64>,
}

impl PeakRss {
    pub fn begin(ops: u64) -> PeakRss {
        PeakRss {
            reset: host::reset_peak_rss(),
            ops,
            mib: None,
        }
    }

    /// Call after each operation with the number done so far.
    pub fn after_op(&mut self, done: u64) {
        if self.mib.is_none() && done >= self.ops {
            self.mib = Some(host::peak_rss_mib());
        }
    }

    pub fn finish(self, out: &mut Outcome) {
        let mib = self.mib.unwrap_or_else(host::peak_rss_mib);
        out.set("peak_rss_mib", mib);
        out.named("peak_rss_mib", mib, "MiB");
        if !self.reset {
            out.notes
                .push("peak_rss_mib includes set-up: the kernel refused to reset VmHWM".into());
        }
    }
}

/// Fold one chunk of profiles into a thicket the way the loader's
/// streaming path does: the first chunk composes, later chunks extend,
/// and profiles are indexed by their content hash.
pub fn compose_chunk(tk: &mut Option<Thicket>, chunk: &[Profile]) -> Result<(), String> {
    let ids: Vec<Value> = chunk.iter().map(|p| Value::Int(p.profile_hash())).collect();
    match tk {
        None => {
            let (built, _) = Thicket::loader(chunk)
                .profile_ids(&ids)
                .load()
                .map_err(|e| format!("compose: {e}"))?;
            *tk = Some(built);
        }
        Some(t) => t.extend(chunk, &ids).map_err(|e| format!("extend: {e}"))?,
    }
    Ok(())
}

/// What the loader does for `LoadSource::store`, one public call per
/// span: pin, read every entry, release the pin, compose. Returns the
/// thicket, the read report, and the shard bytes read with the seconds
/// the read took.
pub fn staged_store_load(
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(Thicket, IngestReport, u64, f64), String> {
    let snap = tr
        .span("store.open", |_| Store::open_pinned(dir))
        .map_err(|e| e.to_string())?;
    let n = snap.manifest().profiles.len();
    let all: Vec<usize> = (0..n).collect();
    let opened = snap.bytes_read();
    let t = Instant::now();
    let (profiles, report) = tr
        .span("store.read", |_| {
            snap.load_indices(&all, default_threads(n))
        })
        .map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let shard_bytes = snap.bytes_read() - opened;
    tr.span("store.release", |_| drop(snap));
    let mut tk = None;
    // The loader frees the read profiles once they are composed.
    tr.span("core.compose", |_| {
        let composed = compose_chunk(&mut tk, &profiles);
        drop(profiles);
        composed
    })?;
    let tk = tk.ok_or("the store holds no profile")?;
    Ok((tk, report, shard_bytes, read_s))
}

/// Mean latency of the first and of the last ten commits. Each commit
/// rewrites the whole manifest, so the gap shows the manifest's growth.
pub fn append_head_tail_ms(appends: &[f64]) -> (f64, f64) {
    let head = &appends[..appends.len().min(10)];
    let tail = &appends[appends.len().saturating_sub(10)..];
    (mean(head), mean(tail))
}

/// Size of the newest `MANIFEST-` file of a store (0 when there is none).
pub fn manifest_bytes(dir: &Path) -> u64 {
    host::files_with_prefix(dir, "MANIFEST-")
        .pop()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// A finished run: the workload's outcome plus the host record.
pub struct Report {
    pub config: RunConfig,
    pub host: HostFacts,
    pub outcome: Outcome,
}

/// Run one workload in this process.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let mut host = HostFacts::start();
    let mut outcome = match cfg.workload {
        Workload::EdaSession => eda::run(cfg)?,
        Workload::ServiceMixed => service::run(cfg)?,
        Workload::TraceIngest => ingest::run(cfg)?,
    };
    host.finish();
    outcome.check(outcome.attempted > 0, || {
        "no operation was attempted in the measured time".into()
    });
    if !cfg.traced {
        let ok = if outcome.attempted == 0 {
            0.0
        } else {
            1.0 - outcome.failed as f64 / outcome.attempted as f64
        };
        outcome.set("ok_ratio", ok);
    } else {
        let spans = &outcome.spans;
        if let Err(e) = span::check_nesting(spans) {
            outcome.check_failures.push(format!("span nesting: {e}"));
        }
        let share = span::unaccounted_share(&outcome.spans);
        outcome.set("tracing.unaccounted_share", share);
        outcome.set("tracing.spans", outcome.spans.len() as f64);
        let failed = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.set("failed_ratio", failed);
    }
    Ok(Report {
        config: cfg.clone(),
        host,
        outcome,
    })
}

impl Report {
    /// Human-readable lines: host facts, the workload's own headline
    /// figures and notes, and any failed checks.
    pub fn summary_lines(&self) -> Vec<String> {
        let c = &self.config;
        let h = &self.host;
        let mut out = vec![format!(
            "# {} seed={} seconds={} trace={} | nproc={} {} rev={} loadavg {:.2} -> {:.2} \
             steal {:.1}%{}",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.traced),
            h.nproc,
            h.rustc,
            h.git_rev,
            h.loadavg_start,
            h.loadavg_end,
            h.steal_share * 100.0,
            if h.busy() { " BUSY-HOST" } else { "" }
        )];
        for (name, value, unit) in &self.outcome.named {
            out.push(format!("{name} = {value} {unit}"));
        }
        for note in &self.outcome.notes {
            out.push(format!("note: {note}"));
        }
        for f in &self.outcome.check_failures {
            out.push(format!("CHECK FAILED: {f}"));
        }
        out
    }

    /// Full record for the results directory: config, host facts,
    /// every metric, the workload's own headline figures and notes.
    pub fn to_json(&self) -> Json {
        let c = &self.config;
        let o = &self.outcome;
        let metrics = o
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), num(*v)))
            .collect();
        let named = o
            .named
            .iter()
            .map(|(k, v, u)| {
                let value = Json::Obj(vec![
                    ("value".into(), num(*v)),
                    ("unit".into(), Json::Str(u.to_string())),
                ]);
                (k.to_string(), value)
            })
            .collect();
        let list = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("workload".into(), Json::Str(c.workload.name().into())),
            ("seed".into(), Json::Num(c.seed as f64)),
            ("seconds".into(), Json::Num(c.seconds)),
            ("traced".into(), Json::Bool(c.traced)),
            ("host".into(), self.host.to_json()),
            ("correct".into(), Json::Bool(o.correct())),
            ("attempted".into(), Json::Num(o.attempted as f64)),
            ("failed".into(), Json::Num(o.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
            ("named".into(), Json::Obj(named)),
            ("notes".into(), list(&o.notes)),
            ("check_failures".into(), list(&o.check_failures)),
        ])
    }

    /// Write the full record, and the spans of a traced run, under
    /// `dir` (one file per workload and mode, replaced by the next run).
    pub fn write_files(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let name = self.config.workload.name();
        let mode = if self.config.traced { "traced" } else { "e2e" };
        let mut record = self.to_json().to_string_compact();
        record.push('\n');
        std::fs::write(dir.join(format!("{name}-{mode}.json")), record)?;
        if self.config.traced {
            span::write_jsonl(
                &dir.join(format!("{name}-spans.jsonl")),
                &self.outcome.spans,
            )?;
        }
        Ok(())
    }
}
