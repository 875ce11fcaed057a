//! `trace_ingest`: an 8-rank quartz trace ingested twice per
//! iteration — (a) streamed into a windowed thicket, and (b) streamed
//! into a fresh store one window batch per commit, compacted, and
//! loaded back.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use thicket_core::{
    trace_to_store, LoadSource, ProfileSource, Thicket, TraceAggregator, TraceSource,
};
use thicket_perfsim::{emit_trace_to_path, Store, Strictness, TraceConfig, TraceReader};

use crate::calib::Calibrator;
use crate::host::{self, Scratch};
use crate::metrics::{median, quantile, Outcome};
use crate::span::{self, Tracer};
use crate::{
    append_head_tail_ms, compose_chunk, manifest_bytes, repeated_setup, report_cpu,
    staged_store_load, traced_turn, CpuMeter, PeakRss, RunConfig,
};

/// Events per `TraceReader::next_events` call: the trace source's
/// default chunk, so the staged replay reads like the loader does.
const CHUNK_EVENTS: usize = 4096;
/// Iterations after which `peak_rss_mib` is read.
const RSS_ITERATIONS: u64 = 3;
/// Reference-kernel runs before each untraced iteration.
const ITERATION_KERNELS: usize = 6;

struct Sizes {
    ranks: u32,
    passes: u32,
    window: Duration,
}

fn sizes(tiny: bool) -> Sizes {
    // One pass is 38 events and about 1.1 s of trace time per rank: the
    // full size is ≈304k events in ≈110 windows per rank.
    if tiny {
        Sizes {
            ranks: 2,
            passes: 8,
            window: Duration::from_secs(1),
        }
    } else {
        Sizes {
            ranks: 8,
            passes: 1000,
            window: Duration::from_secs(10),
        }
    }
}

/// The emitted trace and what ingesting it must produce, from the
/// benchmark's own scan of the file.
struct Inputs {
    scratch: Scratch,
    events: u64,
    /// Per rank, the windows its events span; their sum is the number
    /// of profiles every ingest must produce.
    profiles: usize,
}

impl Inputs {
    fn path(&self) -> PathBuf {
        self.scratch.path().join("run.trace")
    }
}

fn setup(cfg: &RunConfig, sz: &Sizes) -> Result<Inputs, String> {
    let scratch = Scratch::new(&cfg.work_dir, "ingest").map_err(|e| format!("scratch: {e}"))?;
    let path = scratch.path().join("run.trace");
    let trace = TraceConfig::quartz(sz.ranks, sz.passes, cfg.seed);
    let written = emit_trace_to_path(&trace, &path).map_err(|e| format!("emit trace: {e}"))?;
    let (events, profiles) = scan(&path, sz.window)?;
    if events != written {
        return Err(format!(
            "trace scan found {events} events, the emitter wrote {written}"
        ));
    }
    Ok(Inputs {
        scratch,
        events,
        profiles,
    })
}

/// Count the events of a `TRACE1` file and the windows each rank's
/// events span (first to last event), without the library's reader.
fn scan(path: &Path, window: Duration) -> Result<(u64, usize), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open trace: {e}"))?;
    let w = window.as_nanos() as u64;
    let mut events = 0u64;
    let mut span_ns: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read trace: {e}"))?;
        let mut f = line.split(' ');
        if !matches!(f.next(), Some("E" | "L")) {
            continue;
        }
        let parse = |v: Option<&str>| v.and_then(|s| s.parse::<u64>().ok());
        let (Some(rank), Some(t)) = (parse(f.next()), parse(f.next())) else {
            return Err(format!("bad event line {line:?}"));
        };
        events += 1;
        let e = span_ns.entry(rank as u32).or_insert((t, t));
        e.0 = e.0.min(t);
        e.1 = e.1.max(t);
    }
    let profiles = span_ns
        .values()
        .map(|&(lo, hi)| (hi / w - lo / w + 1) as usize)
        .sum();
    Ok((events, profiles))
}

/// Phase (a) one public call at a time: parse and aggregate the trace
/// chunk by chunk, then compose. Returns the thicket's profile count.
fn staged_trace_load(path: &Path, window: Duration, tr: &mut Tracer) -> Result<usize, String> {
    let mut reader = tr
        .span("trace.parse", |_| TraceReader::open(path))
        .map_err(|e| e.to_string())?;
    let meta = reader.metadata().to_vec();
    let mut agg = TraceAggregator::new(meta, Some(window), Strictness::FailFast);
    let mut tk = None;
    loop {
        let events = tr
            .span("trace.parse", |_| reader.next_events(CHUNK_EVENTS))
            .map_err(|e| e.to_string())?;
        if events.is_empty() {
            break;
        }
        let ready = tr
            .span("trace.aggregate", |_| {
                agg.push_events(&events).map(|()| agg.drain_ready())
            })
            .map_err(|e| e.to_string())?;
        if !ready.is_empty() {
            tr.span("core.compose", |_| compose_chunk(&mut tk, &ready))?;
        }
    }
    let (rest, report) = tr
        .span("trace.aggregate", |_| agg.finish())
        .map_err(|e| e.to_string())?;
    if !report.is_clean() {
        return Err(format!("trace aggregation: {}", report.summary()));
    }
    if !rest.is_empty() {
        tr.span("core.compose", |_| compose_chunk(&mut tk, &rest))?;
    }
    Ok(tk.map_or(0, |t| t.profiles().len()))
}

/// What the rebuilt `trace_to_store` loop measured.
struct Written {
    profiles: usize,
    commits: usize,
    manifest_bytes: u64,
}

/// Phase (b)'s ingest as `trace_to_store` does it, with the source's
/// chunk pulls and the commits as separate spans; then the compaction.
fn staged_store_ingest(
    path: &Path,
    dir: &Path,
    window: Duration,
    tr: &mut Tracer,
) -> Result<Written, String> {
    let mut src = tr
        .span("trace.chunk", |_| {
            TraceSource::open(path, Some(window), Strictness::FailFast)
        })
        .map_err(|e| e.to_string())?;
    let mut out = Written {
        profiles: 0,
        commits: 0,
        manifest_bytes: 0,
    };
    while let Some(batch) = tr
        .span("trace.chunk", |_| src.next_chunk())
        .map_err(|e| e.to_string())?
    {
        tr.span("store.append", |_| {
            if out.commits == 0 {
                Store::save(dir, &batch)
            } else {
                Store::append(dir, &batch)
            }
        })
        .map_err(|e| e.to_string())?;
        out.commits += 1;
        out.profiles += batch.len();
    }
    let report = src.take_report();
    if !report.is_clean() {
        return Err(format!("trace source: {}", report.summary()));
    }
    out.manifest_bytes = manifest_bytes(dir);
    let compacted = tr
        .span("store.compact", |_| Store::compact(dir))
        .map_err(|e| e.to_string())?;
    if compacted.profiles != out.profiles {
        return Err(format!(
            "compact kept {} of {} profiles",
            compacted.profiles, out.profiles
        ));
    }
    Ok(out)
}

/// Per-iteration figures of a traced iteration.
struct TracedIter {
    wall_ms: f64,
    write_bytes: u64,
    store_bytes: u64,
    written: Written,
    rows: usize,
    shard_bytes: u64,
    read_s: f64,
}

fn traced_iteration(
    inputs: &Inputs,
    sz: &Sizes,
    work_dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<TracedIter, String> {
    let path = inputs.path();
    let store = Scratch::new(work_dir, "ingest-store").map_err(|e| format!("scratch: {e}"))?;
    let dir = store.path().join("store");
    let t = Instant::now();
    let mut write_bytes = 0;
    let r = tr.span("iteration", |tr| {
        let a = tr.span("ingest_a", |tr| staged_trace_load(&path, sz.window, tr))?;
        let w0 = host::thread_wchar();
        let written = tr.span("ingest_b", |tr| {
            staged_store_ingest(&path, &dir, sz.window, tr)
        })?;
        write_bytes = host::thread_wchar() - w0;
        let reloaded = tr.span("reload", |tr| staged_store_load(&dir, tr))?;
        Ok::<_, String>((a, written, reloaded))
    });
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let (a, written, (tk, report, shard_bytes, read_s)) = r?;
    let (reloaded, rows) = (tk.profiles().len(), tk.perf_data().len());
    let want = inputs.profiles;
    out.check(a == want, || {
        format!("trace thicket holds {a} profiles, want {want}")
    });
    out.check(written.profiles == want, || {
        format!(
            "store ingest wrote {} profiles, want {want}",
            written.profiles
        )
    });
    out.check(report.is_clean() && reloaded == want, || {
        format!(
            "reloaded store holds {reloaded} profiles, want {want} ({})",
            report.summary()
        )
    });
    Ok(TracedIter {
        wall_ms,
        write_bytes,
        store_bytes: host::dir_bytes(&dir),
        written,
        rows,
        shard_bytes,
        read_s,
    })
}

/// Per-iteration figures of an untraced iteration.
struct PlainIter {
    a_ms: f64,
    b_ms: f64,
    reload_ms: f64,
    /// CPU time of the whole iteration, all threads.
    cpu_ms: f64,
}

fn plain_iteration(
    inputs: &Inputs,
    sz: &Sizes,
    work_dir: &Path,
    out: &mut Outcome,
) -> Result<PlainIter, String> {
    let path = inputs.path();
    let want = inputs.profiles;
    let cpu = CpuMeter::start();
    let t = Instant::now();
    let (tk, report) = Thicket::loader(LoadSource::trace(&path).windows(sz.window))
        .load()
        .map_err(|e| e.to_string())?;
    let a_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(report.is_clean() && tk.profiles().len() == want, || {
        format!(
            "trace thicket holds {} profiles, want {want} ({})",
            tk.profiles().len(),
            report.summary()
        )
    });
    drop(tk);

    let store = Scratch::new(work_dir, "ingest-store").map_err(|e| format!("scratch: {e}"))?;
    let dir = store.path().join("store");
    let t = Instant::now();
    let (report, written) = trace_to_store(&path, &dir, Some(sz.window), Strictness::FailFast)
        .map_err(|e| e.to_string())?;
    let compacted = Store::compact(&dir).map_err(|e| e.to_string())?;
    let b_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(report.is_clean() && written == want, || {
        format!(
            "trace_to_store wrote {written} profiles, want {want} ({})",
            report.summary()
        )
    });
    out.check(
        compacted.profiles == want && compacted.report.is_clean(),
        || format!("compact kept {} profiles, want {want}", compacted.profiles),
    );

    let t = Instant::now();
    let (tk, report) = Thicket::loader(LoadSource::store(&dir))
        .load()
        .map_err(|e| e.to_string())?;
    let reload_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(report.is_clean() && tk.profiles().len() == want, || {
        format!(
            "reloaded store holds {} profiles, want {want} ({})",
            tk.profiles().len(),
            report.summary()
        )
    });
    drop(tk);
    Ok(PlainIter {
        a_ms,
        b_ms,
        reload_ms,
        cpu_ms: cpu.elapsed_ms(),
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let sz = sizes(cfg.tiny);
    let mut calib = Calibrator::new();
    let (inputs, setup_time) = repeated_setup(&mut calib, || setup(cfg, &sz))?;
    let mut out = Outcome::default();
    // One untimed iteration first, so caches fill before timing starts.
    plain_iteration(&inputs, &sz, &cfg.work_dir, &mut out).map_err(|e| format!("warm-up: {e}"))?;
    let mut rss = PeakRss::begin(RSS_ITERATIONS);
    let epoch = Instant::now();
    let run_cpu = CpuMeter::start();
    let kernel_ms_before = calib.spent_ms();
    let mut tracer = Tracer::new(epoch, 0);
    let mut plain: Vec<PlainIter> = Vec::new();
    let mut traced: Vec<TracedIter> = Vec::new();
    let mut i = 0u64;
    while epoch.elapsed().as_secs_f64() < cfg.seconds {
        out.attempted += 1;
        let r = if traced_turn(cfg.traced, i) {
            tracer.set_group(i);
            traced_iteration(&inputs, &sz, &cfg.work_dir, &mut tracer, &mut out)
                .map(|t| traced.push(t))
        } else {
            calib.sample(ITERATION_KERNELS);
            plain_iteration(&inputs, &sz, &cfg.work_dir, &mut out).map(|p| plain.push(p))
        };
        if let Err(e) = r {
            out.failed += 1;
            out.check(false, || format!("iteration {i} failed: {e}"));
        }
        i += 1;
        rss.after_op(i);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_ms = run_cpu.elapsed_ms() - (calib.spent_ms() - kernel_ms_before);
    rss.finish(&mut out);
    out.notes.push(format!(
        "{} ranks, {} events, {} profiles per ingest at {:?} windows; {i} iterations; every \
         iteration repeats the same ingest (repeat share 1.0)",
        sz.ranks, inputs.events, inputs.profiles, sz.window
    ));

    let a: Vec<f64> = plain.iter().map(|p| p.a_ms).collect();
    let b: Vec<f64> = plain.iter().map(|p| p.b_ms).collect();
    let reload: Vec<f64> = plain.iter().map(|p| p.reload_ms).collect();
    let whole: Vec<f64> = plain
        .iter()
        .map(|p| p.a_ms + p.b_ms + p.reload_ms)
        .collect();
    if !cfg.traced {
        let iter_cpu: Vec<f64> = plain.iter().map(|p| p.cpu_ms).collect();
        let per_op = cpu_ms / plain.len().max(1) as f64;
        report_cpu(&mut out, &calib, setup_time, median(&iter_cpu), per_op);
        out.named("iteration_ms_p50", median(&whole), "ms");
        out.named("iteration_ms_p90", quantile(&whole, 0.9), "ms");
        out.named("iterations_per_s", whole.len() as f64 / wall_s, "1/s");
        out.named("trace_load_ms_p50", median(&a), "ms");
        out.named(
            "trace_events_per_s",
            inputs.events as f64 / (median(&a) / 1e3),
            "1/s",
        );
        out.named(
            "store_ingest_profiles_per_s",
            inputs.profiles as f64 / (median(&b) / 1e3),
            "1/s",
        );
        out.named("reload_ms_p50", median(&reload), "ms");
        return Ok(out);
    }

    let spans = tracer.into_spans();
    let layer = |name: &str| median(&span::per_group_ms(&spans, name));
    let per_iter = |f: &dyn Fn(&TracedIter) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    out.set("store.open_ms", layer("store.open"));
    out.set("store.read_ms", layer("store.read"));
    out.set(
        "store.bytes_read",
        median(&per_iter(&|t| t.shard_bytes as f64)),
    );
    out.set(
        "store.read_mib_per_s",
        median(&per_iter(&|t| {
            t.shard_bytes as f64 / (1 << 20) as f64 / t.read_s
        })),
    );
    out.set("core.compose_ms", layer("core.compose"));
    out.set("core.rows", traced.first().map_or(0, |t| t.rows) as f64);
    // What the one-call trace loader spends beyond its stages called one
    // by one (phase (a), the workload's `load_ms_p50`).
    out.set(
        "load.unaccounted_ms",
        median(&a) - median(&span::durations_ms(&spans, "ingest_a")),
    );
    let appends = span::durations_ms(&spans, "store.append");
    out.set("store.append_ms_p50", median(&appends));
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for g in traced_groups(&spans) {
        let mine: Vec<f64> = spans
            .iter()
            .filter(|s| s.group == g && s.name == "store.append")
            .map(span::Span::ms)
            .collect();
        let (head, tail) = append_head_tail_ms(&mine);
        first.push(head);
        last.push(tail);
    }
    out.set("store.append_ms_first10", median(&first));
    out.set("store.append_ms_last10", median(&last));
    out.set(
        "store.commits",
        median(&per_iter(&|t| t.written.commits as f64)),
    );
    out.set(
        "store.manifest_bytes",
        median(&per_iter(&|t| t.written.manifest_bytes as f64)),
    );
    out.set(
        "store.write_bytes",
        median(&per_iter(&|t| t.write_bytes as f64)),
    );
    out.set(
        "store.write_amp",
        median(&per_iter(&|t| {
            t.write_bytes as f64 / t.store_bytes.max(1) as f64
        })),
    );
    out.set("store.compact_ms", layer("store.compact"));
    out.set("trace.parse_ms", layer("trace.parse"));
    out.set("trace.events", inputs.events as f64);
    out.set("trace.aggregate_ms", layer("trace.aggregate"));
    out.set("trace.chunk_ms", layer("trace.chunk"));
    out.set(
        "tracing.overhead_pct",
        (median(&per_iter(&|t| t.wall_ms)) / median(&whole) - 1.0) * 100.0,
    );
    out.spans = spans;
    Ok(out)
}

/// Group ids of the traced iterations, in order.
fn traced_groups(spans: &[span::Span]) -> Vec<u64> {
    let mut groups: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "iteration")
        .map(|s| s.group)
        .collect();
    groups.sort_unstable();
    groups
}
