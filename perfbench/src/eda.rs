//! `eda_session`: the paper's forest view. One full store load, then
//! the §4 sequence — filter, groupby, call-path query, stats, model —
//! over a Figure-13-shaped multi-architecture ensemble in a v3 store.

use std::collections::BTreeSet;
use std::time::Instant;

use thicket_core::{model_metric, IngestReport, LoadSource, Thicket};
use thicket_dataframe::{AggFn, ColKey};
use thicket_perfsim::{
    simulate_cpu_ensemble, simulate_gpu_ensemble, Compiler, CpuRunConfig, GpuRunConfig, Profile,
    Store, Variant,
};
use thicket_query::{parse_pred, Query};

use crate::calib::Calibrator;
use crate::host::{self, Scratch};
use crate::metrics::{median, quantile, Outcome};
use crate::span::{self, Tracer};
use crate::{
    repeated_setup, report_cpu, staged_store_load, traced_turn, CpuMeter, PeakRss, RunConfig,
};

/// The paper's four RAJA problem sizes.
const SIZES: [u64; 4] = [1_048_576, 2_097_152, 4_194_304, 8_388_608];
/// The paper's CUDA block sizes.
const BLOCKS: [u32; 4] = [128, 256, 512, 1024];

const FILTER: &str = r#"variant == "Sequential""#;
const QUERY: &str = r#"("*", name contains "Stream")"#;
/// quartz Sequential × {clang, gcc} × -O0..-O3.
const GROUPS: usize = 8;
/// Sessions after which `peak_rss_mib` is read.
const RSS_SESSIONS: u64 = 10;
/// Reference-kernel runs before each untraced session.
const SESSION_KERNELS: usize = 2;

/// The ensemble: quartz Sequential clang/gcc at -O0..-O3 plus lassen
/// CUDA at four block sizes, each at four problem sizes, `runs` runs
/// per configuration (40 gives the 1,920-profile ensemble).
pub fn ensemble(seed: u64, runs: u64) -> Vec<Profile> {
    let mut next_seed = seed.wrapping_mul(1_000_003);
    let mut take_seed = || {
        next_seed = next_seed.wrapping_add(1);
        next_seed % (1 << 48)
    };
    let mut cpu = Vec::new();
    for compiler in [Compiler::clang9(), Compiler::gcc8()] {
        for opt in 0..4 {
            for &size in &SIZES {
                for _ in 0..runs {
                    let mut cfg = CpuRunConfig::quartz_default();
                    cfg.compiler = compiler.clone();
                    cfg.opt_level = opt;
                    cfg.variant = Variant::Sequential;
                    cfg.problem_size = size;
                    cfg.seed = take_seed();
                    cpu.push(cfg);
                }
            }
        }
    }
    let mut gpu = Vec::new();
    for &block in &BLOCKS {
        for &size in &SIZES {
            for _ in 0..runs {
                let mut cfg = GpuRunConfig::lassen_default();
                cfg.block_size = block;
                cfg.problem_size = size;
                cfg.seed = take_seed();
                gpu.push(cfg);
            }
        }
    }
    let threads = host::nproc().min(2);
    let mut out = simulate_cpu_ensemble(&cpu, threads);
    out.extend(simulate_gpu_ensemble(&gpu, threads));
    out
}

/// The store on disk plus what its contents must produce.
struct Inputs {
    store: Scratch,
    profiles: usize,
    /// Perf rows of the full composed thicket: one per (node, profile)
    /// pair where the profile has a metric on the node.
    rows: usize,
    /// Names of every `Stream` node in the profiles' graphs. A filtered
    /// thicket keeps the union call tree, so this is exactly what the
    /// call-path query must keep.
    stream_nodes: BTreeSet<String>,
    /// Distinct `Stream` nodes of the Sequential profiles: the nodes
    /// with data after the filter, so one stats row each.
    seq_stream_nodes: usize,
}

fn setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let runs = if cfg.tiny { 1 } else { 40 };
    let profiles = ensemble(cfg.seed, runs);
    let rows = profiles
        .iter()
        .map(|p| {
            p.graph()
                .ids()
                .filter(|&id| !p.node_metrics(id).is_empty())
                .count()
        })
        .sum();
    let stream_names = |p: &Profile| -> Vec<String> {
        let g = p.graph();
        g.ids()
            .map(|id| g.node(id).name().to_string())
            .filter(|n| n.contains("Stream"))
            .collect()
    };
    let stream_nodes = profiles.iter().flat_map(stream_names).collect();
    let seq_stream_nodes = profiles
        .iter()
        .filter(|p| p.metadata("variant").and_then(|v| v.as_str()) == Some("Sequential"))
        .flat_map(stream_names)
        .collect::<BTreeSet<_>>()
        .len();
    let store = Scratch::new(&cfg.work_dir, "eda").map_err(|e| format!("scratch: {e}"))?;
    let dir = store.path().join("store");
    Store::save(&dir, &profiles).map_err(|e| format!("save store: {e}"))?;
    Ok(Inputs {
        store,
        profiles: profiles.len(),
        rows,
        stream_nodes,
        seq_stream_nodes,
    })
}

impl Inputs {
    fn dir(&self) -> std::path::PathBuf {
        self.store.path().join("store")
    }
}

/// What the §4 sequence produced, for the output checks.
struct Analysis {
    groups: usize,
    kept_nodes: BTreeSet<String>,
    stats_rows: usize,
    models: usize,
}

/// The §4 operation sequence on a loaded thicket.
fn analysis(tk: &Thicket, tr: &mut Tracer) -> Result<Analysis, String> {
    let pred = tr
        .span("query.parse", |_| parse_pred(FILTER))
        .map_err(|e| e.to_string())?;
    let seq = tr.span("core.filter", |_| tk.filter_metadata_where(&pred));
    let groups = tr
        .span("core.groupby", |_| {
            seq.groupby(&[
                ColKey::new("compiler"),
                ColKey::new("compiler optimization"),
            ])
        })
        .map_err(|e| format!("groupby: {e}"))?;
    let query = tr
        .span("query.parse", |_| Query::parse(QUERY))
        .map_err(|e| e.to_string())?;
    let mut kept = tr
        .span("core.query", |_| seq.query(&query))
        .map_err(|e| e.to_string())?;
    tr.span("core.stats", |_| {
        kept.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Mean, AggFn::Std])])
    })
    .map_err(|e| format!("stats: {e}"))?;
    let first = &groups.first().ok_or("groupby returned no group")?.1;
    let models = tr
        .span("model.fit", |_| {
            model_metric(
                first,
                &ColKey::new("time (exc)"),
                &ColKey::new("problem size"),
            )
        })
        .map_err(|e| format!("model: {e}"))?;
    let g = kept.graph();
    let a = Analysis {
        groups: groups.len(),
        kept_nodes: g.ids().map(|id| g.node(id).name().to_string()).collect(),
        stats_rows: kept.statsframe().len(),
        models: models.len(),
    };
    // Freeing the intermediate thickets is part of the session's cost.
    tr.span("core.drop", |_| drop((seq, groups, kept, models)));
    Ok(a)
}

fn check_session(
    out: &mut Outcome,
    inputs: &Inputs,
    tk: &Thicket,
    report: &IngestReport,
    a: &Analysis,
) {
    out.check(
        report.is_clean() && report.loaded == inputs.profiles,
        || {
            format!(
                "load report: {} of {} ({})",
                report.loaded,
                inputs.profiles,
                report.summary()
            )
        },
    );
    out.check(tk.profiles().len() == inputs.profiles, || {
        format!(
            "thicket holds {} profiles, want {}",
            tk.profiles().len(),
            inputs.profiles
        )
    });
    out.check(tk.perf_data().len() == inputs.rows, || {
        format!(
            "thicket holds {} perf rows, want {}",
            tk.perf_data().len(),
            inputs.rows
        )
    });
    out.check(a.groups == GROUPS, || {
        format!("groupby gave {} groups, want {GROUPS}", a.groups)
    });
    out.check(a.kept_nodes == inputs.stream_nodes, || {
        format!(
            "query kept {:?}, want {:?}",
            a.kept_nodes, inputs.stream_nodes
        )
    });
    out.check(a.stats_rows == inputs.seq_stream_nodes, || {
        format!(
            "{} stats rows for {} kept nodes",
            a.stats_rows, inputs.seq_stream_nodes
        )
    });
    out.check(a.models > 0, || "model_metric fitted no node".into());
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut calib = Calibrator::new();
    let (inputs, setup_time) = repeated_setup(&mut calib, || setup(cfg))?;
    let dir = inputs.dir();
    let mut out = Outcome::default();
    // One untimed session first, so caches fill before timing starts.
    let (tk, _) = Thicket::loader(LoadSource::store(&dir))
        .load()
        .map_err(|e| format!("warm-up: {e}"))?;
    analysis(&tk, &mut Tracer::disabled()).map_err(|e| format!("warm-up: {e}"))?;
    drop(tk);
    let mut rss = PeakRss::begin(RSS_SESSIONS);
    let epoch = Instant::now();
    let run_cpu = CpuMeter::start();
    let kernel_ms_before = calib.spent_ms();
    let mut tracer = Tracer::new(epoch, 0);
    let mut untraced = Tracer::disabled();

    let mut load_ms = Vec::new(); // untraced sessions
    let mut analysis_ms = Vec::new();
    let mut session_ms = Vec::new();
    let mut session_cpu_ms = Vec::new();
    let mut traced_session_ms = Vec::new();
    let mut shard_bytes = Vec::new();
    let mut read_rate = Vec::new();
    let mut rows = 0usize;
    let mut i = 0u64;
    while epoch.elapsed().as_secs_f64() < cfg.seconds {
        out.attempted += 1;
        let traced = traced_turn(cfg.traced, i);
        let result = if traced {
            tracer.set_group(i);
            let t = Instant::now();
            let r = tracer.span("session", |tr| {
                let (tk, report, bytes, read_s) =
                    tr.span("load", |tr| staged_store_load(&dir, tr))?;
                let a = tr.span("analysis", |tr| analysis(&tk, tr))?;
                Ok::<_, String>((tk, report, a, bytes, read_s))
            });
            traced_session_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.map(|(tk, report, a, bytes, read_s)| {
                shard_bytes.push(bytes as f64);
                if read_s > 0.0 {
                    read_rate.push(bytes as f64 / (1 << 20) as f64 / read_s);
                }
                (tk, report, a)
            })
        } else {
            calib.sample(SESSION_KERNELS);
            let cpu = CpuMeter::start();
            let t = Instant::now();
            let loaded = Thicket::loader(LoadSource::store(&dir)).load();
            let l_ms = t.elapsed().as_secs_f64() * 1e3;
            match loaded {
                Err(e) => Err(e.to_string()),
                Ok((tk, report)) => {
                    let t = Instant::now();
                    let a = analysis(&tk, &mut untraced);
                    let a_ms = t.elapsed().as_secs_f64() * 1e3;
                    session_cpu_ms.push(cpu.elapsed_ms());
                    load_ms.push(l_ms);
                    analysis_ms.push(a_ms);
                    session_ms.push(l_ms + a_ms);
                    a.map(|a| (tk, report, a))
                }
            }
        };
        match result {
            Ok((tk, report, a)) => {
                rows = tk.perf_data().len();
                check_session(&mut out, &inputs, &tk, &report, &a);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("session {i} failed: {e}"));
            }
        }
        i += 1;
        rss.after_op(i);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_ms = run_cpu.elapsed_ms() - (calib.spent_ms() - kernel_ms_before);
    rss.finish(&mut out);
    out.notes.push(format!(
        "{} profiles, {} sessions ({} untraced); every session repeats the same load and \
         analysis (repeat share 1.0)",
        inputs.profiles,
        i,
        session_ms.len()
    ));

    if !cfg.traced {
        let per_op = cpu_ms / session_ms.len().max(1) as f64;
        report_cpu(
            &mut out,
            &calib,
            setup_time,
            median(&session_cpu_ms),
            per_op,
        );
        out.named("session_ms_p50", median(&session_ms), "ms");
        out.named("session_ms_p90", quantile(&session_ms, 0.9), "ms");
        out.named("sessions_per_s", session_ms.len() as f64 / wall_s, "1/s");
        out.named("load_ms_p50", median(&load_ms), "ms");
        out.named("analysis_ms_p50", median(&analysis_ms), "ms");
        return Ok(out);
    }

    let spans = tracer.into_spans();
    let layer = |name: &str| median(&span::per_group_ms(&spans, name));
    out.set("store.open_ms", layer("store.open"));
    out.set("store.read_ms", layer("store.read"));
    out.set("store.bytes_read", median(&shard_bytes));
    out.set("store.read_mib_per_s", median(&read_rate));
    out.set("core.compose_ms", layer("core.compose"));
    out.set("core.rows", rows as f64);
    // What the one-call loader spends beyond its stages called one by one.
    out.set(
        "load.unaccounted_ms",
        median(&load_ms) - median(&span::durations_ms(&spans, "load")),
    );
    out.set("core.filter_ms", layer("core.filter"));
    out.set("core.groupby_ms", layer("core.groupby"));
    out.set("core.query_ms", layer("core.query"));
    out.set("core.stats_ms", layer("core.stats"));
    out.set("model.fit_ms", layer("model.fit"));
    out.set("query.parse_us", layer("query.parse") * 1e3);
    out.set(
        "tracing.overhead_pct",
        (median(&traced_session_ms) / median(&session_ms) - 1.0) * 100.0,
    );
    out.spans = spans;
    Ok(out)
}
