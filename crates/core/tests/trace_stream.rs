//! Streaming trace ingest tests: chunked aggregation must be
//! bit-identical to whole-trace aggregation for any chunk boundary and
//! thread count, windowed ingest must conserve time exactly, corrupted
//! event streams must produce typed diagnostics (never panics), and the
//! trace → store path must round-trip to the same thicket as a direct
//! trace load.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use common::TempDir;
use proptest::prelude::*;
use thicket_core::{
    trace_to_store, LoadSource, PredExpr, ProfileSource, Thicket, ThicketError,
};
use thicket_graph::{Frame, Graph, NodeId};
use thicket_perfsim::{
    emit_trace_to_path, inject, simulate_cpu_run, FaultKind, Profile, Strictness, TraceConfig,
    TraceReader,
};

/// Emit `cfg` into `run.trace` in a fresh scratch directory; returns
/// the directory (removed on drop) and the trace path.
fn emit_file(tag: &str, cfg: &TraceConfig) -> (TempDir, PathBuf) {
    let dir = TempDir::new(tag);
    let path = dir.join("run.trace");
    emit_trace_to_path(cfg, &path).unwrap();
    (dir, path)
}

/// Timestamp of the last event in the trace (for window sizing).
fn trace_span_ns(path: &Path) -> u64 {
    let mut reader = TraceReader::open(path).unwrap();
    let mut last = 0;
    loop {
        let events = reader.next_events(1024).unwrap();
        if events.is_empty() {
            return last;
        }
        last = events.last().unwrap().time_ns;
    }
}

#[test]
fn whole_trace_yields_one_profile_per_rank() {
    let cfg = TraceConfig::quartz(3, 2, 7);
    let (_dir, path) = emit_file("whole", &cfg);
    let (tk, report) = Thicket::loader(LoadSource::trace(&path)).load().unwrap();
    assert_eq!(tk.metadata().len(), 3, "one profile per rank");
    assert!(report.is_clean());
    assert_eq!(report.attempted, 3);
    assert_eq!(report.loaded, 3);
    // The header metadata plus the per-rank stamps all made it through.
    for key in ["cluster", "rank", "seed"] {
        assert!(
            tk.metadata().column_named(key).is_ok(),
            "metadata is missing {key:?}"
        );
    }
}

#[test]
fn windowed_ingest_conserves_inclusive_time() {
    let cfg = TraceConfig::quartz(2, 3, 11);
    let (_dir, path) = emit_file("windows", &cfg);
    let span = trace_span_ns(&path);
    let window = Duration::from_nanos(span / 5);

    let (whole, _) = Thicket::loader(LoadSource::trace(&path)).load().unwrap();
    let (windowed, report) = Thicket::loader(LoadSource::trace(&path).windows(window))
        .load()
        .unwrap();
    assert!(report.is_clean());
    assert!(
        windowed.metadata().len() > whole.metadata().len(),
        "a window a fifth of the span must cut each rank into multiple profiles"
    );
    for key in ["window", "window start (ns)"] {
        assert!(
            windowed.metadata().column_named(key).is_ok(),
            "windowed metadata is missing {key:?}"
        );
    }
    // Exact conservation: every nanosecond of inclusive time lands in
    // exactly one window, so the summed metric matches the whole-trace
    // aggregate up to the one ns→s float conversion per emission.
    let sum_inc = |tk: &Thicket| -> f64 {
        tk.perf_data()
            .column_named("time (inc)")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_f64())
            .sum()
    };
    let whole_inc = sum_inc(&whole);
    let windowed_inc = sum_inc(&windowed);
    assert!(
        (whole_inc - windowed_inc).abs() < 1e-6,
        "inclusive time not conserved: whole {whole_inc} vs windowed {windowed_inc}"
    );
}

#[test]
fn trace_to_store_roundtrips_to_the_same_thicket() {
    let cfg = TraceConfig::quartz(2, 2, 23);
    let (dir, path) = emit_file("tostore", &cfg);
    let span = trace_span_ns(&path);
    let window = Duration::from_nanos(span / 4);
    let store_dir = dir.join("store");

    let (report, written) =
        trace_to_store(&path, &store_dir, Some(window), Strictness::FailFast).unwrap();
    assert!(report.is_clean());
    assert!(written > 2, "windowing must produce several profiles");
    assert_eq!(report.loaded, written);

    let (direct, _) = Thicket::loader(LoadSource::trace(&path).windows(window))
        .load()
        .unwrap();
    let (via_store, _) = Thicket::loader(LoadSource::store(&store_dir)).load().unwrap();
    assert_eq!(direct.perf_data(), via_store.perf_data());
    assert_eq!(direct.metadata(), via_store.metadata());
}

/// A custom producer: hands out one profile per chunk and declines
/// predicate pushdown (the trait default), so the loader must apply the
/// pushed conjuncts to every chunk itself.
struct OnePerChunk(std::vec::IntoIter<Profile>);

impl ProfileSource for OnePerChunk {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        Ok(self.0.next().map(|p| vec![p]))
    }

    fn meta_keys(&mut self) -> Result<BTreeSet<String>, ThicketError> {
        Ok(self
            .0
            .as_slice()
            .iter()
            .flat_map(|p| p.metadata_iter().map(|(k, _)| k.to_string()))
            .collect())
    }
}

#[test]
fn custom_source_declining_pushdown_matches_the_fast_path() {
    let profiles: Vec<_> = (0..4u64)
        .map(|seed| {
            let mut cfg = thicket_perfsim::CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    // One metadata conjunct the planner pushes (and the source
    // declines), one perf-frame conjunct left as the residual.
    let filter = PredExpr::and([
        PredExpr::ge("seed", 1i64),
        PredExpr::gt("time (exc)", 0.0),
    ]);
    let (fast, fast_report) = Thicket::loader(&profiles)
        .filter(filter.clone())
        .load()
        .unwrap();
    let (custom, report) =
        Thicket::loader(LoadSource::custom(OnePerChunk(profiles.clone().into_iter())))
            .filter(filter)
            .load()
            .unwrap();

    assert_eq!(fast.profiles().len(), 3, "seed 0 filtered out");
    assert_eq!(fast.perf_data(), custom.perf_data());
    assert_eq!(fast.metadata(), custom.metadata());
    assert!(report.is_clean());
    assert_eq!(report.loaded, fast_report.loaded);
    let plan = report.pushdown.expect("filtered loads record a plan");
    assert_eq!(Some(&plan), fast_report.pushdown.as_ref());
    assert_eq!((plan.pushed.len(), plan.residual.len()), (1, 1), "{plan}");
}

/// Load `profiles` one per chunk through a custom source.
fn load_one_per_chunk(
    profiles: Vec<Profile>,
    strictness: Strictness,
) -> Result<(Thicket, thicket_core::IngestReport), ThicketError> {
    Thicket::loader(LoadSource::custom(OnePerChunk(profiles.into_iter())))
        .strictness(strictness)
        .load()
}

/// Exact graph structure by node id: each node's frame and children.
fn graph_shape(tk: &Thicket) -> Vec<(Frame, Vec<NodeId>)> {
    let g = tk.graph();
    g.ids()
        .map(|id| (g.node(id).frame().clone(), g.node(id).children().to_vec()))
        .collect()
}

#[test]
fn chunked_load_of_divergent_trees_matches_a_whole_input_build() {
    // `main→x`, then `main→{y, x→z}`, then `main→w`, one profile per
    // chunk: after the second chunk the unified graph's pre-order
    // (main, x, z, y) is not its id order (main, x, y, z).
    let shapes: [&[(&str, Option<usize>)]; 3] = [
        &[("main", None), ("x", Some(0))],
        &[
            ("main", None),
            ("y", Some(0)),
            ("x", Some(0)),
            ("z", Some(2)),
        ],
        &[("main", None), ("w", Some(0))],
    ];
    let profiles: Vec<Profile> = shapes
        .iter()
        .enumerate()
        .map(|(run, nodes)| {
            let mut g = Graph::new();
            let mut ids = Vec::new();
            for (name, parent) in nodes.iter() {
                ids.push(match parent {
                    None => g.add_root(Frame::named(*name)),
                    Some(p) => g.add_child(ids[*p], Frame::named(*name)),
                });
            }
            let mut p = Profile::new(g);
            p.set_metadata("run", run as i64);
            for (i, id) in ids.iter().enumerate() {
                p.set_metric(*id, "time", (10 * run + i) as f64);
            }
            p
        })
        .collect();

    let (whole, _) = Thicket::loader(&profiles).load().unwrap();
    let (chunked, report) = load_one_per_chunk(profiles, Strictness::FailFast).unwrap();
    assert!(report.is_clean());
    assert_eq!(graph_shape(&chunked), graph_shape(&whole));
    assert_eq!(chunked.perf_data(), whole.perf_data());
    assert_eq!(chunked.metadata(), whole.metadata());
}

/// Four simulated profiles; those at `nan_at` carry a NaN metric.
fn profiles_with_nan(nan_at: &[usize]) -> Vec<Profile> {
    (0..4u64)
        .map(|seed| {
            let mut cfg = thicket_perfsim::CpuRunConfig::quartz_default();
            cfg.seed = seed;
            let mut p = simulate_cpu_run(&cfg);
            if nan_at.contains(&(seed as usize)) {
                let node = p
                    .graph()
                    .ids()
                    .find(|id| !p.node_metrics(*id).is_empty())
                    .unwrap();
                p.set_metric(node, "time (exc)", f64::NAN);
            }
            p
        })
        .collect()
}

#[test]
fn lenient_strictness_applies_to_every_chunk() {
    // A NaN profile in chunk 3, and in chunk 1; each such chunk drops
    // its only profile.
    for nan_at in [vec![2], vec![0], vec![0, 3]] {
        let profiles = profiles_with_nan(&nan_at);
        let (want, want_report) = Thicket::loader(&profiles)
            .strictness(Strictness::lenient())
            .load()
            .unwrap();
        let (got, report) = load_one_per_chunk(profiles, Strictness::lenient()).unwrap();
        assert_eq!(want_report.diagnostics.len(), nan_at.len(), "{nan_at:?}");
        assert_eq!(report, want_report, "{nan_at:?}");
        assert_eq!(got.perf_data(), want.perf_data(), "{nan_at:?}");
        assert_eq!(got.metadata(), want.metadata(), "{nan_at:?}");
    }

    // Every chunk dropped: the same error as the in-memory load.
    let profiles = profiles_with_nan(&[0, 1, 2, 3]);
    let want = Thicket::loader(&profiles)
        .strictness(Strictness::lenient())
        .load()
        .unwrap_err();
    let got = load_one_per_chunk(profiles, Strictness::lenient()).unwrap_err();
    assert_eq!(got.to_string(), want.to_string());
}

#[test]
fn profile_ids_repeated_across_chunks_fail_the_pool() {
    let mut profiles = profiles_with_nan(&[]);
    profiles.push(profiles[1].clone());
    let err = load_one_per_chunk(profiles, Strictness::lenient()).unwrap_err();
    assert!(
        err.to_string().contains("more than one input"),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------
// Fault family: every TRACE corruption yields a typed diagnostic under
// lenient strictness and a typed error under fail-fast — never a panic.
// ---------------------------------------------------------------------

const LENIENT: Strictness = Strictness::Lenient { max_errors: 16 };

#[test]
fn torn_trace_keeps_closed_windows_and_reports() {
    let cfg = TraceConfig::quartz(2, 3, 5);
    let (dir, path) = emit_file("torn", &cfg);
    let span = trace_span_ns(&path);
    // Tear near the end of the stream (the injector indexes its victim
    // line by `seed % events`), so earlier windows have already closed.
    inject(&dir, FaultKind::TornTrace, cfg.events_total() - 2).unwrap();

    // Fail-fast: a typed error naming the strictness, not a panic.
    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(
        err.to_string().contains("fail-fast"),
        "unexpected fail-fast error: {err}"
    );

    // Lenient with windows: everything that closed before the tear
    // survives, and the tear itself is a typed torn-trace diagnostic.
    let (tk, report) = Thicket::loader(
        LoadSource::trace(&path).windows(Duration::from_nanos(span / 20)),
    )
    .strictness(LENIENT)
    .load()
    .unwrap();
    assert!(!tk.metadata().is_empty());
    assert!(!report.is_clean());
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::TornTrace.matches(&d.kind)),
        "no torn-trace diagnostic in: {}",
        report.summary()
    );
}

#[test]
fn shuffled_events_poison_one_rank_and_report() {
    let cfg = TraceConfig::quartz(3, 2, 6);
    let (dir, path) = emit_file("shuffled", &cfg);
    inject(&dir, FaultKind::ShuffledEvents, 77).unwrap();

    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("fail-fast"));

    // Lenient: the regressed rank is dropped with a typed diagnostic;
    // the other ranks' profiles survive.
    let (tk, report) = Thicket::loader(LoadSource::trace(&path))
        .strictness(LENIENT)
        .load()
        .unwrap();
    assert!(tk.metadata().len() < 3, "the corrupted rank must be dropped");
    assert!(!tk.metadata().is_empty(), "healthy ranks must survive");
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::ShuffledEvents.matches(&d.kind)),
        "no out-of-order diagnostic in: {}",
        report.summary()
    );
    assert_eq!(report.attempted - report.loaded, 1, "exactly one rank dropped");
}

#[test]
fn unbalanced_trace_drops_the_open_rank_and_reports() {
    let cfg = TraceConfig::quartz(3, 2, 8);
    let (dir, path) = emit_file("unbalanced", &cfg);
    inject(&dir, FaultKind::UnbalancedTrace, 13).unwrap();

    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("fail-fast"));

    let (tk, report) = Thicket::loader(LoadSource::trace(&path))
        .strictness(LENIENT)
        .load()
        .unwrap();
    assert!(tk.metadata().len() < 3, "the unbalanced rank must be dropped");
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::UnbalancedTrace.matches(&d.kind)),
        "no unbalanced-stream diagnostic in: {}",
        report.summary()
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunk boundaries and thread counts are invisible: streaming a
    /// trace through any `chunk_events` at threads 1/2/8 yields a
    /// thicket bit-identical to the single-chunk whole-trace load.
    #[test]
    fn chunked_ingest_is_boundary_and_thread_invariant(
        seed in 0u64..1000,
        chunk in 1usize..96,
    ) {
        let cfg = TraceConfig::quartz(2, 1, seed);
        let (_dir, path) = emit_file("prop", &cfg);
        let (whole, whole_report) =
            Thicket::loader(LoadSource::trace(&path)).load().unwrap();
        for threads in [1usize, 2, 8] {
            let (chunked, report) = Thicket::loader(
                LoadSource::trace(&path).chunk_events(chunk),
            )
            .threads(threads)
            .load()
            .unwrap();
            prop_assert_eq!(
                whole.perf_data(), chunked.perf_data(),
                "perf mismatch at chunk {} threads {}", chunk, threads
            );
            prop_assert_eq!(
                whole.metadata(), chunked.metadata(),
                "metadata mismatch at chunk {} threads {}", chunk, threads
            );
            prop_assert_eq!(whole_report.loaded, report.loaded);
        }
    }

    /// Corrupted streams never panic: for every trace fault kind and
    /// any seed, a lenient load either produces a thicket whose report
    /// carries a diagnostic matching the injected fault, or a typed
    /// zero-profile error — and a fail-fast load errors cleanly.
    #[test]
    fn trace_faults_never_panic(
        seed in 0u64..1000,
        kind_idx in 0usize..3,
        chunk in 1usize..64,
    ) {
        let kind = FaultKind::TRACE[kind_idx];
        let cfg = TraceConfig::quartz(2, 1, seed);
        let (dir, path) = emit_file("fault", &cfg);
        inject(&dir, kind, seed).unwrap();

        prop_assert!(
            Thicket::loader(LoadSource::trace(&path).chunk_events(chunk))
                .strictness(Strictness::FailFast)
                .load()
                .is_err(),
            "fail-fast load of a corrupted trace must error"
        );

        match Thicket::loader(LoadSource::trace(&path).chunk_events(chunk))
            .strictness(LENIENT)
            .load()
        {
            Ok((_, report)) => prop_assert!(
                report.diagnostics.iter().any(|d| kind.matches(&d.kind)),
                "lenient load succeeded without a {:?} diagnostic: {}",
                kind, report.summary()
            ),
            // All profiles dropped (e.g. a tear before any window
            // closed): the typed zero-profile refusal, not a panic.
            Err(e) => prop_assert!(
                e.to_string().contains("zero profiles"),
                "unexpected lenient failure: {}", e
            ),
        }
    }
}
