//! `service_mixed`: an in-process `thicketd` over a quartz v3 store,
//! driven by two closed-loop persistent clients issuing an equal mix of
//! `status`, `load_matching`, `query_nodes` and `node_stats` over a
//! sliding 10-seed range, while the first client appends two new
//! profiles every 50 requests.
//!
//! The traced run replays each traced request's store, compose, query
//! and codec work in-process through the same public calls the server
//! makes, after the request returns; client latency minus those spans
//! is the wire, queue and dispatch time (`serve.*_unaccounted_ms`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thicket_core::Thicket;
use thicket_perfsim::{
    default_threads, simulate_cpu_ensemble, simulate_cpu_run, CpuRunConfig, Json, Profile, Store,
    StoreReader,
};
use thicket_query::{parse_pred, Query};
use thicket_serve::{
    read_frame, write_frame, NodeStat, Response, ServeOptions, Server, StatusInfo, ThicketClient,
    DEFAULT_MAX_FRAME,
};

use crate::calib::Calibrator;
use crate::host::{self, Scratch};
use crate::metrics::{median, quantile, Outcome};
use crate::span::{self, Span, Tracer};
use crate::{
    append_head_tail_ms, manifest_bytes, repeated_setup, report_cpu, CpuMeter, PeakRss, RunConfig,
};

const CLIENTS: usize = 2;
/// Seeds per `load_matching` / `query_nodes` / `node_stats` request.
const WINDOW: i64 = 10;
/// Profiles per append.
const APPEND_BATCH: i64 = 2;
const QUERY: &str = r#"("*", name contains "Stream")"#;
const METRIC: &str = "time (exc)";
/// A traced run alternates untraced and traced phases of this length
/// (one clock for both clients), or of a twentieth of a shorter run.
const PHASE: Duration = Duration::from_millis(500);
/// Requests of the first client after which `peak_rss_mib` is read.
const RSS_REQUESTS: u64 = 400;
/// The process's CPU time per request is taken over windows of this
/// length (or of a fortieth of a shorter run); `op_cpu_ms_p50` is the
/// median over the windows.
const CPU_WINDOW: Duration = Duration::from_millis(500);
/// Reference-kernel runs in each window of an untraced run.
const WINDOW_KERNELS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verb {
    Status,
    Load,
    Query,
    Stats,
}

const VERBS: [Verb; 4] = [Verb::Status, Verb::Load, Verb::Query, Verb::Stats];

impl Verb {
    fn span_name(self) -> &'static str {
        match self {
            Verb::Status => "serve.status",
            Verb::Load => "serve.load",
            Verb::Query => "serve.query",
            Verb::Stats => "serve.stats",
        }
    }
}

struct Sizes {
    base: i64,
    append_every: u64,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            base: 40,
            append_every: 5,
        }
    } else {
        Sizes {
            base: 2000,
            append_every: 50,
        }
    }
}

fn quartz_profile(seed: i64) -> CpuRunConfig {
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = seed as u64;
    cfg
}

/// A served store. Dropping it shuts the server down before the
/// scratch directory goes.
struct Inputs {
    server: Option<Server>,
    scratch: Scratch,
    /// The `seed` metadata of stored profile `i` is `first_seed + i`.
    first_seed: i64,
    base: i64,
}

impl Inputs {
    fn dir(&self) -> PathBuf {
        self.scratch.path().join("store")
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("server runs until the end")
            .addr()
            .to_string()
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(cfg: &RunConfig, sz: &Sizes) -> Result<Inputs, String> {
    let first_seed = 1 + (cfg.seed % 100_000) as i64 * 100_000;
    let configs: Vec<CpuRunConfig> = (0..sz.base)
        .map(|i| quartz_profile(first_seed + i))
        .collect();
    let profiles = simulate_cpu_ensemble(&configs, host::nproc().min(2));
    let scratch = Scratch::new(&cfg.work_dir, "service").map_err(|e| format!("scratch: {e}"))?;
    let dir = scratch.path().join("store");
    Store::save(&dir, &profiles).map_err(|e| format!("save store: {e}"))?;
    let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("bind server: {e}"))?;
    Ok(Inputs {
        server: Some(server),
        scratch,
        first_seed,
        base: sz.base,
    })
}

/// What a request returned.
enum Reply {
    Status(StatusInfo),
    Load(u64, Vec<Profile>),
    Nodes(Vec<String>, usize),
    Stats(Vec<NodeStat>),
}

impl Reply {
    fn into_response(self) -> Response {
        match self {
            Reply::Status(s) => Response::Status(s),
            Reply::Load(generation, profiles) => Response::Profiles {
                generation,
                profiles,
            },
            Reply::Nodes(nodes, rows) => Response::Nodes { nodes, rows },
            Reply::Stats(rows) => Response::Stats {
                metric: METRIC.to_string(),
                rows,
            },
        }
    }
}

fn call(client: &ThicketClient, verb: Verb, pred: &str) -> Result<Reply, String> {
    let r = match verb {
        Verb::Status => client.status().map(Reply::Status),
        Verb::Load => client
            .load_matching(Some(pred))
            .map(|(g, p)| Reply::Load(g, p)),
        Verb::Query => client
            .query_nodes(QUERY, Some(pred))
            .map(|(n, r)| Reply::Nodes(n, r)),
        Verb::Stats => client.node_stats(METRIC, Some(pred)).map(Reply::Stats),
    };
    r.map_err(|e| e.to_string())
}

/// What the traced replay of one request measured besides its spans.
#[derive(Default)]
struct Replayed {
    rows: Option<usize>,
    shard_bytes: Option<(u64, f64)>,
    response_bytes: usize,
}

/// Replay one request's server-side work in-process, one public call
/// per span: pin, parse, select, read, release, then compose and query
/// for `query_nodes`, then the response codec on the reply the client
/// got. `node_stats`' reduction is private to the server and stays in
/// the unaccounted time.
fn replay(
    verb: Verb,
    dir: &Path,
    pred: &str,
    reply: Reply,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let snap = tr
        .span("store.open", |_| Store::open_pinned(dir))
        .map_err(|e| e.to_string())?;
    if verb == Verb::Status {
        tr.span("store.release", |_| drop(snap));
    } else {
        let expr = tr
            .span("query.parse", |_| parse_pred(pred))
            .map_err(|e| e.to_string())?;
        let sel = tr
            .span("store.select", |_| snap.select_expr(&expr))
            .map_err(|e| e.to_string())?;
        let threads = default_threads(snap.manifest().profiles.len());
        let opened = snap.bytes_read();
        let t = Instant::now();
        let (profiles, _) = tr
            .span("store.read", |_| snap.load_indices(&sel, threads))
            .map_err(|e| e.to_string())?;
        out.shard_bytes = Some((snap.bytes_read() - opened, t.elapsed().as_secs_f64()));
        tr.span("store.release", |_| drop(snap));
        if verb == Verb::Query {
            let (tk, _) = tr
                .span("core.compose", |_| Thicket::loader(profiles).load())
                .map_err(|e| e.to_string())?;
            out.rows = Some(tk.perf_data().len());
            let q = tr
                .span("query.parse", |_| Query::parse(QUERY))
                .map_err(|e| e.to_string())?;
            tr.span("core.query", |_| tk.query(&q))
                .map_err(|e| e.to_string())?;
        }
    }
    let response = reply.into_response();
    let frame = tr.span("serve.encode", |_| {
        let text = response.to_json().to_string_compact();
        let mut buf = Vec::with_capacity(text.len() + 4);
        write_frame(&mut buf, text.as_bytes()).map(|_| buf)
    });
    let frame = frame.map_err(|e| format!("encode: {e}"))?;
    out.response_bytes = frame.len();
    tr.span("serve.decode", |_| {
        let payload = read_frame(
            &mut Cursor::new(&frame),
            DEFAULT_MAX_FRAME,
            Duration::from_secs(5),
        )
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Response::from_json(&doc).map(|_| ())
    })
    .map_err(|e| format!("decode: {e}"))?;
    Ok(out)
}

/// One request as the client saw it.
struct Sample {
    verb: Verb,
    window: i64,
    ms: f64,
    traced: bool,
}

/// Everything one client thread recorded.
#[derive(Default)]
struct ClientLog {
    /// Attempts, failures (as notes), failed checks and spans.
    out: Outcome,
    samples: Vec<Sample>,
    /// (window, digest of the node names, perf rows) per `query_nodes`.
    queries: Vec<(i64, u64, usize)>,
    /// (window, digest) per `node_stats`.
    stats: Vec<(i64, StatsDigest)>,
    appends_ms: Vec<f64>,
    append_wchar: u64,
    response_bytes: Vec<f64>,
    shard_bytes: Vec<f64>,
    read_rate: Vec<f64>,
    rows: Option<usize>,
}

impl ClientLog {
    /// Count a failed operation, noting the first ten errors.
    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        if self.out.notes.len() < 10 {
            self.out.notes.push(format!("failed: {what}"));
        }
    }
}

/// Appends made so far: `started` counts calls begun, `done` calls
/// committed; another client's status must land between them.
#[derive(Default)]
struct AppendCounters {
    started: AtomicU64,
    done: AtomicU64,
}

struct Shared<'a> {
    cfg: &'a RunConfig,
    sz: &'a Sizes,
    inputs: &'a Inputs,
    dir: PathBuf,
    addr: String,
    epoch: Instant,
    phase_s: f64,
    appends: AppendCounters,
    /// Requests answered so far, both clients.
    answered: AtomicU64,
    /// Read by the first client after its `RSS_REQUESTS`-th request.
    rss: Mutex<PeakRss>,
}

fn client_loop(sh: &Shared, c: usize) -> ClientLog {
    let mut log = ClientLog::default();
    let client = ThicketClient::new(sh.addr.clone());
    let mut tracer = Tracer::new(sh.epoch, c as u64 + 1);
    let positions = sh.inputs.base - WINDOW + 1;
    // Each client slides its own window, one seed per four-verb cycle,
    // from a seed-chosen start; the clients start half the store apart,
    // so a window recurs only once a client has slid past half the
    // store (the run reports the repeated share it measured).
    let start = (sh.cfg.seed.wrapping_mul(0x9e37_79b9) % positions as u64) as i64
        + c as i64 * positions / CLIENTS as i64;
    let mut own_appends: i64 = 0;
    let mut k: u64 = 0;
    while sh.epoch.elapsed().as_secs_f64() < sh.cfg.seconds {
        let verb = VERBS[(k % 4) as usize];
        let lo = sh.inputs.first_seed + (start + (k / 4) as i64) % positions;
        let pred = format!("seed >= {lo} and seed < {}", lo + WINDOW);
        let phase = (sh.epoch.elapsed().as_secs_f64() / sh.phase_s) as u64;
        let traced = sh.cfg.traced && phase % 2 == 1;
        let done_before = sh.appends.done.load(Ordering::SeqCst);
        log.out.attempted += 1;

        tracer.set_group(((c as u64) << 48) | k);
        let (reply, ms, replayed) = if traced {
            tracer.span("request", |tr| {
                let t = Instant::now();
                let reply = tr.span(verb.span_name(), |_| call(&client, verb, &pred));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                // The replay works on a copy of the reply; the reply
                // itself is checked below.
                let replayed = match &reply {
                    Ok(r) => Some(tr.span("replay", |tr| {
                        replay(verb, &sh.dir, &pred, clone_reply(r), tr)
                    })),
                    Err(_) => None,
                };
                (reply, ms, replayed)
            })
        } else {
            let t = Instant::now();
            let reply = call(&client, verb, &pred);
            (reply, t.elapsed().as_secs_f64() * 1e3, None)
        };
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.fail(format!("{verb:?}: {e}"));
                k += 1;
                continue;
            }
        };
        sh.answered.fetch_add(1, Ordering::SeqCst);
        log.samples.push(Sample {
            verb,
            window: lo,
            ms,
            traced,
        });
        match replayed {
            Some(Ok(r)) => {
                if let Some(rows) = r.rows {
                    log.rows = Some(rows);
                }
                if verb == Verb::Load {
                    log.response_bytes.push(r.response_bytes as f64);
                    if let Some((bytes, secs)) = r.shard_bytes {
                        log.shard_bytes.push(bytes as f64);
                        log.read_rate.push(bytes as f64 / (1 << 20) as f64 / secs);
                    }
                }
            }
            Some(Err(e)) => log
                .out
                .check(false, || format!("replay of {verb:?} failed: {e}")),
            None => {}
        }
        check_reply(sh, c, &mut log, &reply, lo, own_appends, done_before);
        match reply {
            Reply::Nodes(nodes, rows) => log.queries.push((lo, hash_of(&nodes), rows)),
            Reply::Stats(rows) => log.stats.push((lo, StatsDigest::of(&rows))),
            _ => {}
        }
        k += 1;
        if c == 0 {
            sh.rss
                .lock()
                .expect("no client panics holding the RSS reader")
                .after_op(k);
        }

        if c == 0 && k.is_multiple_of(sh.sz.append_every) {
            let j = own_appends;
            let seeds = (0..APPEND_BATCH)
                .map(|b| sh.inputs.first_seed + sh.inputs.base + j * APPEND_BATCH + b);
            let configs: Vec<CpuRunConfig> = seeds.map(quartz_profile).collect();
            let batch: Vec<Profile> = configs.iter().map(simulate_cpu_run).collect();
            log.out.attempted += 1;
            sh.appends.started.fetch_add(1, Ordering::SeqCst);
            tracer.set_group((1 << 62) | j as u64);
            let w0 = host::thread_wchar();
            let t = Instant::now();
            let res = if sh.cfg.traced {
                tracer.span("append", |tr| {
                    tr.span("store.append", |_| Store::append(&sh.dir, &batch))
                })
            } else {
                Store::append(&sh.dir, &batch)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            log.append_wchar += host::thread_wchar() - w0;
            match res {
                Ok(rep) => {
                    own_appends += 1;
                    sh.appends.done.fetch_add(1, Ordering::SeqCst);
                    log.appends_ms.push(ms);
                    let want = (sh.inputs.base + own_appends * APPEND_BATCH) as usize;
                    log.out.check(
                        rep.appended == APPEND_BATCH as usize && rep.profiles == want,
                        || {
                            format!(
                                "append {j}: appended {} to {} profiles, want {want}",
                                rep.appended, rep.profiles
                            )
                        },
                    );
                }
                Err(e) => log.fail(format!("append {j}: {e}")),
            }
        }
    }
    log.out.spans = tracer.into_spans();
    log
}

fn clone_reply(r: &Reply) -> Reply {
    match r {
        Reply::Status(s) => Reply::Status(s.clone()),
        Reply::Load(g, p) => Reply::Load(*g, p.clone()),
        Reply::Nodes(n, rows) => Reply::Nodes(n.clone(), *rows),
        Reply::Stats(s) => Reply::Stats(s.clone()),
    }
}

/// Checks that need nothing but the reply: read-your-writes on
/// `status`, the exact seed set on `load_matching`.
fn check_reply(
    sh: &Shared,
    c: usize,
    log: &mut ClientLog,
    reply: &Reply,
    lo: i64,
    own_appends: i64,
    done_before: u64,
) {
    let base = sh.inputs.base;
    match reply {
        Reply::Status(s) => {
            if c == 0 {
                // The only writer: its own appends must all be visible.
                let want = (base + own_appends * APPEND_BATCH) as usize;
                log.out.check(s.profiles == want, || {
                    format!(
                        "status after {own_appends} appends: {} profiles, want {want}",
                        s.profiles
                    )
                });
            } else {
                let lo_n = (base + done_before as i64 * APPEND_BATCH) as usize;
                let hi_n = (base + sh.appends.started.load(Ordering::SeqCst) as i64 * APPEND_BATCH)
                    as usize;
                log.out.check((lo_n..=hi_n).contains(&s.profiles), || {
                    format!("status: {} profiles, outside {lo_n}..={hi_n}", s.profiles)
                });
            }
        }
        Reply::Load(_, profiles) => {
            let got: BTreeSet<i64> = profiles
                .iter()
                .filter_map(|p| p.metadata("seed").and_then(|v| v.as_i64()))
                .collect();
            let want: BTreeSet<i64> = (lo..lo + WINDOW).collect();
            log.out
                .check(profiles.len() == WINDOW as usize && got == want, || {
                    format!(
                        "load_matching seeds {lo}..{}: got {} profiles {got:?}",
                        lo + WINDOW,
                        profiles.len()
                    )
                });
        }
        _ => {}
    }
}

/// The in-process answer for one window: call-path query nodes and
/// perf rows, and the per-node reduction of `METRIC`.
struct Expected {
    nodes: u64,
    rows: usize,
    stats: StatsDigest,
}

fn expected(reader: &StoreReader, lo: i64) -> Result<Expected, String> {
    let expr = parse_pred(&format!("seed >= {lo} and seed < {}", lo + WINDOW))
        .map_err(|e| e.to_string())?;
    let sel = reader.select_expr(&expr).map_err(|e| e.to_string())?;
    let (profiles, _) = reader.load_indices(&sel, 1).map_err(|e| e.to_string())?;
    let stats = StatsDigest::of(&reduce(&profiles));
    let (tk, _) = Thicket::loader(profiles)
        .load()
        .map_err(|e| e.to_string())?;
    let q = tk.query_str(QUERY).map_err(|e| e.to_string())?;
    let g = q.graph();
    Ok(Expected {
        nodes: hash_of(
            &g.ids()
                .map(|id| g.node(id).name().to_string())
                .collect::<Vec<_>>(),
        ),
        rows: q.perf_data().len(),
        stats,
    })
}

/// Count, mean, min and max of `METRIC` per node name, first-seen
/// order over the profiles in store order.
fn reduce(profiles: &[Profile]) -> Vec<NodeStat> {
    let mut order: Vec<String> = Vec::new();
    let mut acc: BTreeMap<String, (u64, f64, f64, f64)> = BTreeMap::new();
    for p in profiles {
        let g = p.graph();
        for id in g.ids() {
            let Some(v) = p.metric(id, METRIC) else {
                continue;
            };
            let name = g.node(id).name();
            let e = acc.entry(name.to_string()).or_insert_with(|| {
                order.push(name.to_string());
                (0, 0.0, f64::INFINITY, f64::NEG_INFINITY)
            });
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
    }
    order
        .into_iter()
        .map(|node| {
            let (count, sum, min, max) = acc[&node];
            NodeStat {
                node,
                count,
                mean: sum / count as f64,
                min,
                max,
            }
        })
        .collect()
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A `node_stats` reply in a few bytes, so replies can be kept for the
/// whole run without the benchmark's own memory growing with the
/// request rate: node names and counts exactly, values as sums
/// (compared with a relative tolerance, so a reordered summation in
/// the server still passes).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StatsDigest {
    names: u64,
    counts: u64,
    sums: [f64; 3],
}

impl StatsDigest {
    fn of(rows: &[NodeStat]) -> StatsDigest {
        let names: Vec<&str> = rows.iter().map(|r| r.node.as_str()).collect();
        let counts: Vec<u64> = rows.iter().map(|r| r.count).collect();
        let mut sums = [0.0; 3];
        for r in rows {
            sums[0] += r.mean;
            sums[1] += r.min;
            sums[2] += r.max;
        }
        StatsDigest {
            names: hash_of(&names),
            counts: hash_of(&counts),
            sums,
        }
    }

    fn matches(&self, want: &StatsDigest) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        self.names == want.names
            && self.counts == want.counts
            && self.sums.iter().zip(&want.sums).all(|(&a, &b)| close(a, b))
    }
}

/// Check every `query_nodes` and `node_stats` reply against the
/// in-process answer for its window (computed once per window, on two
/// threads, after the measured phase).
fn verify_replies(out: &mut Outcome, inputs: &Inputs, logs: &[ClientLog]) -> Result<(), String> {
    let windows: BTreeSet<i64> = logs
        .iter()
        .flat_map(|l| {
            l.queries
                .iter()
                .map(|q| q.0)
                .chain(l.stats.iter().map(|s| s.0))
        })
        .collect();
    let windows: Vec<i64> = windows.into_iter().collect();
    let dir = inputs.dir();
    let halves: Vec<Result<BTreeMap<i64, Expected>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = windows
            .chunks(windows.len().div_ceil(2).max(1))
            .map(|chunk| {
                let dir = &dir;
                s.spawn(move || {
                    let reader = Store::open(dir).map_err(|e| e.to_string())?;
                    chunk
                        .iter()
                        .map(|&lo| expected(&reader, lo).map(|e| (lo, e)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("verifier thread panicked".into()))
            })
            .collect()
    });
    let mut want = BTreeMap::new();
    for half in halves {
        want.extend(half?);
    }
    for log in logs {
        for (lo, nodes, rows) in &log.queries {
            let w = &want[lo];
            out.check(*nodes == w.nodes && *rows == w.rows, || {
                format!(
                    "query_nodes for seeds {lo}..: {rows} rows, want {}; node names differ: {}",
                    w.rows,
                    *nodes != w.nodes
                )
            });
        }
        for (lo, digest) in &log.stats {
            out.check(digest.matches(&want[lo].stats), || {
                format!("node_stats for seeds {lo}.. differs from the in-process reduction")
            });
        }
    }
    out.notes.push(format!(
        "{} distinct windows verified in-process",
        windows.len()
    ));
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let sz = sizes(cfg.tiny);
    let mut calib = Calibrator::new();
    let (mut inputs, setup_time) = repeated_setup(&mut calib, || setup(cfg, &sz))?;
    let dir = inputs.dir();
    // One untimed request of each verb first, so caches fill before
    // timing starts.
    let warm = ThicketClient::new(inputs.addr());
    let pred = format!(
        "seed >= {} and seed < {}",
        inputs.first_seed,
        inputs.first_seed + WINDOW
    );
    for verb in VERBS {
        call(&warm, verb, &pred).map_err(|e| format!("warm-up {verb:?}: {e}"))?;
    }
    drop(warm);
    let bytes_before = host::dir_bytes(&dir);
    let shared = Shared {
        cfg,
        sz: &sz,
        inputs: &inputs,
        dir: dir.clone(),
        addr: inputs.addr(),
        epoch: Instant::now(),
        phase_s: PHASE.as_secs_f64().min(cfg.seconds / 20.0),
        appends: AppendCounters::default(),
        answered: AtomicU64::new(0),
        rss: Mutex::new(PeakRss::begin(RSS_REQUESTS)),
    };
    let run_cpu = CpuMeter::start();
    let kernel_ms_before = calib.spent_ms();
    let mut window_cpu_ms = Vec::new();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || client_loop(shared, c))
            })
            .collect();
        // This thread has nothing else to do while the clients run: in
        // each window of an untraced run it runs the reference kernel,
        // and at the window's end it samples the process's CPU time (the
        // kernel's taken out) and the requests answered.
        let window = CPU_WINDOW.min(Duration::from_secs_f64(cfg.seconds / 40.0));
        let cpu_now =
            |calib: &Calibrator| run_cpu.elapsed_ms() - (calib.spent_ms() - kernel_ms_before);
        let mut last = (cpu_now(&calib), shared.answered.load(Ordering::SeqCst));
        let mut end = window;
        while end.as_secs_f64() <= cfg.seconds {
            if !cfg.traced {
                calib.sample(WINDOW_KERNELS);
            }
            std::thread::sleep(end.saturating_sub(shared.epoch.elapsed()));
            let now = (cpu_now(&calib), shared.answered.load(Ordering::SeqCst));
            if now.1 > last.1 {
                window_cpu_ms.push((now.0 - last.0) / (now.1 - last.1) as f64);
            }
            last = now;
            end += window;
        }
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<_, _>>()
    })
    .map_err(|_| "a client thread panicked".to_string())?;
    let wall_s = shared.epoch.elapsed().as_secs_f64();
    let cpu_ms = run_cpu.elapsed_ms() - (calib.spent_ms() - kernel_ms_before);
    let mut out = Outcome::default();
    let rss = shared
        .rss
        .into_inner()
        .map_err(|_| "peak RSS reader poisoned".to_string())?;
    rss.finish(&mut out);

    let server = inputs.server.take().expect("server runs until the end");
    let (served, shed) = (server.served(), server.shed());
    server.shutdown();
    let leases = host::files_with_prefix(&dir, "pin-").len();
    out.check(leases == 0, || {
        format!("{leases} pin-* lease files left after shutdown")
    });

    for log in &logs {
        out.attempted += log.out.attempted;
        out.failed += log.out.failed;
        out.notes.extend(log.out.notes.iter().cloned());
        for f in &log.out.check_failures {
            out.check(false, || f.clone());
        }
    }
    verify_replies(&mut out, &inputs, &logs)?;

    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let lat = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
    };
    let keys: BTreeSet<(Verb, i64)> = samples
        .iter()
        .map(|s| (s.verb, if s.verb == Verb::Status { 0 } else { s.window }))
        .collect();
    let repeat_share = 1.0 - keys.len() as f64 / samples.len().max(1) as f64;
    let appends: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.appends_ms.iter().copied())
        .collect();
    out.notes.push(format!(
        "{} requests + {} appends in {wall_s:.1} s on {CLIENTS} connections; repeated (verb, window) share {repeat_share:.3}",
        samples.len(),
        appends.len()
    ));

    if !cfg.traced {
        let all = lat(&|_| true);
        let per_op = cpu_ms / all.len().max(1) as f64;
        report_cpu(&mut out, &calib, setup_time, median(&window_cpu_ms), per_op);
        out.named("req_ms_p50", median(&all), "ms");
        out.named("req_ms_p90", quantile(&all, 0.9), "ms");
        out.named("req_per_s", all.len() as f64 / wall_s, "1/s");
        out.named("append_ms_p50", median(&appends), "ms");
        for verb in VERBS {
            let name = match verb {
                Verb::Status => "status_ms_p50",
                Verb::Load => "load_ms_p50",
                Verb::Query => "query_ms_p50",
                Verb::Stats => "stats_ms_p50",
            };
            out.named(name, median(&lat(&|s| s.verb == verb)), "ms");
        }
        out.named("repeat_share", repeat_share, "ratio");
        return Ok(out);
    }

    // Per-layer figures from the traced phases.
    let spans: Vec<Span> = logs
        .iter()
        .flat_map(|l| l.out.spans.iter().cloned())
        .collect();
    let layer = |name: &str| median(&span::per_group_ms(&spans, name));
    let flat = |f: &dyn Fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    out.set("store.open_ms", layer("store.open"));
    out.set("store.select_ms", layer("store.select"));
    out.set("store.read_ms", layer("store.read"));
    out.set("store.bytes_read", median(&flat(&|l| &l.shard_bytes)));
    out.set("store.read_mib_per_s", median(&flat(&|l| &l.read_rate)));
    out.set("core.compose_ms", layer("core.compose"));
    out.set(
        "core.rows",
        logs.iter().find_map(|l| l.rows).unwrap_or(0) as f64,
    );
    out.set("core.query_ms", layer("core.query"));
    out.set("query.parse_us", layer("query.parse") * 1e3);
    for (verb, p50, unacc) in [
        (
            Verb::Status,
            "serve.status_ms_p50",
            "serve.status_unaccounted_ms",
        ),
        (Verb::Load, "serve.load_ms_p50", "serve.load_unaccounted_ms"),
        (
            Verb::Query,
            "serve.query_ms_p50",
            "serve.query_unaccounted_ms",
        ),
        (
            Verb::Stats,
            "serve.stats_ms_p50",
            "serve.stats_unaccounted_ms",
        ),
    ] {
        out.set(p50, median(&lat(&|s| s.verb == verb && !s.traced)));
        out.set(unacc, median(&unaccounted(&spans, verb.span_name())));
    }
    out.set(
        "serve.encode_ms",
        median(&load_codec(&spans, "serve.encode")),
    );
    out.set(
        "serve.decode_ms",
        median(&load_codec(&spans, "serve.decode")),
    );
    out.set(
        "serve.response_bytes",
        median(&flat(&|l| &l.response_bytes)),
    );
    out.set("serve.served", served as f64);
    out.set("serve.shed", shed as f64);
    set_writer_metrics(&mut out, &appends, &logs, &dir, bytes_before);
    let traced_lat = lat(&|s| s.traced);
    let untraced_lat = lat(&|s| !s.traced);
    out.set(
        "tracing.overhead_pct",
        (median(&traced_lat) / median(&untraced_lat) - 1.0) * 100.0,
    );
    out.spans = spans;
    Ok(out)
}

/// Per traced request of the verb whose client span is `verb_span`:
/// client latency minus the replayed layer spans (store, parse,
/// compose, query, codec) — the wire, queue and dispatch time.
fn unaccounted(spans: &[Span], verb_span: &str) -> Vec<f64> {
    let mut by_group: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut has_verb = BTreeSet::new();
    for s in spans {
        if s.name == verb_span {
            by_group.entry(s.group).or_default().0 += s.ms();
            has_verb.insert(s.group);
        } else if span::is_layer(s.name) {
            by_group.entry(s.group).or_default().1 += s.ms();
        }
    }
    by_group
        .into_iter()
        .filter(|(g, _)| has_verb.contains(g))
        .map(|(_, (latency, layers))| latency - layers)
        .collect()
}

/// Codec span durations on `load_matching` replies only.
fn load_codec(spans: &[Span], name: &str) -> Vec<f64> {
    let load_groups: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "serve.load")
        .map(|s| s.group)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && load_groups.contains(&s.group))
        .map(Span::ms)
        .collect()
}

fn set_writer_metrics(
    out: &mut Outcome,
    appends: &[f64],
    logs: &[ClientLog],
    dir: &Path,
    bytes_before: u64,
) {
    let (head, tail) = append_head_tail_ms(appends);
    let wchar: u64 = logs.iter().map(|l| l.append_wchar).sum();
    let growth = host::dir_bytes(dir).saturating_sub(bytes_before);
    out.set("store.append_ms_p50", median(appends));
    out.set("store.append_ms_first10", head);
    out.set("store.append_ms_last10", tail);
    out.set("store.commits", appends.len() as f64);
    out.set("store.manifest_bytes", manifest_bytes(dir) as f64);
    out.set("store.write_bytes", wchar as f64);
    if growth > 0 {
        out.set("store.write_amp", wchar as f64 / growth as f64);
    }
}
