//! The pull-based ingest abstraction behind [`Loader`](crate::Loader).
//!
//! [`ProfileSource`] is the one interface the loader's streaming path
//! consumes: a batched pull model (`next_chunk`) that a source fills
//! from wherever its profiles live — a loose-JSON ensemble directory
//! ([`EnsembleSource`]), a pinned store snapshot ([`StoreSource`]), a
//! raw event trace that never fits in memory ([`TraceSource`]), or a
//! custom producer. Profiles already in memory skip the trait: the
//! loader composes a borrowed or owned slice directly.
//!
//! The chunk protocol is what makes bounded-memory ingest possible: the
//! loader builds each chunk into its own thicket as it arrives (under
//! the load's strictness) and pools the chunk thickets once at the end
//! ([`concat_thickets_rows`](crate::concat_thickets_rows)), so at no
//! point does a fully-materialized input list exist — only one chunk of
//! profiles plus the columnar chunk thickets. Sources that are cheap to
//! materialize simply yield one chunk — the trait costs them nothing.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Duration;

use thicket_dataframe::PredExpr;
use thicket_perfsim::{
    default_threads, load_dir, DiagKind, IngestReport, Profile, Snapshot, Store, Strictness,
    TraceError, TraceReader,
};

use crate::thicket::ThicketError;
use crate::trace_agg::TraceAggregator;

/// A pull-based, chunked supplier of profiles — the one interface
/// [`Loader`](crate::Loader) consumes for every source kind.
///
/// The loader drives a source like this:
///
/// 1. If a filter is set, it asks [`meta_keys`](ProfileSource::meta_keys)
///    which fields the source can answer (an error there fails the
///    load), splits the predicate there (planner pushdown), and offers
///    the pushable part via
///    [`push_filter`](ProfileSource::push_filter). A source that returns
///    `false` gets the filter applied by the loader on each chunk
///    instead.
/// 2. It pulls [`next_chunk`](ProfileSource::next_chunk) until `None`,
///    building each chunk into a thicket, then pools the chunk
///    thickets once.
/// 3. It collects [`take_report`](ProfileSource::take_report) and merges
///    it with the composition accounting.
///
/// Implement this to feed a thicket from a custom producer (a socket, a
/// generator, a foreign format) via
/// [`LoadSource::custom`](crate::LoadSource::custom).
pub trait ProfileSource {
    /// Pull the next batch of profiles. `Ok(None)` means the source is
    /// exhausted; an empty `Vec` is never returned in place of `None`.
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError>;

    /// The metadata fields this source can answer predicates about,
    /// for planner pushdown. Called once, before the first chunk, and
    /// only when the load has a filter.
    fn meta_keys(&mut self) -> Result<BTreeSet<String>, ThicketError>;

    /// Offer the pushable predicate part to the source. Return `true`
    /// to claim it (subsequent chunks must already satisfy it); return
    /// `false` (the default) and the loader evaluates it per chunk.
    fn push_filter(&mut self, _expr: &PredExpr) -> bool {
        false
    }

    /// Read-phase accounting: sources attempted/loaded and any
    /// diagnostics, gathered across all chunks. Called once, after the
    /// final chunk. The default (an empty report) tells the loader the
    /// source has no read phase of its own — composition accounting
    /// stands alone, as it always has for in-memory loads.
    fn take_report(&mut self) -> IngestReport {
        IngestReport::default()
    }
}

/// Adapter: a loose-JSON ensemble directory
/// ([`thicket_perfsim::ensemble`]) as a one-chunk source.
pub struct EnsembleSource {
    dir: PathBuf,
    threads: Option<usize>,
    strictness: Strictness,
    loaded: Option<(Vec<Profile>, IngestReport)>,
    done: bool,
}

impl EnsembleSource {
    /// Read the directory under the given worker count and strictness.
    pub fn new(dir: impl AsRef<Path>, threads: Option<usize>, strictness: Strictness) -> Self {
        EnsembleSource {
            dir: dir.as_ref().to_path_buf(),
            threads,
            strictness,
            loaded: None,
            done: false,
        }
    }

    fn ensure_loaded(&mut self) -> Result<(), ThicketError> {
        if self.loaded.is_none() {
            let (profiles, report) = load_dir(&self.dir, self.threads, self.strictness)?;
            self.loaded = Some((profiles, report));
        }
        Ok(())
    }
}

impl ProfileSource for EnsembleSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        if self.done {
            return Ok(None);
        }
        self.ensure_loaded()?;
        self.done = true;
        let profiles = std::mem::take(&mut self.loaded.as_mut().expect("just loaded").0);
        if profiles.is_empty() {
            return Ok(None);
        }
        Ok(Some(profiles))
    }

    fn meta_keys(&mut self) -> Result<BTreeSet<String>, ThicketError> {
        self.ensure_loaded()?;
        Ok(profile_meta_keys(
            self.loaded.as_ref().expect("just loaded").0.iter(),
        ))
    }

    fn take_report(&mut self) -> IngestReport {
        self.loaded
            .take()
            .map(|(_, report)| report)
            .unwrap_or_default()
    }
}

/// Adapter: a pinned store snapshot as a one-chunk source.
///
/// The snapshot pins its generation (lease registered, shard handles
/// held), so concurrent appends, compaction, or GC can never tear the
/// read; dropping the source releases the pin. Selection (columnar
/// manifest predicate evaluation) happens without shard I/O, then one
/// pass reads the selected records. Strictness is enforced on that
/// read: fail-fast turns any diagnostic into an error, lenient fails
/// past its error budget.
pub struct StoreSource {
    snap: Snapshot,
    threads: Option<usize>,
    strictness: Strictness,
    expr: Option<PredExpr>,
    done: bool,
    report: IngestReport,
}

impl StoreSource {
    /// Wrap a pinned snapshot — the loader's own
    /// [`Store::open_pinned`] or a server's per-request pin — so every
    /// store read goes through the same selection and strictness
    /// machinery.
    pub fn from_snapshot(
        snap: Snapshot,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> StoreSource {
        StoreSource {
            snap,
            threads,
            strictness,
            expr: None,
            done: false,
            report: IngestReport::default(),
        }
    }
}

impl ProfileSource for StoreSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let total = self.snap.manifest().profiles.len();
        let selected = match &self.expr {
            Some(expr) => self.snap.select_expr(expr)?,
            None => (0..total).collect(),
        };
        let threads = self.threads.unwrap_or_else(|| default_threads(total));
        let (profiles, read) = self.snap.load_indices(&selected, threads)?;
        if matches!(self.strictness, Strictness::FailFast) && !read.is_clean() {
            return Err(ThicketError::Invalid(format!(
                "store load failed under fail-fast strictness ({})",
                read.summary()
            )));
        }
        if let Strictness::Lenient { max_errors } = self.strictness {
            if read.diagnostics.len() > max_errors {
                return Err(ThicketError::Invalid(format!(
                    "store load exceeded the lenient error budget of {max_errors} ({})",
                    read.summary()
                )));
            }
        }
        self.report = read;
        Ok((!profiles.is_empty()).then_some(profiles))
    }

    fn meta_keys(&mut self) -> Result<BTreeSet<String>, ThicketError> {
        Ok(self.snap.meta_keys())
    }

    fn push_filter(&mut self, expr: &PredExpr) -> bool {
        self.expr = Some(expr.clone());
        true
    }

    fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.report)
    }
}

/// Streaming source: a raw event trace folded into per-rank (and, with
/// a window length, per-window) call-tree profiles in bounded memory.
///
/// Each [`ProfileSource::next_chunk`] reads at most
/// [`chunk_events`](TraceSource::chunk_events) events, pushes them into
/// a [`TraceAggregator`], and returns any windows that closed. The full
/// trace is never materialized: resident state is the per-rank graphs,
/// open-frame stacks, and accumulator rows — O(tree depth × ranks), not
/// O(events).
pub struct TraceSource<R: BufRead> {
    reader: Option<TraceReader<R>>,
    agg: Option<TraceAggregator>,
    chunk_events: usize,
    meta_keys: BTreeSet<String>,
    report: Option<IngestReport>,
}

impl TraceSource<BufReader<File>> {
    /// Open a trace file. Window `None` aggregates the whole trace into
    /// one profile per rank.
    pub fn open(
        path: impl AsRef<Path>,
        window: Option<Duration>,
        strictness: Strictness,
    ) -> Result<Self, ThicketError> {
        let path = path.as_ref();
        let reader = TraceReader::open(path)
            .map_err(|e| ThicketError::Invalid(format!("trace {}: {e}", path.display())))?;
        Ok(TraceSource::from_reader_labeled(
            reader,
            window,
            strictness,
            path.display().to_string(),
        ))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Wrap an already-open [`TraceReader`] (any `BufRead`, e.g. an
    /// in-memory cursor in tests).
    pub fn from_reader(
        reader: TraceReader<R>,
        window: Option<Duration>,
        strictness: Strictness,
    ) -> Self {
        TraceSource::from_reader_labeled(reader, window, strictness, "trace".to_string())
    }

    fn from_reader_labeled(
        reader: TraceReader<R>,
        window: Option<Duration>,
        strictness: Strictness,
        label: String,
    ) -> Self {
        let metadata = reader.metadata().to_vec();
        let mut meta_keys: BTreeSet<String> =
            metadata.iter().map(|(k, _)| k.clone()).collect();
        // The aggregator stamps these onto every emitted profile.
        meta_keys.insert("rank".to_string());
        meta_keys.insert("window".to_string());
        meta_keys.insert("window start (ns)".to_string());
        let agg = TraceAggregator::new(metadata, window, strictness).with_source_label(label);
        TraceSource {
            reader: Some(reader),
            agg: Some(agg),
            chunk_events: 4096,
            meta_keys,
            report: None,
        }
    }

    /// Events read per [`ProfileSource::next_chunk`] call (default
    /// 4096). Smaller chunks lower peak memory; larger amortize parse
    /// overhead.
    pub fn chunk_events(mut self, n: usize) -> Self {
        self.chunk_events = n.max(1);
        self
    }

    /// Stop reading and close out the aggregator, stashing the final
    /// profiles (returned) and the ingest report.
    fn finish(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        self.reader = None;
        let agg = self.agg.take().expect("aggregator finished twice");
        let (profiles, report) = agg.finish()?;
        self.report = Some(report);
        if profiles.is_empty() {
            Ok(None)
        } else {
            Ok(Some(profiles))
        }
    }
}

impl<R: BufRead> ProfileSource for TraceSource<R> {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        loop {
            if self.reader.is_none() {
                return Ok(None);
            }
            let events = match self
                .reader
                .as_mut()
                .expect("checked above")
                .next_events(self.chunk_events)
            {
                Ok(events) => events,
                Err(TraceError::Io(e)) => {
                    return Err(ThicketError::Invalid(format!("trace read failed: {e}")));
                }
                Err(TraceError::Torn { line, message }) => {
                    // Fail-fast: record_failure errors. Lenient: the
                    // diagnostic is kept, every rank's current window is
                    // dropped, and whatever closed before the tear
                    // survives.
                    self.agg
                        .as_mut()
                        .expect("aggregator alive while reader is")
                        .record_failure(DiagKind::TornTrace { line, message })?;
                    return self.finish();
                }
            };
            let agg = self.agg.as_mut().expect("aggregator alive while reader is");
            if events.is_empty() {
                return self.finish();
            }
            agg.push_events(&events)?;
            if !agg.ready_is_empty() {
                return Ok(Some(agg.drain_ready()));
            }
        }
    }

    fn meta_keys(&mut self) -> Result<BTreeSet<String>, ThicketError> {
        Ok(self.meta_keys.clone())
    }

    fn take_report(&mut self) -> IngestReport {
        self.report.take().unwrap_or_default()
    }
}

/// Stream a trace file straight into a sharded store, one window batch
/// at a time, with **no intermediate thicket**: each chunk of closed
/// windows is committed via [`Store::append`] (first batch
/// [`Store::save`] if the directory is not yet a store) and dropped.
/// Peak memory is the aggregator state plus one batch of profiles.
///
/// Returns the trace's ingest report plus the number of profiles
/// written.
pub fn trace_to_store(
    trace: impl AsRef<Path>,
    store_dir: impl AsRef<Path>,
    window: Option<Duration>,
    strictness: Strictness,
) -> Result<(IngestReport, usize), ThicketError> {
    let store_dir = store_dir.as_ref();
    let mut src = TraceSource::open(trace, window, strictness)?;
    let mut have_store = Store::open(store_dir).is_ok();
    let mut written = 0usize;
    while let Some(profiles) = src.next_chunk()? {
        if have_store {
            Store::append(store_dir, &profiles)?;
        } else {
            Store::save(store_dir, &profiles)?;
            have_store = true;
        }
        written += profiles.len();
    }
    Ok((src.take_report(), written))
}

/// Union of metadata keys across profiles: what an in-memory or
/// ensemble source can answer before composition.
pub(crate) fn profile_meta_keys<'p>(
    profiles: impl Iterator<Item = &'p Profile>,
) -> BTreeSet<String> {
    profiles
        .flat_map(|p| p.metadata_iter().map(|(k, _)| k.to_string()))
        .collect()
}
