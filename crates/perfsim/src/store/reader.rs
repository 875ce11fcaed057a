// ---------------------------------------------------------------------
// Reader with metadata pushdown, plus generation-pinned snapshots.
// ---------------------------------------------------------------------

use super::crc::crc32c;
use super::layout::{manifest_name, newest_manifest_key};
use super::lease::{self, LeaseCore};
use super::manifest::{Manifest, StoreEntry};
use super::{Store, StoreError, StoreOptions, RECORD_HEADER_BYTES};
use crate::backoff::Backoff;
use crate::ingest::{DiagKind, Diagnostic, IngestReport};
use crate::parallel::{parallel_map_catch, JobFailure};
use crate::profile::Profile;
use parking_lot::Mutex;
use std::cell::{Cell, OnceCell};
use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::ops::Deref;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use thicket_dataframe::{BoundSource, PredExpr};

/// A read handle on one verified generation.
///
/// All loads are lenient in the ingest sense: corrupt records surface
/// as typed diagnostics in an [`IngestReport`], byte-identical for any
/// worker-thread count, and the healthy subset is returned.
///
/// Cloning is cheap: a clone shares the parsed manifest and any held
/// shard handles, and starts with `bytes_read() == 0` because it read
/// nothing itself.
pub struct StoreReader {
    dir: PathBuf,
    manifest: Arc<Manifest>,
    /// Bytes read so far (manifest probing + shard headers, payloads,
    /// and magics), for pushdown accounting.
    bytes_read: Cell<u64>,
    /// Entries with metadata materialized out of the columnar index
    /// (built on first [`StoreReader::entries`] call).
    materialized: OnceCell<Vec<StoreEntry>>,
    /// Open handles on every shard file, in shard order — present once
    /// the reader is pinned. An unlinked-but-open file keeps serving
    /// reads, so GC by any process cannot tear a pinned load. Reads go
    /// through positional `pread`s, never the shared file offset, so
    /// clones can read one handle set from many threads at once.
    handles: Option<Arc<[File]>>,
}

impl Clone for StoreReader {
    fn clone(&self) -> StoreReader {
        StoreReader {
            dir: self.dir.clone(),
            manifest: Arc::clone(&self.manifest),
            bytes_read: Cell::new(0),
            materialized: OnceCell::new(),
            handles: self.handles.clone(),
        }
    }
}

impl StoreReader {
    pub(crate) fn new(dir: PathBuf, manifest: Manifest, manifest_bytes: u64) -> StoreReader {
        StoreReader {
            dir,
            manifest: Arc::new(manifest),
            bytes_read: Cell::new(manifest_bytes),
            materialized: OnceCell::new(),
            handles: None,
        }
    }

    /// Pin this reader's generation with default [`StoreOptions`]: see
    /// [`StoreReader::pin_opts`].
    pub fn pin(self) -> Result<Snapshot, StoreError> {
        self.pin_opts(&StoreOptions::default())
    }

    /// Turn this reader into a generation-pinned [`Snapshot`].
    ///
    /// Pinning does two things, in this order:
    ///
    /// 1. registers a **lease** (`pin-<gen>-<pid>-<token>` file) that
    ///    tells every GC — this process or another — to keep the
    ///    generation's files;
    /// 2. opens a **handle** on every shard file, so even a GC that
    ///    never saw the lease (it scanned just before the file
    ///    appeared) cannot tear reads: an unlinked-but-open file keeps
    ///    serving.
    ///
    /// If the generation was collected in the window between
    /// [`Store::open`] and the handle opens, the pin fails with a
    /// retryable [`StoreError::NoGeneration`] — [`Store::open_pinned`]
    /// wraps the open-pin-retry loop. On read-only media (where no
    /// lease file can be written, but no GC can run either) the
    /// snapshot degrades to handle-only pinning.
    ///
    /// A reader that already holds handles (a clone of a pinned
    /// reader, or one kept by [`Snapshot::into_reader`]) only takes the
    /// lease: its held handles already keep reads from tearing.
    pub fn pin_opts(mut self, opts: &StoreOptions) -> Result<Snapshot, StoreError> {
        let gen = self.manifest.generation;
        let lease = lease::acquire(&self.dir, gen, opts.lease_ttl)?;
        if self.handles.is_none() {
            let mut handles = Vec::with_capacity(self.manifest.shards.len());
            for info in &self.manifest.shards {
                match File::open(self.dir.join(&info.file)) {
                    Ok(f) => handles.push(f),
                    Err(e) => {
                        return Err(StoreError::NoGeneration(format!(
                            "generation {gen} was collected while pinning ({}: {e}); \
                             reopen and retry",
                            info.file
                        )));
                    }
                }
            }
            // The manifest itself must still exist *after* the lease
            // and handles are in place — if it does, either GC saw our
            // lease (generation protected) or GC already passed
            // (handles protect us); if it does not, we raced a
            // collection and must retry.
            if !self.dir.join(manifest_name(gen)).exists() {
                return Err(StoreError::NoGeneration(format!(
                    "generation {gen} was collected while pinning; reopen and retry"
                )));
            }
            self.handles = Some(handles.into());
        }
        Ok(Snapshot {
            reader: self,
            lease,
        })
    }
    /// The generation this reader serves.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The manifest's per-profile index, in storage order, with
    /// metadata populated. This decodes **every** metadata column on
    /// first call (cached) — [`StoreReader::select_expr`] decodes only
    /// the predicate's keys, so prefer a [`PredExpr`] on hot paths.
    pub fn entries(&self) -> &[StoreEntry] {
        self.materialized.get_or_init(|| {
            let rows = self.manifest.meta_rows_lossy();
            self.manifest
                .profiles
                .iter()
                .zip(rows)
                .map(|(e, meta)| StoreEntry { meta, ..e.clone() })
                .collect()
        })
    }

    /// The manifest (shard descriptors included).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Every metadata key this store can answer predicates about
    /// without shard I/O: the columnar index keys. The loader's planner
    /// uses this to decide which conjuncts push below the read.
    pub fn meta_keys(&self) -> BTreeSet<String> {
        self.manifest
            .columns
            .iter()
            .map(|b| b.key().to_string())
            .collect()
    }

    /// Total bytes this reader has read so far — manifest bytes from
    /// [`Store::open`] plus shard I/O. Sparse selections are charged
    /// per record frame (`RECORD_HEADER_BYTES` + payload); dense
    /// selections bulk-read whole shard files and are charged the file
    /// size. Metadata-pushdown reads do strictly less I/O than a full
    /// load whenever the predicate excludes enough.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Entry indices (storage order) matching a predicate, without any
    /// shard I/O. Each named key binds its `MetaBlock` (values +
    /// presence mask) straight into the vectorized evaluator;
    /// unreferenced columns stay undecoded. A named column that fails
    /// to decode is [`StoreError::Corrupt`] (fsck classifies the
    /// damage).
    pub fn select_expr(&self, expr: &PredExpr) -> Result<Vec<usize>, StoreError> {
        let mut src = BoundSource::new(self.manifest.profiles.len());
        for key in expr.fields() {
            if let Some(b) = self.manifest.column(key) {
                let vals = b.values().map_err(StoreError::Corrupt)?;
                src.bind_slice(key, vals, Some(b.present()));
            }
            // A key no profile carries simply never matches: a missing
            // metadata key is false everywhere in the engine.
        }
        Ok(expr.eval(&src).positions())
    }

    /// Load every profile.
    pub fn load_all(&self) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        let n = self.manifest.profiles.len();
        let all: Vec<usize> = (0..n).collect();
        self.load_indices(&all, crate::parallel::default_threads(n))
    }

    /// Load the profiles matching a predicate: columnar selection
    /// ([`StoreReader::select_expr`]) followed by range reads that skip
    /// shards the predicate excludes entirely. `threads` is the worker
    /// count for the payload-decode fan-out; results and diagnostics
    /// are byte-identical for any `threads ≥ 1`.
    pub fn load_matching(
        &self,
        expr: &PredExpr,
        threads: usize,
    ) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        let selected = self.select_expr(expr)?;
        self.load_indices(&selected, threads)
    }

    /// Load the profiles at `selected` entry indices (storage order,
    /// as returned by [`StoreReader::select_expr`]), skipping shards
    /// with no selected member. This is the chunked-ingest primitive:
    /// select once, then load the matching indices a bounded batch at
    /// a time.
    pub fn load_indices(
        &self,
        selected: &[usize],
        threads: usize,
    ) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        let raw = self.read_records(selected)?;

        // Partition into decode jobs (payloads move, never copy — a
        // bulk-read shard is shared by all its records through the Arc)
        // and an ordered skeleton that remembers where failures sit.
        let mut order: Vec<(usize, Option<Diagnostic>)> = Vec::with_capacity(raw.len());
        let mut jobs: Vec<(usize, PayloadSlice)> = Vec::with_capacity(raw.len());
        for (i, r) in raw {
            match r {
                Ok(p) => {
                    jobs.push((i, p));
                    order.push((i, None));
                }
                Err(d) => order.push((i, Some(d))),
            }
        }
        // Per-record encoding dispatch: binary `TKP3` payloads decode
        // through the bounds-checked cursor, anything else through the
        // JSON parser — shards may mix encodings across generations.
        let parsed = parallel_map_catch(&jobs, threads, |(_, payload)| {
            crate::binprofile::decode_payload(payload.as_slice())
        });

        let mut profiles = Vec::with_capacity(jobs.len());
        let mut diagnostics = Vec::new();
        let mut parsed_iter = parsed.into_iter();
        for (i, d) in order {
            match d {
                Some(d) => diagnostics.push(d),
                None => match parsed_iter.next().expect("job per ok record") {
                    Ok(p) => profiles.push(p),
                    Err(JobFailure::Error(e)) => diagnostics.push(Diagnostic {
                        source: record_source(&self.manifest, i),
                        kind: DiagKind::from_profile_error(&e),
                    }),
                    Err(JobFailure::Panic(m)) => diagnostics.push(Diagnostic {
                        source: record_source(&self.manifest, i),
                        kind: DiagKind::WorkerPanic(m),
                    }),
                },
            }
        }
        let report = IngestReport {
            attempted: selected.len(),
            loaded: profiles.len(),
            diagnostics,
            pushdown: None,
        };
        Ok((profiles, report))
    }

    /// Read and verify the framed records at `selected` entry indices,
    /// shard by shard in storage order, skipping shards with no
    /// selected member (not even opened). One `(entry index,
    /// payload-or-diagnostic)` per selected index.
    pub(crate) fn read_records(&self, selected: &[usize]) -> Result<Records, StoreError> {
        let mut raw = Vec::with_capacity(selected.len());
        for si in 0..self.manifest.shards.len() {
            let members: Vec<usize> = selected
                .iter()
                .copied()
                .filter(|&i| self.manifest.profiles[i].shard == si)
                .collect();
            if !members.is_empty() {
                self.read_shard_members(si, &members, &mut raw)?;
            }
        }
        Ok(raw)
    }

    /// Read the framed records for `members` (entry indices, all in
    /// shard `si`), each frame verified by [`Self::read_frame`]. Pushes
    /// one `(entry index, payload-or-diagnostic)` per member, in member
    /// order.
    ///
    /// Dense selections (members cover at least half the shard's bytes)
    /// read the whole file once and hand every record an `Arc` slice of
    /// that buffer; sparse selections read each record's frame at its
    /// offset so skipped records cost no I/O. `bytes_read` reflects
    /// whichever actually happened.
    fn read_shard_members(
        &self,
        si: usize,
        members: &[usize],
        out: &mut Records,
    ) -> Result<(), StoreError> {
        let info = &self.manifest.shards[si];
        let member_frame_bytes: u64 = members
            .iter()
            .map(|&i| RECORD_HEADER_BYTES as u64 + self.manifest.profiles[i].len as u64)
            .sum();
        if member_frame_bytes.saturating_mul(2) >= info.bytes {
            return self.read_shard_bulk(si, members, out);
        }
        // A pinned reader reads its held handle, so reads survive the
        // file being unlinked underneath.
        let owned;
        let file: &File = match self.handles.as_ref().map(|hs| &hs[si]) {
            Some(f) => f,
            None => match File::open(self.dir.join(&info.file)) {
                Ok(f) => {
                    owned = f;
                    &owned
                }
                Err(e) => {
                    shard_unreadable(&info.file, members, &e, out);
                    return Ok(());
                }
            },
        };
        let file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
        for &i in members {
            let record = self.read_frame(i, file_len, |start, len| {
                let mut frame = vec![0u8; len];
                let read = file.read_exact_at(&mut frame, start);
                self.bytes_read.set(self.bytes_read.get() + len as u64);
                read.map(|()| (Arc::new(frame), 0))
            });
            out.push((i, record));
        }
        Ok(())
    }

    /// Dense-selection counterpart of [`Self::read_shard_members`]: one
    /// read of the whole shard, then every member's frame is verified
    /// against a shared `Arc` of that buffer. No per-record I/O, no
    /// per-record allocation.
    fn read_shard_bulk(
        &self,
        si: usize,
        members: &[usize],
        out: &mut Records,
    ) -> Result<(), StoreError> {
        let info = &self.manifest.shards[si];
        let whole = match self.handles.as_ref().map(|hs| &hs[si]) {
            // Pinned: read the held handle from offset 0 — works even
            // after the file is unlinked.
            Some(f) => f.metadata().and_then(|m| {
                let mut buf = vec![0u8; m.len() as usize];
                f.read_exact_at(&mut buf, 0).map(|()| buf)
            }),
            None => std::fs::read(self.dir.join(&info.file)),
        };
        let bytes = match whole {
            Ok(b) => Arc::new(b),
            Err(e) => {
                shard_unreadable(&info.file, members, &e, out);
                return Ok(());
            }
        };
        self.bytes_read
            .set(self.bytes_read.get() + bytes.len() as u64);
        let file_len = bytes.len() as u64;
        for &i in members {
            let record = self.read_frame(i, file_len, |start, _| {
                Ok((Arc::clone(&bytes), start as usize))
            });
            out.push((i, record));
        }
        Ok(())
    }

    /// The one record-frame check both read paths share. In order:
    ///
    /// 1. **Torn-range guard.** Manifest parsing already bounds every
    ///    entry against its shard's *declared* size; this re-checks
    ///    against the file's *actual* size `file_len` (overflow-proof)
    ///    before the length is used to allocate or slice, so a
    ///    truncated file or a stale manifest can never trigger an
    ///    oversized read → [`DiagKind::TornShard`].
    /// 2. **Fetch.** `fetch(frame_start, frame_len)` yields a buffer
    ///    and the frame's start within it (`[u32 len][u32 crc][payload]`)
    ///    — a fresh read on the sparse path, the shared whole-shard
    ///    buffer on the dense path. An I/O error → [`DiagKind::Io`].
    /// 3. **Header and payload CRC.** The framed length and CRC must
    ///    match the manifest entry, and the payload must hash to it →
    ///    otherwise [`DiagKind::ChecksumMismatch`].
    fn read_frame(
        &self,
        i: usize,
        file_len: u64,
        fetch: impl FnOnce(u64, usize) -> io::Result<(Arc<Vec<u8>>, usize)>,
    ) -> Result<PayloadSlice, Diagnostic> {
        let entry = &self.manifest.profiles[i];
        let shard = &self.manifest.shards[entry.shard].file;
        let diag = |kind| Diagnostic {
            source: record_source(&self.manifest, i),
            kind,
        };
        let payload_end = entry.offset.checked_add(entry.len as u64);
        if payload_end.is_none_or(|end| end > file_len) || entry.offset < RECORD_HEADER_BYTES as u64
        {
            return Err(diag(DiagKind::TornShard {
                shard: shard.clone(),
            }));
        }
        let frame_len = RECORD_HEADER_BYTES + entry.len as usize;
        let (bytes, start) = fetch(entry.offset - RECORD_HEADER_BYTES as u64, frame_len)
            .map_err(|e| diag(DiagKind::Io(format!("{shard}: {e}"))))?;
        let header = &bytes[start..start + RECORD_HEADER_BYTES];
        let framed_len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let framed_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let range = start + RECORD_HEADER_BYTES..start + frame_len;
        if framed_len == entry.len
            && framed_crc == entry.crc
            && crc32c(&bytes[range.clone()]) == entry.crc
        {
            Ok(PayloadSlice { bytes, range })
        } else {
            Err(diag(DiagKind::ChecksumMismatch {
                shard: shard.clone(),
                record: record_index_of(&self.manifest, i),
            }))
        }
    }
}

/// The whole shard is unreadable: every member gets the same
/// classified diagnostic.
fn shard_unreadable(file: &str, members: &[usize], e: &io::Error, out: &mut Records) {
    for &i in members {
        out.push((
            i,
            Err(Diagnostic {
                source: file.to_string(),
                kind: DiagKind::Io(format!("{file}: {e}")),
            }),
        ));
    }
}

/// Read records in selection order: `(entry index, payload or the
/// diagnostic that replaced it)`.
pub(crate) type Records = Vec<(usize, Result<PayloadSlice, Diagnostic>)>;

/// A record payload: a range of either its own frame buffer (sparse
/// positional reads) or a whole-shard read shared by every record in the
/// shard (dense bulk reads). Decoders borrow the slice either way —
/// nothing is copied between disk and the parser.
pub(crate) struct PayloadSlice {
    bytes: Arc<Vec<u8>>,
    range: std::ops::Range<usize>,
}

impl PayloadSlice {
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes[self.range.clone()]
    }
}

/// `shard-file#record-index` label for a record-scoped diagnostic.
/// Walks the manifest, so only call it on the error path.
fn record_source(m: &Manifest, i: usize) -> String {
    format!(
        "{}#{}",
        m.shards[m.profiles[i].shard].file,
        record_index_of(m, i)
    )
}

/// Zero-based record index of entry `i` within its shard (entries are
/// stored in offset order per shard).
pub(crate) fn record_index_of(m: &Manifest, i: usize) -> usize {
    let e = &m.profiles[i];
    m.profiles
        .iter()
        .filter(|o| o.shard == e.shard && o.offset < e.offset)
        .count()
}

// ---------------------------------------------------------------------
// Pinned snapshots.
// ---------------------------------------------------------------------

/// A generation-pinned [`StoreReader`]: shard handles held open (reads
/// survive unlink) and a GC lease registered (GC skips the generation
/// while the snapshot lives). Created by [`StoreReader::pin`] /
/// [`Store::open_pinned`]; derefs to [`StoreReader`], so every load
/// and select method is available unchanged.
///
/// In-process snapshots of the same (directory, generation) share one
/// lease file via a refcount; dropping the last snapshot removes it.
/// Using the snapshot heartbeats the lease (re-touches its mtime) so
/// long-lived pins are not mistaken for leaks by other processes' GC.
pub struct Snapshot {
    reader: StoreReader,
    /// `None` on read-only media: no lease file could be written, but
    /// no GC can run there either, so handles alone suffice.
    lease: Option<Arc<LeaseCore>>,
}

impl Snapshot {
    /// Whether a lease file backs this snapshot (false only on
    /// read-only media, where the pin degrades to handle-only).
    pub fn leased(&self) -> bool {
        self.lease.is_some()
    }

    /// The lease file's name in the store directory, if one exists.
    pub fn lease_file(&self) -> Option<String> {
        self.lease.as_ref().map(|l| l.file_name().to_string())
    }

    /// Unpin: keep the reader (and its open shard handles — already-
    /// possible reads stay possible) but drop the lease, letting GC
    /// collect the generation's directory entries.
    pub fn into_reader(self) -> StoreReader {
        self.reader
    }
}

impl Deref for Snapshot {
    type Target = StoreReader;

    fn deref(&self) -> &StoreReader {
        if let Some(lease) = &self.lease {
            lease.maybe_heartbeat();
        }
        &self.reader
    }
}

/// Open + pin with a bounded retry loop: the window between reading
/// the newest manifest and opening its shard handles can race a
/// concurrent GC (surfacing as a retryable
/// [`StoreError::NoGeneration`]); every retry re-opens whatever
/// generation is newest *now*. Non-retryable errors return
/// immediately.
pub(crate) fn open_pinned(dir: &Path, opts: &StoreOptions) -> Result<Snapshot, StoreError> {
    let mut backoff = Backoff::new(
        std::time::Duration::from_micros(100),
        std::time::Duration::from_millis(20),
        opts.backoff_seed,
    );
    let mut last = None;
    for attempt in 0..32 {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match Store::open(dir).and_then(|r| r.pin_opts(opts)) {
            Ok(snap) => return Ok(snap),
            Err(e @ StoreError::NoGeneration(_)) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("32 attempts recorded an error"))
}

// ---------------------------------------------------------------------
// Pin cache: one manifest parse per generation.
// ---------------------------------------------------------------------

/// Pins the newest generation of one store directory, parsing each
/// generation's manifest once instead of once per pin — the
/// per-request pin of a long-running server.
///
/// Every [`PinCache::pin`] lists the directory once (no per-entry
/// `stat`) for the newest `MANIFEST-*` name and its inode. While that
/// key is unchanged, the pin clones the cached reader — sharing its
/// parsed manifest and open shard handles — and only takes a lease.
/// When the key changes (a commit, a [`Store::recover`] rollback, a
/// store deleted and re-saved under the same generation number), the
/// pin runs [`Store::open_pinned`] and caches an unleased clone of what
/// it opened — but only when the generation it served is the newest
/// name it saw, so a broken newest manifest costs a full open every
/// time and is never papered over by a stale entry.
///
/// The cache holds **no lease** between pins: each snapshot takes its
/// own, and in-process snapshots of one generation share one lease file
/// through the lease registry. Once every snapshot is dropped no `pin-*`
/// file remains, and GC may collect the cached generation's files; the
/// cached handles keep them readable, but the cache serves them only
/// while their manifest is still the newest name.
pub struct PinCache {
    dir: PathBuf,
    slot: Mutex<Option<CachedGeneration>>,
}

/// A parsed generation, keyed by its manifest's (generation, inode).
struct CachedGeneration {
    key: (u64, u64),
    reader: StoreReader,
    /// An open handle on the keyed manifest: while it is open no other
    /// file can be given its inode number, so a re-saved store can never
    /// reproduce the key.
    _manifest: File,
}

impl PinCache {
    /// A cache over the store at `dir`; nothing is read until the
    /// first [`PinCache::pin`].
    pub fn new(dir: impl Into<PathBuf>) -> PinCache {
        PinCache {
            dir: dir.into(),
            slot: Mutex::new(None),
        }
    }

    /// Pin the newest generation: a lease on the cached parse when the
    /// newest manifest is unchanged, [`Store::open_pinned`] otherwise.
    pub fn pin(&self) -> Result<Snapshot, StoreError> {
        let newest = newest_manifest_key(&self.dir)?;
        let mut slot = self.slot.lock();
        if let Some(cached) = slot.as_ref().filter(|c| Some(c.key) == newest) {
            let reader = cached.reader.clone();
            drop(slot);
            return reader.pin();
        }
        // Held across the open, so concurrent pins that missed together
        // wait for this parse instead of repeating it.
        let snap = Store::open_pinned(&self.dir);
        *slot = match (&snap, newest) {
            (Ok(s), Some(key)) if s.generation() == key.0 => {
                self.hold_manifest(key).map(|manifest| CachedGeneration {
                    key,
                    reader: StoreReader::clone(s),
                    _manifest: manifest,
                })
            }
            _ => None,
        };
        snap
    }

    /// Open the manifest the key names, if it is still that inode.
    fn hold_manifest(&self, (gen, ino): (u64, u64)) -> Option<File> {
        let f = File::open(self.dir.join(manifest_name(gen))).ok()?;
        (f.metadata().ok()?.ino() == ino).then_some(f)
    }
}
