//! The retired store formats stay readable. The checked-in v1 and v2
//! fixtures (four RAJA-Perf profiles, seeds 0–3, JSON payloads) answer
//! every predicate shape exactly like a v3 store, fsck clean, accept
//! appends, load pinned without leaking leases and migrate to v3
//! through `Store::compact` — and the fixture bytes never change.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use thicket::prelude::*;
use thicket_perfsim::ManifestVersion;

const FORMATS: [(&str, ManifestVersion); 2] = [
    ("store-v1", ManifestVersion::V1),
    ("store-v2", ManifestVersion::V2),
];

fn fixture_src(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/perfsim/tests/fixtures")
        .join(name)
}

/// A fresh copy of a checked-in fixture in its own temp dir (one per
/// test and fixture), so opening, pinning and compacting never touch
/// the fixture itself.
fn fixture_copy(name: &str, test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thicket-legacy-{test}-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in std::fs::read_dir(fixture_src(name)).unwrap() {
        let f = f.unwrap();
        std::fs::copy(f.path(), dir.join(f.file_name())).unwrap();
    }
    dir
}

fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            (
                f.file_name().to_string_lossy().into_owned(),
                std::fs::read(f.path()).unwrap(),
            )
        })
        .collect()
}

fn runs(seeds: std::ops::Range<u64>) -> Vec<Profile> {
    seeds
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect()
}

fn hash_set(ps: &[Profile]) -> BTreeSet<i64> {
    ps.iter().map(|p| p.profile_hash()).collect()
}

/// One predicate of every `PredExpr` shape the store evaluates: the
/// constant, each comparison, set membership, string matching, the
/// boolean combinators, and a key no profile carries.
fn shapes() -> Vec<PredExpr> {
    vec![
        PredExpr::True,
        PredExpr::eq("seed", 2i64),
        PredExpr::ne("seed", 2i64),
        PredExpr::lt("seed", 2i64),
        PredExpr::le("seed", 2i64),
        PredExpr::gt("seed", 1i64),
        PredExpr::ge("seed", 3i64),
        PredExpr::is_in("seed", [Value::Int(0), Value::Int(3), Value::Int(9)]),
        PredExpr::eq("cluster", "quartz"),
        PredExpr::starts_with("cluster", "qua"),
        PredExpr::and([PredExpr::ge("seed", 1i64), PredExpr::lt("seed", 3i64)]),
        PredExpr::or([
            PredExpr::eq("seed", 0i64),
            PredExpr::eq("cluster", "lassen"),
        ]),
        PredExpr::not(PredExpr::lt("seed", 1i64)),
        PredExpr::eq("no such key", 1i64),
        PredExpr::not(PredExpr::eq("no such key", 1i64)),
    ]
}

/// Hashes of the entries `pred` selects through the columnar index.
fn selected(reader: &thicket_perfsim::StoreReader, pred: &PredExpr) -> BTreeSet<i64> {
    reader
        .select_expr(pred)
        .unwrap()
        .into_iter()
        .map(|i| reader.entries()[i].hash)
        .collect()
}

/// The row-wise reference: `pred` evaluated entry by entry over the
/// materialized metadata rows.
fn selected_rowwise(reader: &thicket_perfsim::StoreReader, pred: &PredExpr) -> BTreeSet<i64> {
    reader
        .entries()
        .iter()
        .filter(|e| pred.eval_lookup(&mut |k| e.meta(k).cloned()))
        .map(|e| e.hash)
        .collect()
}

/// Opening, loading, pinning and compacting a copy leaves the
/// checked-in fixture directories byte-for-byte as they were, with no
/// lease, lock or temp file written beside them.
#[test]
fn fixture_bytes_are_unchanged_by_open_load_pin_and_compact() {
    for (name, _) in FORMATS {
        let before = dir_bytes(&fixture_src(name));
        assert_eq!(before.len(), 2, "{name}: {:?}", before.keys());

        let dir = fixture_copy(name, "bytes");
        let (all, report) = Store::open(&dir).unwrap().load_all().unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(all.len(), 4);
        let snap = Store::open_pinned(&dir).unwrap();
        assert!(snap.leased());
        drop(snap);
        Store::compact(&dir).unwrap();

        assert_eq!(dir_bytes(&fixture_src(name)), before, "{name} changed");
        std::fs::remove_dir_all(dir).ok();
    }
}

/// v1 (row manifest), v2 (columnar manifest) and the v3 store each
/// compacts to expose the same entries, in the same order, with the
/// same metadata rows and the same pushdown-answerable keys.
#[test]
fn every_format_reports_the_same_entries_and_meta_keys() {
    let mut views = Vec::new();
    for (name, version) in FORMATS {
        let dir = fixture_copy(name, "entries");
        let old = Store::open(&dir).unwrap();
        assert_eq!(old.manifest().version, version);
        views.push((old.entries().to_vec(), old.meta_keys()));

        Store::compact(&dir).unwrap();
        let v3 = Store::open(&dir).unwrap();
        assert_eq!(v3.manifest().version, ManifestVersion::V3);
        views.push((v3.entries().to_vec(), v3.meta_keys()));
        std::fs::remove_dir_all(dir).ok();
    }
    let (entries, keys) = &views[0];
    assert_eq!(entries.len(), 4);
    assert!(
        keys.contains("seed") && keys.contains("cluster"),
        "{keys:?}"
    );
    for (i, (e, k)) in views.iter().enumerate().skip(1) {
        assert_eq!(k, keys, "view {i}: meta keys differ");
        let rows = |es: &[StoreEntry]| -> Vec<(i64, Vec<(String, Value)>)> {
            es.iter().map(|e| (e.hash, e.meta.clone())).collect()
        };
        assert_eq!(rows(e), rows(entries), "view {i}: entries differ");
    }
}

/// Every predicate shape selects the same profiles from v1, v2 and the
/// compacted v3 store, and each columnar selection equals the row-wise
/// reference over the materialized entries.
#[test]
fn every_predicate_shape_selects_the_same_profiles_on_every_format() {
    let v1 = fixture_copy("store-v1", "shapes");
    let v2 = fixture_copy("store-v2", "shapes");
    let v3 = fixture_copy("store-v2", "shapes-v3");
    Store::compact(&v3).unwrap();
    let readers: Vec<_> = [&v1, &v2, &v3]
        .iter()
        .map(|d| Store::open(d).unwrap())
        .collect();
    assert_eq!(readers[2].manifest().version, ManifestVersion::V3);

    let mut sizes = BTreeSet::new();
    for pred in shapes() {
        let want = selected_rowwise(&readers[0], &pred);
        for (r, reader) in readers.iter().enumerate() {
            assert_eq!(selected(reader, &pred), want, "store {r}: {pred}");
            assert_eq!(
                selected_rowwise(reader, &pred),
                want,
                "store {r} rows: {pred}"
            );
        }
        sizes.insert(want.len());
    }
    // The shapes are not degenerate: they select none, some and all.
    assert_eq!(sizes, BTreeSet::from([0, 1, 2, 3, 4]));
    for d in [v1, v2, v3] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// A filtered load from a legacy store (planner pushdown into the
/// manifest) composes the same thicket as the same filter over the
/// same profiles held in memory, and as filtering them by hand.
#[test]
fn loader_pushdown_on_legacy_stores_matches_filtering_in_memory() {
    for (name, _) in FORMATS {
        let dir = fixture_copy(name, "pushdown");
        let (all, _) = Store::open(&dir).unwrap().load_all().unwrap();
        for pred in shapes() {
            let kept: Vec<Profile> = all
                .iter()
                .filter(|p| pred.eval_lookup(&mut |k| p.metadata(k).cloned()))
                .cloned()
                .collect();
            if kept.is_empty() {
                continue;
            }
            let (tk_store, report) = Thicket::loader(LoadSource::store(&dir))
                .filter(pred.clone())
                .strictness(Strictness::lenient())
                .load()
                .unwrap();
            assert!(report.is_clean(), "{name} {pred}: {report}");
            let tk_mem = Thicket::loader(&all).filter(pred.clone()).load().unwrap().0;
            let tk_hand = Thicket::loader(&kept).load().unwrap().0;
            for tk in [&tk_store, &tk_mem] {
                assert_eq!(tk.profiles(), tk_hand.profiles(), "{name} {pred}");
                assert_eq!(tk.perf_data(), tk_hand.perf_data(), "{name} {pred}");
                assert_eq!(tk.metadata(), tk_hand.metadata(), "{name} {pred}");
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Appending to a legacy store commits a v3 generation on top of the
/// old JSON shards: the fixture's profiles stay loadable next to the
/// new binary-payload records, and a repeated batch is skipped.
#[test]
fn append_to_a_legacy_store_commits_v3_and_keeps_its_profiles() {
    for (name, _) in FORMATS {
        let dir = fixture_copy(name, "append");
        let (old, _) = Store::open(&dir).unwrap().load_all().unwrap();
        let new = runs(4..6);

        let report = Store::append(&dir, &new).unwrap();
        assert_eq!((report.appended, report.profiles), (2, 6), "{name}");
        let reader = Store::open(&dir).unwrap();
        assert_eq!(reader.manifest().version, ManifestVersion::V3);
        let (got, load) = reader.load_all().unwrap();
        assert!(load.is_clean(), "{name}: {load}");
        let mut want = hash_set(&old);
        want.extend(hash_set(&new));
        assert_eq!(hash_set(&got), want, "{name}");
        assert_eq!(selected(&reader, &PredExpr::lt("seed", 2i64)).len(), 2);
        assert_eq!(
            selected(&reader, &PredExpr::ge("seed", 4i64)),
            hash_set(&new)
        );

        let again = Store::append(&dir, &new).unwrap();
        assert_eq!((again.appended, again.profiles), (0, 6), "{name}");
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Once a legacy store is migrated, compacting again is a no-op on
/// content: same entries in the same order, same profiles, still v3.
#[test]
fn compact_is_idempotent_once_migrated() {
    for (name, _) in FORMATS {
        let dir = fixture_copy(name, "idempotent");
        let first = Store::compact(&dir).unwrap();
        assert_eq!(first.profiles, 4, "{name}");
        let r1 = Store::open(&dir).unwrap();
        let (p1, _) = r1.load_all().unwrap();

        let second = Store::compact(&dir).unwrap();
        assert_eq!(second.profiles, 4, "{name}");
        assert!(second.report.is_clean(), "{name}: {}", second.report);
        assert!(second.generation > first.generation);
        let r2 = Store::open(&dir).unwrap();
        assert_eq!(r2.manifest().version, ManifestVersion::V3);
        assert_eq!(r2.entries(), r1.entries(), "{name}");
        let (p2, _) = r2.load_all().unwrap();
        let order = |ps: &[Profile]| ps.iter().map(Profile::profile_hash).collect::<Vec<_>>();
        assert_eq!(order(&p2), order(&p1), "{name}");
        let (tk1, tk2) = (
            Thicket::loader(&p1).load().unwrap().0,
            Thicket::loader(&p2).load().unwrap().0,
        );
        assert_eq!(tk2.perf_data(), tk1.perf_data(), "{name}");
        assert_eq!(tk2.metadata(), tk1.metadata(), "{name}");
        std::fs::remove_dir_all(dir).ok();
    }
}

/// fsck deep-checks a legacy store clean, and the generation compact
/// commits is the newest intact one.
#[test]
fn fsck_is_clean_before_and_after_migration() {
    for (name, _) in FORMATS {
        let dir = fixture_copy(name, "fsck");
        let before = Store::fsck(&dir).unwrap();
        assert!(before.is_clean(), "{name}: {before:?}");
        assert_eq!(before.newest_intact, Some(1), "{name}");

        let migrated = Store::compact(&dir).unwrap();
        let after = Store::fsck(&dir).unwrap();
        assert!(after.is_clean(), "{name}: {after:?}");
        assert_eq!(after.newest_intact, Some(migrated.generation), "{name}");
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A pinned load of a legacy store holds a lease only while it reads:
/// the thicket comes back whole and no `pin-*` file is left behind.
#[test]
fn pinned_loads_of_legacy_stores_release_their_lease() {
    let leases = |dir: &Path| -> Vec<String> {
        dir_bytes(dir)
            .into_keys()
            .filter(|f| f.starts_with("pin-"))
            .collect()
    };
    for (name, _) in FORMATS {
        let dir = fixture_copy(name, "pinned");
        let snap = Store::open_pinned(&dir).unwrap();
        assert_eq!(leases(&dir).len(), 1, "{name}");
        assert_eq!(
            snap.lease_file().as_deref(),
            leases(&dir).first().map(String::as_str)
        );
        drop(snap);
        assert!(leases(&dir).is_empty(), "{name}");

        let (tk, report) = Thicket::loader(LoadSource::store(&dir))
            .filter(PredExpr::ge("seed", 1i64))
            .load()
            .unwrap();
        assert!(report.is_clean(), "{name}: {report}");
        assert_eq!(tk.profiles().len(), 3, "{name}");
        assert!(leases(&dir).is_empty(), "{name}: {:?}", leases(&dir));
        std::fs::remove_dir_all(dir).ok();
    }
}
