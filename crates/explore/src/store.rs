//! Content-addressed, resumable sweep store.
//!
//! Persists every solved sweep point under a [`Fingerprint`] of everything
//! that determines its result — the fully-instantiated [`AllocationProblem`]
//! at the grid point, the behaviour-relevant solver configuration (label
//! stripped), the executor's warm-start flag and the code-revision
//! [`STORE_VERSION`] — so that
//!
//! * a re-run of the *same* grid replays every stored unit and computes
//!   nothing,
//! * a killed sweep resumes where it stopped (persistence is per work unit
//!   and atomic, so a partial run leaves only whole, valid units behind), and
//! * an *extended or shifted* grid legally warm-starts from stored
//!   neighbouring points — including exact-backend B&B incumbents, which
//!   in-process sweeps must keep cold for partition-independence.
//!
//! # Layout
//!
//! A store is a directory of append-only JSON-lines segment files, one per
//! committed work unit, named `seg-<fingerprint>.jsonl` after the unit's
//! content. Each line is one entry:
//!
//! ```json
//! {"v":1,"fp":"<32 hex>","series":"<32 hex>","budget":{…},"point":{…}|null,"warm":{…}|null}
//! ```
//!
//! Segments are committed by writing to a `.tmp` sibling and renaming — the
//! POSIX-atomic publish — so no reader ever observes a torn segment; orphaned
//! `.tmp` files from killed runs are ignored on open. Corrupt, truncated or
//! version-mismatched lines are counted and skipped (a miss, never a panic):
//! the store is a cache, and the worst a damaged store can do is cause
//! recomputation.
//!
//! # Determinism
//!
//! Replay is only attempted for units *every* point of which is stored: a
//! fully-stored unit's bytes are exactly what [`compute_unit`] would
//! reproduce, because a unit's result is a pure function of `(grid, unit,
//! warm_start)` and the fingerprint pins all three. Neighbour warm starts
//! come from a snapshot taken at planning time and are restricted to stored
//! points **outside** the current grid (see [`plan_store`]); re-runs and
//! resumes of an identical grid therefore see no store hints at all and stay
//! byte-identical to a cold serial sweep, while extended grids get hints that
//! are a deterministic function of (grid, snapshot) — independent of thread
//! count, worker count, chunk assignment or completion order.
//!
//! [`compute_unit`]: crate::compute_unit

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use mfa_alloc::fingerprint::{Fingerprint, FingerprintHasher};
use mfa_alloc::solver::WarmStart;
use mfa_alloc::AllocationProblem;
use mfa_platform::ResourceBudget;

use crate::executor::{SweepPoint, UnitOutput, WorkUnit};
use crate::grid::SweepGrid;
use crate::json::Json;
use crate::wire::{self, WireError};
use crate::ExploreError;

/// Store format revision. Bumped whenever the entry encoding *or any code
/// that changes solver output* is revised; entries recorded under a different
/// version are counted as mismatches and recomputed.
pub const STORE_VERSION: usize = 1;

/// One stored sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Fingerprint of the point's series with the budget dimension erased —
    /// all points of one (case, platform, backend, options) combination share
    /// it, whatever their budget, which is what makes neighbour lookup a
    /// simple equality scan.
    pub series: Fingerprint,
    /// The fully-resolved per-FPGA budget of the point (the neighbour-metric
    /// key for warm-start seeding).
    pub budget: ResourceBudget,
    /// The solved point, or `None` for a skipped (infeasible/unplaceable)
    /// budget — skips are results too and replay as such.
    pub point: Option<SweepPoint>,
    /// The warm-start state the point's solve published (empty for skipped
    /// points).
    pub warm: WarmStart,
}

/// An on-disk sweep store: a directory of segment files plus an in-memory
/// index over every valid entry.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    index: HashMap<Fingerprint, StoreEntry>,
    segments: usize,
    orphan_tmp: usize,
    duplicate_entries: usize,
    corrupt_entries: usize,
    version_mismatches: usize,
}

/// The store surface the executors and the serving layer consume.
///
/// Implemented by the on-disk [`SweepStore`] and by `mfa_storenet`'s
/// `RemoteStore` network client, so the threaded executor, the sharded
/// dispatcher and the `mfa_serve` warm-cache spill all run against one
/// logical cache whether it lives in a local directory or behind a
/// store-server on another host. Methods take `&mut self` because a remote
/// implementation performs socket I/O per call.
pub trait ResultStore {
    /// Batched point lookup: one slot per fingerprint, `None` for misses.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] only for transport/directory-level
    /// failures; absent, corrupt or version-mismatched entries are misses.
    fn get_many(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<StoreEntry>>, ExploreError>;

    /// Every stored entry of one series, sorted by fingerprint (used by the
    /// serving layer to rewarm a whole request family at once).
    ///
    /// # Errors
    ///
    /// As [`get_many`](Self::get_many).
    fn get_series(
        &mut self,
        series: &Fingerprint,
    ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError>;

    /// A snapshot of every stored entry, sorted by fingerprint (the seed
    /// universe [`plan_store`] draws neighbour warm starts from).
    ///
    /// # Errors
    ///
    /// As [`get_many`](Self::get_many).
    fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError>;

    /// Persists a batch of entries atomically (one work unit's points).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] on I/O, transport or encoding failure.
    fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError>;

    /// Lines observed corrupt or truncated when the backing store was
    /// opened/scanned (server-side damage for a remote store).
    fn corrupt_count(&self) -> usize;

    /// Entries skipped for a [`STORE_VERSION`] mismatch when the backing
    /// store was opened/scanned.
    fn version_mismatch_count(&self) -> usize;
}

impl ResultStore for SweepStore {
    fn get_many(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<StoreEntry>>, ExploreError> {
        Ok(fps.iter().map(|fp| self.index.get(fp).cloned()).collect())
    }

    fn get_series(
        &mut self,
        series: &Fingerprint,
    ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        let mut entries: Vec<(Fingerprint, StoreEntry)> = self
            .index
            .iter()
            .filter(|(_, entry)| entry.series == *series)
            .map(|(fp, entry)| (*fp, entry.clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);
        Ok(entries)
    }

    fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        let mut entries: Vec<(Fingerprint, StoreEntry)> = self
            .index
            .iter()
            .map(|(fp, entry)| (*fp, entry.clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);
        Ok(entries)
    }

    fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
        self.commit(entries)
    }

    fn corrupt_count(&self) -> usize {
        self.corrupt_entries
    }

    fn version_mismatch_count(&self) -> usize {
        self.version_mismatches
    }
}

/// A point-in-time inventory of a store directory's health, as reported by
/// [`SweepStore::stats`] (and served over the wire by `mfa_storenet`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid entries in the index.
    pub entries: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Orphaned `.tmp` files left by killed commits.
    pub orphan_tmp: usize,
    /// Stored lines shadowed by a later line with the same fingerprint.
    pub duplicate_entries: usize,
    /// Corrupt or truncated lines skipped while opening.
    pub corrupt_entries: usize,
    /// Lines skipped for a [`STORE_VERSION`] mismatch while opening.
    pub version_mismatches: usize,
}

/// What one [`SweepStore::gc`] compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Old segment files folded into the compacted segment and deleted.
    pub segments_folded: usize,
    /// Orphaned `.tmp` files removed.
    pub orphans_removed: usize,
    /// Valid entries carried into the compacted segment.
    pub entries_kept: usize,
    /// Duplicate fingerprints folded down to their surviving line.
    pub duplicates_folded: usize,
    /// Corrupt and version-mismatched lines dropped from disk.
    pub lines_dropped: usize,
}

fn io_err(context: &str, path: &Path, err: std::io::Error) -> ExploreError {
    ExploreError::Store(format!("{context} {}: {err}", path.display()))
}

fn codec_err(err: WireError) -> ExploreError {
    ExploreError::Store(format!("store codec: {err}"))
}

impl SweepStore {
    /// Opens (creating if needed) the store at `dir` and indexes every valid
    /// entry in it. Corrupt or truncated lines and entries recorded under a
    /// different [`STORE_VERSION`] are skipped and counted; orphaned `.tmp`
    /// files from killed commits are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] only for directory-level I/O failures
    /// (cannot create or list `dir`); damaged contents never error.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SweepStore, ExploreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("cannot create store directory", &dir, e))?;
        let mut segments: Vec<PathBuf> = Vec::new();
        let mut orphan_tmp = 0usize;
        for entry in
            fs::read_dir(&dir).map_err(|e| io_err("cannot list store directory", &dir, e))?
        {
            let Ok(path) = entry.map(|e| e.path()) else {
                continue;
            };
            if !path.is_file() {
                continue;
            }
            match path.extension().and_then(|e| e.to_str()) {
                Some("jsonl") => segments.push(path),
                Some("tmp") => orphan_tmp += 1,
                _ => {}
            }
        }
        // Deterministic load order (directory iteration order is not).
        segments.sort();

        let mut store = SweepStore {
            dir,
            index: HashMap::new(),
            segments: segments.len(),
            orphan_tmp,
            duplicate_entries: 0,
            corrupt_entries: 0,
            version_mismatches: 0,
        };
        for segment in segments {
            let Ok(contents) = fs::read_to_string(&segment) else {
                // An unreadable segment is damage, not a fatal condition.
                store.corrupt_entries += 1;
                continue;
            };
            for line in contents.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_entry(line) {
                    Ok(Some((fp, entry))) => {
                        if store.index.insert(fp, entry).is_some() {
                            store.duplicate_entries += 1;
                        }
                    }
                    Ok(None) => store.version_mismatches += 1,
                    Err(_) => store.corrupt_entries += 1,
                }
            }
        }
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when the store holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lines skipped as corrupt or truncated while opening the store.
    pub fn corrupt_entries(&self) -> usize {
        self.corrupt_entries
    }

    /// Valid-looking lines skipped because they were recorded under a
    /// different [`STORE_VERSION`].
    pub fn version_mismatches(&self) -> usize {
        self.version_mismatches
    }

    /// Looks up a stored point by fingerprint.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<&StoreEntry> {
        self.index.get(fp)
    }

    /// Iterates over all indexed entries (unspecified order; callers that
    /// need determinism must sort).
    pub fn entries(&self) -> impl Iterator<Item = (&Fingerprint, &StoreEntry)> {
        self.index.iter()
    }

    /// Commits a batch of entries as one new segment, atomically: the
    /// segment is fully written and fsynced to a `.tmp` sibling, then
    /// renamed into place. A crash at any moment leaves either the complete
    /// segment or an ignored orphan — never a torn file.
    ///
    /// The segment name is derived from the batch's fingerprints, so
    /// re-committing identical content rewrites the same file instead of
    /// growing the store.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] on I/O or encoding failure.
    pub fn commit(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
        if entries.is_empty() {
            return Ok(());
        }
        let (_, rewrote_existing) = self.write_segment(&entries)?;
        if !rewrote_existing {
            self.segments += 1;
        }
        for (fp, entry) in entries {
            if self.index.insert(fp, entry).is_some() && !rewrote_existing {
                // A fresh segment restating an already-indexed fingerprint
                // duplicates that line on disk until the next gc() folds it.
                self.duplicate_entries += 1;
            }
        }
        Ok(())
    }

    /// A health inventory of the store: entry/segment counts plus every
    /// damage counter observed when the directory was opened.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.len(),
            segments: self.segments,
            orphan_tmp: self.orphan_tmp,
            duplicate_entries: self.duplicate_entries,
            corrupt_entries: self.corrupt_entries,
            version_mismatches: self.version_mismatches,
        }
    }

    /// Compacts the store in place: removes orphaned `.tmp` files, folds
    /// every valid indexed entry into one canonical segment (sorted by
    /// fingerprint, duplicates collapsed), and deletes the old segments —
    /// dropping corrupt and version-mismatched lines from disk in the
    /// process. The index is unchanged; the damage counters reset to what a
    /// fresh open of the compacted directory would observe.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] on I/O or encoding failure; a partial
    /// failure leaves only whole, valid segments behind (the compacted
    /// segment publishes atomically before any old segment is removed).
    pub fn gc(&mut self) -> Result<GcReport, ExploreError> {
        let mut orphans_removed = 0usize;
        let mut old_segments: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&self.dir)
            .map_err(|e| io_err("cannot list store directory", &self.dir, e))?
        {
            let Ok(path) = entry.map(|e| e.path()) else {
                continue;
            };
            if !path.is_file() {
                continue;
            }
            match path.extension().and_then(|e| e.to_str()) {
                Some("tmp") => {
                    fs::remove_file(&path).map_err(|e| io_err("cannot remove orphan", &path, e))?;
                    orphans_removed += 1;
                }
                Some("jsonl") => old_segments.push(path),
                _ => {}
            }
        }

        let mut entries: Vec<(Fingerprint, StoreEntry)> = self
            .index
            .iter()
            .map(|(fp, entry)| (*fp, entry.clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);

        let keep = if entries.is_empty() {
            None
        } else {
            Some(self.write_segment(&entries)?.0)
        };
        let mut segments_folded = 0usize;
        for segment in old_segments {
            if Some(&segment) == keep.as_ref() {
                continue;
            }
            fs::remove_file(&segment).map_err(|e| io_err("cannot remove segment", &segment, e))?;
            segments_folded += 1;
        }

        let report = GcReport {
            segments_folded,
            orphans_removed,
            entries_kept: entries.len(),
            duplicates_folded: self.duplicate_entries,
            lines_dropped: self.corrupt_entries + self.version_mismatches,
        };
        self.segments = usize::from(keep.is_some());
        self.orphan_tmp = 0;
        self.duplicate_entries = 0;
        self.corrupt_entries = 0;
        self.version_mismatches = 0;
        Ok(report)
    }

    /// Writes `entries` as one content-addressed segment (tmp + fsync +
    /// rename) and returns the published path plus whether a segment of the
    /// same name was already on disk. Does not touch the index.
    fn write_segment(
        &self,
        entries: &[(Fingerprint, StoreEntry)],
    ) -> Result<(PathBuf, bool), ExploreError> {
        let mut body = String::new();
        let hexes: Vec<String> = entries.iter().map(|(fp, _)| fp.to_hex()).collect();
        let parts: Vec<&str> = hexes.iter().map(String::as_str).collect();
        let name = Fingerprint::of_parts(STORE_VERSION as u64, &parts);
        for (fp, entry) in entries {
            body.push_str(&entry_to_json(fp, entry)?.to_string());
            body.push('\n');
        }

        let final_path = self.dir.join(format!("seg-{}.jsonl", name.to_hex()));
        let tmp_path = self.dir.join(format!("seg-{}.tmp", name.to_hex()));
        let existed = final_path.exists();
        {
            let mut file = fs::File::create(&tmp_path)
                .map_err(|e| io_err("cannot create segment", &tmp_path, e))?;
            file.write_all(body.as_bytes())
                .map_err(|e| io_err("cannot write segment", &tmp_path, e))?;
            file.sync_all()
                .map_err(|e| io_err("cannot sync segment", &tmp_path, e))?;
        }
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| io_err("cannot publish segment", &final_path, e))?;
        Ok((final_path, existed))
    }
}

// ---------------------------------------------------------------------------
// Entry codec.

/// Encodes one `(fingerprint, entry)` pair as its canonical store-line JSON
/// document — the exact bytes a segment file holds, and the entry payload
/// `mfa_storenet` carries in its `put`/`entries` frames.
///
/// # Errors
///
/// Returns [`ExploreError::Store`] if the entry holds non-finite floats
/// (impossible for solver-produced entries).
pub fn entry_to_json(fp: &Fingerprint, entry: &StoreEntry) -> Result<Json, ExploreError> {
    let point = match &entry.point {
        Some(p) => wire::point_to_json(p).map_err(codec_err)?,
        None => Json::Null,
    };
    let warm = if entry.warm.is_empty() {
        Json::Null
    } else {
        wire::warm_hint_to_json(&entry.warm).map_err(codec_err)?
    };
    Ok(Json::obj(vec![
        ("v", Json::Num(STORE_VERSION as f64)),
        ("fp", Json::str(fp.to_hex())),
        ("series", Json::str(entry.series.to_hex())),
        (
            "budget",
            wire::budget_to_json(&entry.budget).map_err(codec_err)?,
        ),
        ("point", point),
        ("warm", warm),
    ]))
}

/// Decodes one store line. `Ok(None)` is a version mismatch; `Err` is
/// corruption. Both are misses for the caller.
fn decode_entry(line: &str) -> Result<Option<(Fingerprint, StoreEntry)>, WireError> {
    let doc = Json::parse(line).map_err(|e| WireError::Parse(e.to_string()))?;
    entry_from_json(&doc)
}

/// Decodes one store-entry document (the inverse of [`entry_to_json`]).
/// `Ok(None)` is a [`STORE_VERSION`] mismatch; `Err` is corruption. Both are
/// misses, never fatal, for every caller in the stack.
///
/// # Errors
///
/// Returns [`WireError`] when the document does not match the entry schema.
pub fn entry_from_json(doc: &Json) -> Result<Option<(Fingerprint, StoreEntry)>, WireError> {
    if wire::usize_field(doc, "v")? != STORE_VERSION {
        return Ok(None);
    }
    let parse_fp = |key: &str| -> Result<Fingerprint, WireError> {
        wire::str_field(doc, key)?
            .parse()
            .map_err(|_| WireError::Invalid(format!("field '{key}' is not a fingerprint")))
    };
    let fp = parse_fp("fp")?;
    let series = parse_fp("series")?;
    let budget = wire::budget_from_json(wire::field(doc, "budget")?)?;
    let point = wire::nullable_field(doc, "point", Some)?
        .map(wire::point_from_json)
        .transpose()?;
    let warm = match wire::nullable_field(doc, "warm", Some)? {
        Some(warm) => wire::warm_hint_from_json(warm)?,
        None => WarmStart::none(),
    };
    Ok(Some((
        fp,
        StoreEntry {
            series,
            budget,
            point,
            warm,
        },
    )))
}

// ---------------------------------------------------------------------------
// Fingerprints.

/// Canonical JSON string of everything behaviour-relevant about a series'
/// solve configuration: the solver kind and options (label stripped, so a
/// rename never invalidates results), the grid's request riders and the
/// executor warm-start mode (warm and cold sweeps may legally differ on
/// II ties, so they must not share entries).
fn config_json(grid: &SweepGrid, series: usize, warm_start: bool) -> Result<String, ExploreError> {
    let (_, _, backend_idx) = grid.series_key(series);
    let backend = wire::solver_config_to_json(&grid.backends[backend_idx]).map_err(codec_err)?;
    let deadline = match grid.point_deadline_seconds() {
        Some(seconds) if seconds.is_finite() => Json::Num(seconds),
        _ => Json::Null,
    };
    Ok(Json::obj(vec![
        ("backend", backend),
        ("skip_policy", Json::str(grid.skip_policy().label())),
        ("point_deadline_seconds", deadline),
        ("warm_start", Json::Bool(warm_start)),
    ])
    .to_string())
}

/// The store's keys for one series, encoded once. The series' problem on
/// its platform point is written once, as the text before and after its
/// budget value; a point's problem document is that text around the
/// point's budget, since the points of a series differ in nothing else.
/// Every fingerprint equals [`Fingerprint::of_parts`] over
/// [`STORE_VERSION`], the series' [`config_json`] and the whole document.
struct SeriesKey {
    config: String,
    /// The series' problem on its platform point, under the case's base
    /// budget (what a budget point resolves against).
    problem: AllocationProblem,
    /// Its document before and after the budget value.
    head: String,
    tail: String,
    /// Hasher states after the config and the head, one per document
    /// length seen: the length frames the document, so it comes first.
    resumes: Vec<(usize, FingerprintHasher)>,
}

impl SeriesKey {
    fn new(grid: &SweepGrid, series: usize, warm_start: bool) -> Result<Self, ExploreError> {
        let (case_idx, platform_idx, _) = grid.series_key(series);
        let problem = grid.platforms[platform_idx].apply(grid.cases[case_idx].base());
        let (head, tail) = wire::problem_to_json(&problem)
            .map_err(codec_err)?
            .split_at_value("budget")
            .expect("a problem document holds a budget");
        Ok(SeriesKey {
            config: config_json(grid, series, warm_start)?,
            problem,
            head,
            tail,
            resumes: Vec::new(),
        })
    }

    /// The series fingerprint: the document with its budget erased.
    fn series_fp(&mut self) -> Fingerprint {
        self.fingerprint("null")
    }

    /// Fingerprint and resolved per-FPGA budget of one budget point.
    fn point(
        &mut self,
        grid: &SweepGrid,
        budget_idx: usize,
    ) -> Result<(Fingerprint, ResourceBudget), ExploreError> {
        let budget = grid.budgets[budget_idx].budget(&self.problem);
        let value = wire::budget_to_json(&budget).map_err(codec_err)?;
        Ok((self.fingerprint(&value.to_string()), budget))
    }

    /// Fingerprint of the series' document with `value` as its budget.
    fn fingerprint(&mut self, value: &str) -> Fingerprint {
        let len = self.head.len() + value.len() + self.tail.len();
        let mut hasher = match self.resumes.iter().find(|(known, _)| *known == len) {
            Some((_, resume)) => resume.clone(),
            None => {
                let mut resume =
                    FingerprintHasher::before_last_part(STORE_VERSION as u64, &[&self.config], len);
                resume.write_bytes(self.head.as_bytes());
                self.resumes.push((len, resume.clone()));
                resume
            }
        };
        hasher.write_bytes(value.as_bytes());
        hasher.write_bytes(self.tail.as_bytes());
        hasher.finish()
    }
}

/// Content fingerprint of one grid point: a pure function of the
/// fully-instantiated problem at `(series, budget_idx)`, the series'
/// solver configuration, the executor warm-start mode and [`STORE_VERSION`].
/// Chunking and thread/worker partition never enter, so the fingerprint is
/// invariant under them by construction. It is the digest [`plan_store`]
/// gives the point; both encode the point's problem document as the
/// series' document around the point's budget.
///
/// # Errors
///
/// Returns [`ExploreError::Store`] if the grid point cannot be canonically
/// encoded (non-finite floats — impossible for a validly-built grid).
pub fn point_fingerprint(
    grid: &SweepGrid,
    series: usize,
    budget_idx: usize,
    warm_start: bool,
) -> Result<Fingerprint, ExploreError> {
    let (fp, _) = SeriesKey::new(grid, series, warm_start)?.point(grid, budget_idx)?;
    Ok(fp)
}

/// Series fingerprint: like [`point_fingerprint`] but with the budget erased
/// from the problem document, so every budget point of one (case, platform,
/// backend) combination shares it. Neighbour warm starts only flow between
/// points with equal series fingerprints.
///
/// # Errors
///
/// Returns [`ExploreError::Store`] if the grid point cannot be canonically
/// encoded.
pub fn series_fingerprint(
    grid: &SweepGrid,
    series: usize,
    warm_start: bool,
) -> Result<Fingerprint, ExploreError> {
    Ok(SeriesKey::new(grid, series, warm_start)?.series_fp())
}

// ---------------------------------------------------------------------------
// Planning.

/// The store's verdict on one [`WorkUnit`].
#[derive(Debug, Clone)]
pub struct UnitPlan {
    /// Series fingerprint of the unit.
    pub series_fp: Fingerprint,
    /// Point fingerprints, one per budget point of the unit.
    pub point_fps: Vec<Fingerprint>,
    /// Resolved per-FPGA budgets, parallel to `point_fps`.
    pub budgets: Vec<ResourceBudget>,
    /// `Some(points)` when *every* point of the unit is stored: the unit
    /// replays verbatim and is never computed. Partially-stored units
    /// recompute whole — their in-unit warm-start cache state would
    /// otherwise be unreconstructible.
    pub cached: Option<Vec<Option<SweepPoint>>>,
    /// Warm-start seeds for a fresh unit: stored neighbours of the same
    /// series from *outside* the current grid, tightest budget first. Empty
    /// whenever the store only holds points of this very grid — which is
    /// what keeps re-runs and resumes byte-identical to a cold sweep.
    pub seeds: Vec<(ResourceBudget, WarmStart)>,
}

/// A store-informed execution plan over a unit list.
#[derive(Debug, Clone)]
pub struct StorePlan {
    /// One plan per work unit, parallel to the planned unit list.
    pub units: Vec<UnitPlan>,
}

impl StorePlan {
    /// Number of units that replay from the store.
    pub fn units_replayed(&self) -> usize {
        self.units.iter().filter(|u| u.cached.is_some()).count()
    }
}

/// Plans a sweep against the store: fingerprints every point, marks
/// fully-stored units for replay, and collects neighbour warm-start seeds
/// for the rest.
///
/// Each series' configuration and problem are encoded once, and each
/// point's budget only: a point's document is the series' document around
/// the point's budget, and points whose documents share a length hash the
/// shared part once. The digests are [`point_fingerprint`]'s and
/// [`series_fingerprint`]'s. Nothing is kept across calls, so every plan
/// fingerprints its whole grid.
///
/// Seeds are restricted to stored points **outside** the current grid's
/// fingerprint set. The snapshot the seeds are drawn from is fixed here, at
/// planning time — before any unit runs — so the hints every unit sees are a
/// deterministic function of (grid, store contents at start), independent of
/// chunk assignment, thread/worker count or completion order; and on an
/// identical re-run or kill-resume every stored point belongs to the current
/// grid, so no unit sees any hint at all. Seeds are only collected when
/// `warm_start` is on, and only from solved (non-skipped) points with a
/// non-empty warm state; they are ordered tightest-budget-first with the
/// fingerprint as the final tie-break.
///
/// Lookups go through the [`ResultStore`] trait in at most two batched
/// calls: one [`get_many`](ResultStore::get_many) over every point
/// fingerprint, then one [`snapshot`](ResultStore::snapshot) for the seed
/// universe — only when warm starts are on and some unit is not fully
/// stored, because only units that compute take seeds. A remote store thus
/// pays one round trip to plan a full replay and two otherwise, never one
/// per point.
///
/// # Errors
///
/// Returns [`ExploreError::Store`] if a grid point cannot be canonically
/// encoded or the store transport fails.
pub fn plan_store(
    grid: &SweepGrid,
    units: &[WorkUnit],
    warm_start: bool,
    store: &mut dyn ResultStore,
) -> Result<StorePlan, ExploreError> {
    // Fingerprint every point of every unit first: the exclusion set must
    // cover the whole grid before any seed is selected. Each series' config
    // and problem are encoded once, each point's budget once.
    let mut series_keys: HashMap<usize, (SeriesKey, Fingerprint)> = HashMap::new();
    let mut keyed: Vec<(Fingerprint, Vec<Fingerprint>, Vec<ResourceBudget>)> =
        Vec::with_capacity(units.len());
    for unit in units {
        let (key, series_fp) = match series_keys.entry(unit.series) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                let mut key = SeriesKey::new(grid, unit.series, warm_start)?;
                let series_fp = key.series_fp();
                slot.insert((key, series_fp))
            }
        };
        let mut point_fps = Vec::with_capacity(unit.end - unit.start);
        let mut budgets = Vec::with_capacity(unit.end - unit.start);
        for budget_idx in unit.start..unit.end {
            let (fp, budget) = key.point(grid, budget_idx)?;
            point_fps.push(fp);
            budgets.push(budget);
        }
        keyed.push((*series_fp, point_fps, budgets));
    }

    // One batched lookup over every point of every unit; a unit replays
    // when every one of its points is stored.
    let all_fps: Vec<Fingerprint> = keyed
        .iter()
        .flat_map(|(_, point_fps, _)| point_fps.iter().copied())
        .collect();
    let mut looked_up = store.get_many(&all_fps)?.into_iter();
    let cached: Vec<Option<Vec<Option<SweepPoint>>>> = keyed
        .iter()
        .map(|(_, point_fps, _)| {
            // Every slot of the unit is taken before any is checked, so the
            // next unit starts at its own first slot.
            let stored: Vec<Option<StoreEntry>> = point_fps
                .iter()
                .map(|_| looked_up.next().flatten())
                .collect();
            stored
                .into_iter()
                .map(|entry| entry.map(|entry| entry.point))
                .collect()
        })
        .collect();

    // Seeds per series: stored, solved, warm-carrying neighbours outside the
    // current grid, in a canonical order.
    let mut seeds_by_series: HashMap<Fingerprint, Vec<(Fingerprint, ResourceBudget, WarmStart)>> =
        HashMap::new();
    if warm_start && cached.iter().any(Option::is_none) {
        let grid_fps: HashSet<Fingerprint> = all_fps.into_iter().collect();
        for (fp, entry) in store.snapshot()? {
            if grid_fps.contains(&fp) || entry.point.is_none() || entry.warm.is_empty() {
                continue;
            }
            seeds_by_series
                .entry(entry.series)
                .or_default()
                .push((fp, entry.budget, entry.warm));
        }
        for seeds in seeds_by_series.values_mut() {
            seeds.sort_by(|(fp_a, a, _), (fp_b, b, _)| {
                let ka = budget_sort_key(a);
                let kb = budget_sort_key(b);
                ka.iter()
                    .zip(&kb)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or_else(|| fp_a.cmp(fp_b))
            });
        }
    }

    let plans = keyed
        .into_iter()
        .zip(cached)
        .map(|((series_fp, point_fps, budgets), cached)| {
            let seeds = if cached.is_some() {
                Vec::new()
            } else {
                seeds_by_series
                    .get(&series_fp)
                    .map(|s| {
                        s.iter()
                            .map(|(_, budget, warm)| (*budget, warm.clone()))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            UnitPlan {
                series_fp,
                point_fps,
                budgets,
                cached,
                seeds,
            }
        })
        .collect();
    Ok(StorePlan { units: plans })
}

fn budget_sort_key(b: &ResourceBudget) -> [f64; 5] {
    let r = b.resource_fraction();
    [r.lut, r.ff, r.bram, r.dsp, b.bandwidth_fraction()]
}

/// Persists one freshly-computed unit: every point of the unit becomes one
/// store entry, and the batch commits as a single atomic segment.
///
/// # Errors
///
/// Returns [`ExploreError::Store`] on I/O or encoding failure.
pub fn commit_unit(
    store: &mut dyn ResultStore,
    plan: &UnitPlan,
    output: &UnitOutput,
) -> Result<(), ExploreError> {
    debug_assert_eq!(plan.point_fps.len(), output.points.len());
    let entries = plan
        .point_fps
        .iter()
        .zip(&plan.budgets)
        .zip(output.points.iter().zip(&output.warms))
        .map(|((fp, budget), (point, warm))| {
            (
                *fp,
                StoreEntry {
                    series: plan.series_fp,
                    budget: *budget,
                    point: *point,
                    warm: warm.clone().unwrap_or_default(),
                },
            )
        })
        .collect();
    store.put(entries)
}

/// Counters of one store-backed sweep run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreRunReport {
    /// Units replayed verbatim from the store.
    pub units_replayed: usize,
    /// Units computed fresh (and persisted).
    pub units_computed: usize,
    /// Points (including skipped ones) replayed from the store.
    pub points_replayed: usize,
    /// Points (including skipped ones) computed fresh.
    pub points_computed: usize,
    /// Fresh points whose solve accepted a warm-start hint drawn from the
    /// store's neighbour snapshot.
    pub warm_from_store: usize,
    /// Corrupt or truncated lines skipped while opening the store.
    pub corrupt_entries: usize,
    /// Entries skipped for a [`STORE_VERSION`] mismatch while opening.
    pub version_mismatches: usize,
}

impl StoreRunReport {
    /// Merges another report's counters into this one (used by surfaces that
    /// aggregate per-figure runs).
    pub fn absorb(&mut self, other: &StoreRunReport) {
        self.units_replayed += other.units_replayed;
        self.units_computed += other.units_computed;
        self.points_replayed += other.points_replayed;
        self.points_computed += other.points_computed;
        self.warm_from_store += other.warm_from_store;
        self.corrupt_entries += other.corrupt_entries;
        self.version_mismatches += other.version_mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{constraint_grid, CaseSpec, SolverSpec};
    use crate::plan_units;
    use mfa_alloc::cases::PaperCase;
    use mfa_alloc::gpa::GpaOptions;
    use mfa_alloc::solver::{GpDualState, WarmStartReport};
    use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceVec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfa-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid(points: usize) -> SweepGrid {
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints(constraint_grid(0.55, 0.85, points).unwrap())
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap()
    }

    fn sample_entry(series: Fingerprint, skipped: bool) -> StoreEntry {
        StoreEntry {
            series,
            budget: ResourceBudget::uniform(0.7),
            point: if skipped {
                None
            } else {
                let grid = small_grid(2);
                let unit = WorkUnit {
                    series: 0,
                    start: 0,
                    end: 1,
                };
                let points = crate::compute_unit(&grid, &unit, true).unwrap();
                points[0]
            },
            warm: WarmStart::none()
                .with_relaxed_ii(1.5)
                .with_cu_counts(vec![1, 2, 3]),
        }
    }

    /// Calls made on a [`CountingStore`], per trait method.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Calls {
        get_many: usize,
        get_series: usize,
        snapshot: usize,
        put: usize,
    }

    /// A [`SweepStore`] that counts the calls made on it.
    struct CountingStore {
        inner: SweepStore,
        calls: Calls,
    }

    impl CountingStore {
        /// The calls made since the last `take`.
        fn take(&mut self) -> Calls {
            std::mem::take(&mut self.calls)
        }
    }

    impl ResultStore for CountingStore {
        fn get_many(
            &mut self,
            fps: &[Fingerprint],
        ) -> Result<Vec<Option<StoreEntry>>, ExploreError> {
            self.calls.get_many += 1;
            self.inner.get_many(fps)
        }

        fn get_series(
            &mut self,
            series: &Fingerprint,
        ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
            self.calls.get_series += 1;
            self.inner.get_series(series)
        }

        fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
            self.calls.snapshot += 1;
            self.inner.snapshot()
        }

        fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
            self.calls.put += 1;
            self.inner.put(entries)
        }

        fn corrupt_count(&self) -> usize {
            self.inner.corrupt_count()
        }

        fn version_mismatch_count(&self) -> usize {
            self.inner.version_mismatch_count()
        }
    }

    #[test]
    fn entries_round_trip_through_a_reopened_store() {
        let dir = temp_dir("roundtrip");
        let fp_a = Fingerprint::of_parts(1, &["a"]);
        let fp_b = Fingerprint::of_parts(1, &["b"]);
        let series = Fingerprint::of_parts(1, &["series"]);
        let solved = sample_entry(series, false);
        let skipped = sample_entry(series, true);
        {
            let mut store = SweepStore::open(&dir).unwrap();
            store
                .commit(vec![(fp_a, solved.clone()), (fp_b, skipped.clone())])
                .unwrap();
            assert_eq!(store.len(), 2);
        }
        let store = SweepStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.corrupt_entries(), 0);
        assert_eq!(store.version_mismatches(), 0);
        assert_eq!(store.lookup(&fp_a), Some(&solved));
        assert_eq!(store.lookup(&fp_b), Some(&skipped));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_tempfiles_and_foreign_files_are_ignored() {
        let dir = temp_dir("orphans");
        let series = Fingerprint::of_parts(1, &["series"]);
        let mut store = SweepStore::open(&dir).unwrap();
        store
            .commit(vec![(
                Fingerprint::of_parts(1, &["x"]),
                sample_entry(series, true),
            )])
            .unwrap();
        // A killed commit leaves a .tmp orphan; unrelated files may also
        // appear. Neither is indexed or counted.
        fs::write(dir.join("seg-deadbeef.tmp"), "{half a li").unwrap();
        fs::write(dir.join("README"), "not a segment").unwrap();
        let reopened = SweepStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.corrupt_entries(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_version_mismatched_lines_are_counted_misses() {
        let dir = temp_dir("corrupt");
        let series = Fingerprint::of_parts(1, &["series"]);
        let good_fp = Fingerprint::of_parts(1, &["good"]);
        {
            let mut store = SweepStore::open(&dir).unwrap();
            store
                .commit(vec![(good_fp, sample_entry(series, true))])
                .unwrap();
        }
        // Garbage, a truncated JSON line, a schema-valid line with the wrong
        // version, and a valid-JSON wrong-schema line — all in one segment.
        let future = entry_to_json(
            &Fingerprint::of_parts(1, &["future"]),
            &sample_entry(series, true),
        )
        .unwrap()
        .to_string()
        .replace("\"v\":1", "\"v\":999");
        let bad = format!(
            "not json at all\n{{\"v\":1,\"fp\":\"tr\n{future}\n{{\"v\":1,\"unexpected\":true}}\n"
        );
        fs::write(dir.join("seg-damaged.jsonl"), bad).unwrap();
        let store = SweepStore::open(&dir).unwrap();
        // The good entry survives, every damaged line is a counted miss.
        assert_eq!(store.len(), 1);
        assert!(store.lookup(&good_fp).is_some());
        assert_eq!(store.corrupt_entries(), 3);
        assert_eq!(store.version_mismatches(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_inventory_matches_what_a_fresh_open_observes() {
        let dir = temp_dir("stats");
        let series = Fingerprint::of_parts(1, &["series"]);
        let fp_a = Fingerprint::of_parts(1, &["a"]);
        let fp_b = Fingerprint::of_parts(1, &["b"]);
        {
            let mut store = SweepStore::open(&dir).unwrap();
            // Two overlapping segments: fp_a is stated twice on disk.
            store
                .commit(vec![
                    (fp_a, sample_entry(series, true)),
                    (fp_b, sample_entry(series, true)),
                ])
                .unwrap();
            store
                .commit(vec![(fp_a, sample_entry(series, true))])
                .unwrap();
        }
        // A killed commit's orphan and one damaged segment (garbage line plus
        // a version-mismatched line) complete the inventory.
        fs::write(dir.join("seg-orphan.tmp"), "{half").unwrap();
        let future = entry_to_json(
            &Fingerprint::of_parts(1, &["f"]),
            &sample_entry(series, true),
        )
        .unwrap()
        .to_string()
        .replace("\"v\":1", "\"v\":999");
        fs::write(
            dir.join("seg-damaged.jsonl"),
            format!("garbage\n{future}\n"),
        )
        .unwrap();

        let store = SweepStore::open(&dir).unwrap();
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 2,
                segments: 3,
                orphan_tmp: 1,
                duplicate_entries: 1,
                corrupt_entries: 1,
                version_mismatches: 1,
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_folds_the_store_to_one_clean_segment() {
        let dir = temp_dir("gc");
        let series = Fingerprint::of_parts(1, &["series"]);
        let fp_a = Fingerprint::of_parts(1, &["a"]);
        let fp_b = Fingerprint::of_parts(1, &["b"]);
        {
            let mut store = SweepStore::open(&dir).unwrap();
            store
                .commit(vec![
                    (fp_a, sample_entry(series, false)),
                    (fp_b, sample_entry(series, true)),
                ])
                .unwrap();
            store
                .commit(vec![(fp_a, sample_entry(series, false))])
                .unwrap();
        }
        fs::write(dir.join("seg-orphan.tmp"), "{half").unwrap();
        fs::write(dir.join("seg-damaged.jsonl"), "garbage\n").unwrap();

        let mut store = SweepStore::open(&dir).unwrap();
        let before = store.stats();
        let report = store.gc().unwrap();
        // The canonical folded segment is content-addressed, and here its
        // sorted content coincides with the first commit's segment — that
        // file is kept in place, so only the restatement and the damaged
        // segment fold away.
        assert_eq!(
            report,
            GcReport {
                segments_folded: 2,
                orphans_removed: 1,
                entries_kept: 2,
                duplicates_folded: before.duplicate_entries,
                lines_dropped: 1,
            }
        );
        // The in-place counters now match a fresh open of the compacted
        // directory: one canonical segment, no damage, same entries.
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 2,
                segments: 1,
                ..StoreStats::default()
            }
        );
        let reopened = SweepStore::open(&dir).unwrap();
        assert_eq!(reopened.stats(), store.stats());
        assert_eq!(reopened.lookup(&fp_a), store.lookup(&fp_a));
        assert_eq!(reopened.lookup(&fp_b), store.lookup(&fp_b));

        // gc is idempotent: a second pass folds nothing and keeps the same
        // canonical segment in place.
        let second = store.gc().unwrap();
        assert_eq!(
            second,
            GcReport {
                entries_kept: 2,
                ..GcReport::default()
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_fingerprints_are_chunking_invariant_and_config_sensitive() {
        let grid = small_grid(4);
        // Fingerprints address (series, budget index) — the chunk size used
        // to plan units never enters.
        let fine = plan_units(&grid, 1).unwrap();
        let coarse = plan_units(&grid, 4).unwrap();
        let fp_of = |units: &[WorkUnit]| -> Vec<Fingerprint> {
            units
                .iter()
                .flat_map(|u| {
                    (u.start..u.end)
                        .map(|b| point_fingerprint(&grid, u.series, b, true).unwrap())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(fp_of(&fine), fp_of(&coarse));

        // Sensitive to the warm-start mode and to the solver options.
        assert_ne!(
            point_fingerprint(&grid, 0, 0, true).unwrap(),
            point_fingerprint(&grid, 0, 0, false).unwrap()
        );
        let paper = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints(constraint_grid(0.55, 0.85, 4).unwrap())
            .backend(SolverSpec::gpa(GpaOptions::paper_defaults()))
            .build()
            .unwrap();
        assert_ne!(
            point_fingerprint(&grid, 0, 0, true).unwrap(),
            point_fingerprint(&paper, 0, 0, true).unwrap()
        );
        // Insensitive to the display label.
        let relabeled = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints(constraint_grid(0.55, 0.85, 4).unwrap())
            .backend(SolverSpec::gpa_labeled("renamed", GpaOptions::fast()))
            .build()
            .unwrap();
        assert_eq!(
            point_fingerprint(&grid, 0, 0, true).unwrap(),
            point_fingerprint(&relabeled, 0, 0, true).unwrap()
        );
        // Series fingerprints ignore the budget, point fingerprints do not.
        assert_ne!(
            point_fingerprint(&grid, 0, 0, true).unwrap(),
            point_fingerprint(&grid, 0, 1, true).unwrap()
        );
        assert_eq!(
            series_fingerprint(&grid, 0, true).unwrap(),
            series_fingerprint(&grid, 0, true).unwrap()
        );
    }

    #[test]
    fn fingerprints_are_pinned_and_the_planner_reproduces_them() {
        // Two series (Alex-16 on 2 and on 4 FPGAs), four budgets each.
        let fpga_counts = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2, 4])
            .constraints(constraint_grid(0.55, 0.85, 4).unwrap())
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        assert_eq!(fpga_counts.num_series(), 2);
        // One series on a two-group fleet whose second group is derated, so
        // its document carries the optional `wcet_scale` and `budget_scale`
        // fields, under three per-resource budgets.
        let fleet = HeterogeneousPlatform::new(
            "2×VU9P + 1×KU115 (derated)",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 2),
                DeviceGroup::new(FpgaDevice::ku115(), 1)
                    .with_wcet_scale(1.25)
                    .with_budget_scale(0.8),
            ],
        );
        let per_resource = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .platform(crate::PlatformSpec::platform(fleet))
            .budgets([
                ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.6, 0.75), 0.9),
                ResourceBudget::new(ResourceVec::new(0.7, 0.8, 0.65, 0.6), 0.75),
                ResourceBudget::new(ResourceVec::new(0.55, 0.6, 0.5, 0.85), 1.0),
            ])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        // Every stored segment is keyed by these digests: a change to the
        // canonical encodings or to the fingerprint formula fails here, and
        // must come with a STORE_VERSION bump.
        for (grid, series, budget_idx, point_hex, series_hex) in [
            (
                &fpga_counts,
                0,
                1,
                "8ebb9e93a7c68e138945e6df90cd24d8",
                "14b3d17a6f97b5d17a9f5f210dec8f43",
            ),
            (
                &fpga_counts,
                1,
                3,
                "90031e9a8ceb9c142958684c2fdf0694",
                "4789a6c9e92627c3880ec920f1873cff",
            ),
            (
                &per_resource,
                0,
                0,
                "4a0dac4b438c4c2c144a29df011ffdeb",
                "4e0c27a4bc6c2a84a55f9d8cab4bf703",
            ),
            (
                &per_resource,
                0,
                1,
                "571c6913b6807a6cdc25e26b7910a799",
                "4e0c27a4bc6c2a84a55f9d8cab4bf703",
            ),
            (
                &per_resource,
                0,
                2,
                "3b346ecfe12303d4804f6ca73604fa3e",
                "4e0c27a4bc6c2a84a55f9d8cab4bf703",
            ),
        ] {
            assert_eq!(
                point_fingerprint(grid, series, budget_idx, true)
                    .unwrap()
                    .to_hex(),
                point_hex
            );
            assert_eq!(
                series_fingerprint(grid, series, true).unwrap().to_hex(),
                series_hex
            );
        }

        let dir = temp_dir("pinned");
        let mut store = SweepStore::open(&dir).unwrap();
        for grid in [&fpga_counts, &per_resource] {
            // Units smaller than a series: the planner's keys are the public
            // fingerprints and the instance budget, point by point.
            let units = plan_units(grid, 2).unwrap();
            assert!(units.len() > grid.num_series());
            let plan = plan_store(grid, &units, true, &mut store).unwrap();
            for (unit, unit_plan) in units.iter().zip(&plan.units) {
                assert_eq!(
                    unit_plan.series_fp,
                    series_fingerprint(grid, unit.series, true).unwrap()
                );
                assert_eq!(unit_plan.point_fps.len(), unit.end - unit.start);
                assert_eq!(unit_plan.budgets.len(), unit.end - unit.start);
                let (case_idx, platform_idx, _) = grid.series_key(unit.series);
                for (k, budget_idx) in (unit.start..unit.end).enumerate() {
                    assert_eq!(
                        unit_plan.point_fps[k],
                        point_fingerprint(grid, unit.series, budget_idx, true).unwrap()
                    );
                    let instance = grid.cases[case_idx]
                        .problem_at(&grid.platforms[platform_idx], &grid.budgets[budget_idx]);
                    assert_eq!(unit_plan.budgets[k], *instance.budget());
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_lines_are_pinned() {
        // Committed segments hold these bytes and the store-server's frames
        // carry them: a change to the entry encoding fails here, and must
        // come with a STORE_VERSION bump.
        let series = Fingerprint::of_parts(1, &["series"]);
        let budget = ResourceBudget::new(ResourceVec::new(0.6, 0.55, 0.7, 0.65), 0.9);
        let solved = StoreEntry {
            series,
            budget,
            point: Some(SweepPoint {
                resource_constraint: 0.7,
                budget,
                initiation_interval_ms: 7.19,
                average_utilization: 0.625,
                spreading: 1.5,
                solve_seconds: 0.0,
                relaxation_gap: 0.03125,
                bb_nodes: 12,
                barrier_iterations: 19,
                factorizations: 23,
                simplex_pivots: 140,
                dropped_cus: 1,
                moved_cus: 0,
                migration_cost: 0.0,
                warm_start: WarmStartReport {
                    ii_hint_used: true,
                    dual_hint_used: false,
                    incumbent_used: true,
                },
            }),
            warm: WarmStart::none()
                .with_relaxed_ii(6.5)
                .with_cu_counts(vec![2, 1, 3])
                .with_gp_dual(GpDualState {
                    barrier_t: 1e9,
                    duals: vec![0.25, 1.5e-7],
                }),
        };
        let skipped = StoreEntry {
            point: None,
            warm: WarmStart::none(),
            ..solved.clone()
        };
        for (name, entry, line) in [
            (
                "solved",
                &solved,
                r#"{"v":1,"fp":"28e50ec9185fe1e8777ab369388c03ce","series":"6f5b3b06965fe1e8777ac4dafff9952a","budget":{"resources":{"lut":0.6,"ff":0.55,"bram":0.7,"dsp":0.65},"bandwidth":0.9},"point":{"resource_constraint":0.7,"budget":{"resources":{"lut":0.6,"ff":0.55,"bram":0.7,"dsp":0.65},"bandwidth":0.9},"initiation_interval_ms":7.19,"average_utilization":0.625,"spreading":1.5,"solve_seconds":0,"relaxation_gap":0.03125,"bb_nodes":12,"barrier_iterations":19,"factorizations":23,"simplex_pivots":140,"dropped_cus":1,"moved_cus":0,"migration_cost":0,"warm_start":"ii+incumbent"},"warm":{"relaxed_ii_ms":6.5,"cu_counts":[2,1,3],"gp_dual":{"barrier_t":1000000000,"duals":[0.25,0.00000015]}}}"#,
            ),
            (
                "skipped",
                &skipped,
                r#"{"v":1,"fp":"eccd833914cc98adff96834eef308512","series":"6f5b3b06965fe1e8777ac4dafff9952a","budget":{"resources":{"lut":0.6,"ff":0.55,"bram":0.7,"dsp":0.65},"bandwidth":0.9},"point":null,"warm":null}"#,
            ),
        ] {
            let fp = Fingerprint::of_parts(1, &[name]);
            assert_eq!(entry_to_json(&fp, entry).unwrap().to_string(), line);
            assert_eq!(decode_entry(line), Ok(Some((fp, entry.clone()))));
        }
    }

    #[test]
    fn planning_excludes_current_grid_points_from_seeds() {
        let dir = temp_dir("plan-seeds");
        let grid = small_grid(3);
        let units = plan_units(&grid, 8).unwrap();
        let mut store = CountingStore {
            inner: SweepStore::open(&dir).unwrap(),
            calls: Calls::default(),
        };
        // One batched lookup per plan; a seed snapshot only when a unit will
        // compute with warm starts on.
        let lookup = Calls {
            get_many: 1,
            ..Calls::default()
        };
        let lookup_and_seeds = Calls {
            get_many: 1,
            snapshot: 1,
            ..Calls::default()
        };

        // Empty store: nothing cached, nothing seeded.
        let cold = plan_store(&grid, &units, true, &mut store).unwrap();
        assert_eq!(cold.units_replayed(), 0);
        assert!(cold.units[0].seeds.is_empty());
        assert_eq!(store.take(), lookup_and_seeds);

        // Populate the store with this very grid.
        let out = crate::executor::compute_unit_hinted(&grid, &units[0], true, &[]).unwrap();
        commit_unit(&mut store, &cold.units[0], &out).unwrap();
        assert_eq!(
            store.take(),
            Calls {
                put: 1,
                ..Calls::default()
            }
        );

        // Re-planning the same grid: the unit replays, and — crucially — its
        // own points never become seeds. Nothing computes, so no snapshot.
        let replay = plan_store(&grid, &units, true, &mut store).unwrap();
        assert_eq!(replay.units_replayed(), 1);
        assert_eq!(replay.units[0].cached.as_ref().unwrap().len(), 3);
        assert!(replay.units[0].seeds.is_empty());
        assert_eq!(store.take(), lookup);

        // A *shifted* grid of the same series sees the stored points as
        // neighbour seeds, tightest budget first.
        let shifted = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.60, 0.80])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let shifted_units = plan_units(&shifted, 8).unwrap();
        let plan = plan_store(&shifted, &shifted_units, true, &mut store).unwrap();
        assert_eq!(plan.units_replayed(), 0);
        assert_eq!(store.take(), lookup_and_seeds);
        let seeds = &plan.units[0].seeds;
        assert!(
            !seeds.is_empty(),
            "stored neighbours must seed the shifted grid"
        );
        for pair in seeds.windows(2) {
            assert!(
                budget_sort_key(&pair[0].0)
                    .iter()
                    .zip(budget_sort_key(&pair[1].0).iter())
                    .map(|(a, b)| a.total_cmp(b))
                    .find(|o| o.is_ne())
                    .map(|o| o.is_le())
                    .unwrap_or(true),
                "seeds must be sorted tightest-budget-first"
            );
        }
        // With warm starts off no seeds flow at all.
        let cold_plan = plan_store(&shifted, &shifted_units, false, &mut store).unwrap();
        assert!(cold_plan.units[0].seeds.is_empty());
        assert_eq!(store.take(), lookup);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn infeasible_points_are_skipped_not_fatal() {
        let dir = temp_dir("infeasible");
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
            .fpga_counts([4])
            // 30 % cannot host CONV2 (37.6 % DSP per CU); 75 % can.
            .constraints([0.30, 0.75])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let options = crate::ExecutorOptions::serial();
        let mut store = SweepStore::open(&dir).unwrap();
        let (first, report) = crate::run_sweep_stored(&grid, &options, &mut store).unwrap();
        assert_eq!(first[0].points.len(), 1);
        assert!((first[0].points[0].resource_constraint - 0.75).abs() < 1e-12);
        assert_eq!(report.points_computed, 2);

        // The skip is stored as a result: a rerun replays both points
        // without solving and returns the same single point.
        let mut reopened = SweepStore::open(&dir).unwrap();
        let (replayed, report) = crate::run_sweep_stored(&grid, &options, &mut reopened).unwrap();
        assert_eq!(report.points_replayed, 2);
        assert_eq!(report.points_computed, 0);
        assert_eq!(replayed, first);
        fs::remove_dir_all(&dir).unwrap();
    }
}
