//! `store-replay`: a closed loop of sweep rounds through a store-server.
//!
//! Each round opens a fresh `RemoteStore` and runs the grid serially through
//! it. Nine rounds in ten replay the namespace populated at set-up (reads);
//! one round in ten, at a seeded position, populates a fresh namespace
//! (solves plus puts).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::fingerprint::Fingerprint;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::AllocationProblem;
use mfa_explore::store::{
    entry_from_json, entry_to_json, point_fingerprint, ResultStore, StoreEntry,
};
use mfa_explore::{
    constraint_grid, run_sweep, run_sweep_stored, zero_timing, CaseSpec, ExecutorOptions,
    ExploreError, SolverSpec, SweepGrid, SweepSeries,
};
use mfa_storenet::{RemoteStore, StoreServer};

use crate::probes;
use crate::refs::{RefCheck, Refs};
use crate::stats::{self, Rng};
use crate::sweeps::planned_points;
use crate::sys;
use crate::trace::Tracer;
use crate::{Layers, Measured, Workload};

/// Rounds per second of `--seconds`: a fixed count, so the effort counters
/// repeat on every machine.
const ROUNDS_PER_SECOND: f64 = 50.0;

/// One round in this many populates a fresh namespace.
const POPULATE_EVERY: usize = 10;

/// The namespace populated at set-up and replayed by the read rounds.
const REPLAY_NAMESPACE: &str = "replay";

/// Points per work unit: a whole series, so a populate round commits (and
/// fsyncs) one segment per series. Disk sync time is not what this workload
/// measures, and the store root lives in the working directory, which need
/// not be RAM-backed.
const CHUNK_SIZE: usize = 48;

/// Set-ups of this process so far; each gets its own store root.
static SETUPS: AtomicUsize = AtomicUsize::new(0);

/// The 144-point `gpa-fast` grid: the three paper cases on 8 FPGAs × 48
/// constraints.
pub fn grid() -> SweepGrid {
    SweepGrid::builder()
        .cases(PaperCase::all().map(CaseSpec::from_paper))
        .fpga_counts([8])
        .constraints(constraint_grid(0.60, 0.80, 48).expect("range is valid"))
        .backend(SolverSpec::gpa_labeled("gpa-fast", GpaOptions::fast()))
        .build()
        .expect("store grid is well-formed")
}

/// One client thread, in units of [`CHUNK_SIZE`] points.
fn executor_options() -> ExecutorOptions {
    ExecutorOptions {
        chunk_size: CHUNK_SIZE,
        ..ExecutorOptions::serial()
    }
}

/// Reference II of every grid point.
pub fn reference_rows() -> Vec<(String, Option<f64>)> {
    let grid = grid();
    let series = run_sweep(&grid, &executor_options()).expect("reference sweep runs");
    planned_points(&grid, &series)
        .map(|(key, p)| (key, p.map(|p| p.initiation_interval_ms)))
        .collect()
}

/// A `ResultStore` that forwards to a `RemoteStore` inside one span per call.
struct Timed<'a> {
    inner: RemoteStore,
    tracer: &'a Tracer,
    parent: Option<u64>,
}

impl ResultStore for Timed<'_> {
    fn get_many(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<StoreEntry>>, ExploreError> {
        let inner = &mut self.inner;
        self.tracer
            .span("storenet.get", self.parent, |_| inner.get_many(fps))
    }

    fn get_series(
        &mut self,
        series: &Fingerprint,
    ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        let inner = &mut self.inner;
        self.tracer
            .span("storenet.get", self.parent, |_| inner.get_series(series))
    }

    fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        let inner = &mut self.inner;
        self.tracer
            .span("storenet.snapshot", self.parent, |_| inner.snapshot())
    }

    fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
        let inner = &mut self.inner;
        self.tracer
            .span("storenet.put", self.parent, |_| inner.put(entries))
    }

    fn corrupt_count(&self) -> usize {
        self.inner.corrupt_count()
    }

    fn version_mismatch_count(&self) -> usize {
        self.inner.version_mismatch_count()
    }
}

pub struct StoreReplay {
    seed: u64,
    grid: SweepGrid,
    refs: Refs,
    server: Option<StoreServer>,
    addr: String,
    root: PathBuf,
    /// The populating run's series with timing zeroed: every later round
    /// must return exactly these.
    populated: Vec<SweepSeries>,
    phases: usize,
}

fn net_err(err: impl std::fmt::Display) -> String {
    format!("store-server: {err}")
}

impl StoreReplay {
    /// Starts a store-server on a fresh root under `work` and populates the
    /// replay namespace.
    pub fn setup(seed: u64, work: &Path) -> Result<StoreReplay, String> {
        let refs = Refs::parse(include_str!("../ref/store-replay.tsv"))?;
        let root = work.join(format!("store-{}", SETUPS.fetch_add(1, Ordering::Relaxed)));
        let server = StoreServer::spawn("127.0.0.1:0", &root).map_err(net_err)?;
        let addr = server.local_addr().to_string();
        let grid = grid();
        let mut store = RemoteStore::connect(&addr, REPLAY_NAMESPACE).map_err(net_err)?;
        let (mut populated, _) = run_sweep_stored(&grid, &executor_options(), &mut store)
            .map_err(|err| format!("populating run failed: {err}"))?;
        zero_timing(&mut populated);
        Ok(StoreReplay {
            seed,
            grid,
            refs,
            server: Some(server),
            addr,
            root,
            populated,
            phases: 0,
        })
    }
}

impl Drop for StoreReplay {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Workload for StoreReplay {
    fn measure(&mut self, tracer: &Tracer, seconds: f64) -> Measured {
        let mut m = Measured {
            batches: 1,
            ..Measured::default()
        };
        // Whole blocks of rounds, so every seed populates equally often.
        let blocks =
            ((ROUNDS_PER_SECOND * seconds / POPULATE_EVERY as f64).round() as usize).max(1);
        let rounds = blocks * POPULATE_EVERY;
        self.phases += 1;
        let mut rng = Rng::new(self.seed);
        let mut pick = 0;
        let populating: Vec<bool> = (0..rounds)
            .map(|i| {
                if i % POPULATE_EVERY == 0 {
                    pick = rng.below(POPULATE_EVERY);
                }
                i % POPULATE_EVERY == pick
            })
            .collect();
        let planned = self.grid.num_points();
        let (mut round_ms, mut ratios) = (Vec::with_capacity(rounds), Vec::new());
        let (mut computed, mut replayed, mut solved) = (0u64, 0u64, 0usize);

        let cpu = sys::cpu_seconds();
        let start = Instant::now();
        for (i, &populate) in populating.iter().enumerate() {
            let namespace = if populate {
                format!("pop-{}-{i}", self.phases)
            } else {
                REPLAY_NAMESPACE.to_owned()
            };
            let t0 = Instant::now();
            let result = tracer.span("store.round", None, |round| {
                let inner = RemoteStore::connect(&self.addr, &namespace).map_err(net_err)?;
                let mut store = Timed {
                    inner,
                    tracer,
                    parent: round,
                };
                run_sweep_stored(&self.grid, &executor_options(), &mut store)
                    .map_err(|err| format!("round {i} failed: {err}"))
            });
            round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let (mut series, report) = match result {
                Ok(out) => out,
                Err(err) => {
                    m.fail(err);
                    continue;
                }
            };
            computed += report.points_computed as u64;
            replayed += report.points_replayed as u64;
            let expected_computed = if populate { planned } else { 0 };
            if report.points_computed != expected_computed {
                m.fail(format!(
                    "round {i} computed {} points, expected {expected_computed}",
                    report.points_computed
                ));
                continue;
            }
            let mut check = RefCheck::default();
            for (key, point) in planned_points(&self.grid, &series) {
                self.refs
                    .check(&key, point.map(|p| p.initiation_interval_ms), &mut check);
            }
            solved += series.iter().map(|s| s.points.len()).sum::<usize>();
            ratios.extend(check.ratios);
            zero_timing(&mut series);
            if series != self.populated {
                check.failures.push(format!(
                    "round {i}: the series differ from the populating run's"
                ));
            }
            if !check.failures.is_empty() {
                m.failed += 1;
                m.failures.extend(check.failures);
            }
        }
        m.wall_s = start.elapsed().as_secs_f64();
        m.cpu_s = sys::cpu_seconds() - cpu;
        m.attempted = rounds;
        m.set_latencies(&round_ms, 95.0, "rounds");
        m.solved_share = solved as f64 / (rounds * planned) as f64;
        m.undegraded_share = 1.0;
        m.ii_ratio = stats::geomean(&ratios);
        let populates = populating.iter().filter(|&&p| p).count() as u64;
        m.counters = vec![
            ("populate_rounds".into(), populates),
            ("replay_rounds".into(), rounds as u64 - populates),
            ("points_computed".into(), computed),
            ("points_replayed".into(), replayed),
        ];
        m
    }

    fn layers(&mut self, tracer: &Tracer, layers: &mut Layers) {
        layers.set("storenet.get_ms", probes::p50_ms(tracer, "storenet.get"));
        layers.set(
            "storenet.snapshot_ms",
            probes::p50_ms(tracer, "storenet.snapshot"),
        );
        layers.set("storenet.put_ms", probes::p50_ms(tracer, "storenet.put"));
        let calls = ["storenet.get", "storenet.snapshot", "storenet.put"]
            .iter()
            .map(|name| tracer.durations_ms(name).len())
            .sum::<usize>();
        layers.set("storenet.calls", calls as f64);

        let points = self.populated.iter().flat_map(|s| &s.points);
        layers.set(
            "discretize.bb_nodes",
            points.clone().map(|p| p.bb_nodes as f64).sum(),
        );
        layers.set(
            "linprog.pivots",
            points.map(|p| p.simplex_pivots as f64).sum(),
        );

        // Fingerprint every grid point, then encode and decode every stored
        // entry of the replay namespace.
        for series in 0..self.grid.num_series() {
            for budget in 0..self.grid.budgets().len() {
                let _ = tracer.span("store.fingerprint", None, |_| {
                    point_fingerprint(&self.grid, series, budget, true)
                });
            }
        }
        let entries = match RemoteStore::connect(&self.addr, REPLAY_NAMESPACE) {
            Ok(mut store) => store.snapshot().unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        for (fp, entry) in &entries {
            if let Ok(doc) = tracer.span("store.entry_encode", None, |_| entry_to_json(fp, entry)) {
                let _ = tracer.span("store.entry_decode", None, |_| entry_from_json(&doc));
            }
        }
        layers.set(
            "store.fingerprint_us",
            probes::p50_ms(tracer, "store.fingerprint") * 1e3,
        );
        layers.set(
            "store.entry_encode_us",
            probes::p50_ms(tracer, "store.entry_encode") * 1e3,
        );
        layers.set(
            "store.entry_decode_us",
            probes::p50_ms(tracer, "store.entry_decode") * 1e3,
        );

        let mut problems: Vec<AllocationProblem> = Vec::new();
        for case in self.grid.cases() {
            for platform in self.grid.platforms() {
                for budget in self.grid.budgets() {
                    problems.push(case.problem_at(platform, budget));
                }
            }
        }
        probes::solver_layers(tracer, &problems, layers);
    }
}
