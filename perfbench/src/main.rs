//! End-to-end and per-layer benchmark of the allocation workspace.
//!
//! ```text
//! mfa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//! mfa_perfbench --write-refs
//! ```
//!
//! Workloads: `paper-quick`, `gpa-sweep`, `serve-open`, `store-replay` (see
//! `NOTES.md`). Each run sets the workload up several times and reports the
//! median set-up time, runs the timed phase for about `S` seconds, checks
//! every output against the committed reference IIs under `ref/`, and prints
//! one JSON result as its last line. Durations are scaled to a reference host
//! speed (see `calib`); the line `as measured` gives them unscaled. `--trace
//! 0` reports the end-to-end metrics; `--trace 1` runs the timed phase untraced and then traced, walks
//! the layer probes, writes the spans to `.perfbench/` and reports the
//! per-layer metrics. The exit code is 0 only when every check passed.
//! `--write-refs` regenerates the reference tables from the current code.

mod calib;
mod null_service;
mod probes;
mod refs;
mod serve_open;
mod stats;
mod store_replay;
mod sweeps;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mfa_explore::json::Json;

use crate::calib::{HostSpeed, Samples};
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper-quick", "gpa-sweep", "serve-open", "store-replay"];

/// Workloads whose threads take turns rather than run at once: the one-thread
/// sweeps, and store-replay's client and store-server, which wait for each
/// other. Their process is pinned to one CPU, so the host-speed sampler times
/// its kernel on the core the work runs on (the two cores of the shared host
/// need not be equally fast), and a hand-off between threads is a switch on
/// that core, not a wakeup of the other one, whose cost drifts with the host.
const PINNED: [&str; 3] = ["paper-quick", "gpa-sweep", "store-replay"];

/// Set-ups per run: at least [`SETUP_MIN_REPEATS`], and until
/// [`SETUP_MIN_S`] have passed. The median is reported and the last one is
/// measured.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;

/// Failure messages printed per run, at most.
const PRINTED_FAILURES: usize = 10;

/// Per-layer metrics of the traced run and their units.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("gp.relax_ms", "ms"),
    ("gp.barrier_iterations", "count"),
    ("gp.factorizations", "count"),
    ("discretize.ms", "ms"),
    ("discretize.bb_nodes", "count"),
    ("greedy.ms", "ms"),
    ("linprog.bisect_ms", "ms"),
    ("linprog.pivots", "count"),
    ("minlp.solve_s", "s"),
    ("minlp.bb_nodes", "count"),
    ("minlp.pivots", "count"),
    ("minlp.ms_per_node", "ms/node"),
    ("executor.sweep_s", "s"),
    ("executor.unit_sum_s", "s"),
    ("executor.parallel_eff", "share"),
    ("executor.warm_share", "share"),
    ("serve.queue_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.solve_p99_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_p99_ms", "ms"),
    ("serve.cache_hit_rate", "share"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("store.fingerprint_us", "us"),
    ("store.entry_encode_us", "us"),
    ("store.entry_decode_us", "us"),
    ("storenet.get_ms", "ms"),
    ("storenet.snapshot_ms", "ms"),
    ("storenet.put_ms", "ms"),
    ("storenet.calls", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.drain_ms", "ms"),
    ("gen.null_p50_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// What one timed phase measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted: sweep points, requests or store rounds.
    pub attempted: usize,
    /// Operations whose output check failed.
    pub failed: usize,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Timed passes over the workload's input (sweep batches), or 1.
    pub batches: usize,
    pub wall_s: f64,
    /// `wall_s` is set by the clock (an open loop's schedule), not by work.
    pub wall_by_clock: bool,
    pub cpu_s: f64,
    pub p50_ms: f64,
    /// The factor that scales `p50_ms` to the reference host when the
    /// workload measured one for it (serve-open's null service); `None`
    /// scales it like the other durations.
    pub p50_factor: Option<f64>,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is and over how many samples.
    pub tail_label: String,
    pub solved_share: f64,
    pub undegraded_share: f64,
    pub ii_ratio: f64,
    /// Exact effort counters; two runs of the same code must agree on them.
    pub counters: Vec<(String, u64)>,
}

impl Measured {
    /// Records a failed check of one operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// `wall_s` at the reference host speed, given the speed factor of the
    /// phase; an open loop's wall time is set by its schedule and is
    /// reported as measured.
    fn wall_at_speed(&self, factor: f64) -> f64 {
        if self.wall_by_clock {
            self.wall_s
        } else {
            self.wall_s * factor
        }
    }

    /// Sets `p50_ms` and `tail_ms` from per-operation latencies (unsolved
    /// operations as infinity). The tail is the highest percentile up to
    /// `preferred` with enough samples beyond it, or the maximum when even
    /// the lowest candidate has too few.
    pub fn set_latencies(&mut self, latencies_ms: &[f64], preferred: f64, unit: &str) {
        if latencies_ms.is_empty() {
            return;
        }
        let sorted = stats::sorted(latencies_ms);
        let n = sorted.len();
        self.p50_ms = stats::percentile(&sorted, 50.0);
        (self.tail_ms, self.tail_label) = match stats::tail_percentile(n, preferred) {
            Some(p) => (
                stats::percentile(&sorted, p),
                format!("p{p} over {n} {unit}"),
            ),
            None => (sorted[n - 1], format!("max over {n} {unit}")),
        };
    }
}

/// The per-layer metrics of a traced run; layers a workload never enters
/// stay 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}")) = value;
    }
}

/// One workload, set up and ready to measure.
pub trait Workload {
    /// Runs the timed phase for about `seconds`, checking every output.
    fn measure(&mut self, tracer: &Tracer, seconds: f64) -> Measured;

    /// Fills the per-layer metrics after a traced [`Workload::measure`]:
    /// from its spans, and by walking the layer probes on this workload's
    /// inputs.
    fn layers(&mut self, tracer: &Tracer, layers: &mut Layers);
}

/// Builds a workload's inputs and starts its servers.
fn setup(name: &str, seed: u64, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-quick" => Box::new(sweeps::Sweeps::new("paper-quick")?),
        "gpa-sweep" => Box::new(sweeps::Sweeps::new("gpa-sweep")?),
        "serve-open" => Box::new(serve_open::ServeOpen::setup(seed)?),
        "store-replay" => Box::new(store_replay::StoreReplay::setup(seed, work)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        if flag == "--write-refs" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Runs one timed phase beside the host-speed sampler and returns the pass
/// times the sampler took meanwhile. The sampler's CPU time is the
/// benchmark's, so it is left out of `cpu_s` (per batch).
fn timed(workload: &mut dyn Workload, tracer: &Tracer, seconds: f64) -> (Measured, Samples) {
    let speed = HostSpeed::start();
    let mut m = workload.measure(tracer, seconds);
    m.cpu_s -= speed.cpu_seconds() / m.batches.max(1) as f64;
    (m, speed.finish())
}

/// Scratch directory of this process under `.perfbench/`, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    // An unsolved request is an infinite latency; JSON has no infinity, and
    // the run has already failed.
    let value = if value.is_finite() { value } else { f64::MAX };
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn write_refs() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("ref");
    let rows = [
        (
            "paper-quick",
            sweeps::Sweeps::new("paper-quick").map(|w| w.reference_rows()),
        ),
        (
            "gpa-sweep",
            sweeps::Sweeps::new("gpa-sweep").map(|w| w.reference_rows()),
        ),
        ("serve-open", Ok(serve_open::reference_rows())),
        ("store-replay", Ok(store_replay::reference_rows())),
    ];
    for (name, rows) in rows {
        let rows = match rows {
            Ok(rows) => rows,
            Err(err) => {
                eprintln!("{name}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let path = dir.join(format!("{name}.tsv"));
        if let Err(err) = std::fs::write(&path, refs::Refs::render(&rows)) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} rows)", path.display(), rows.len());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_refs(),
        Err(err) => {
            eprintln!("mfa_perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(".perfbench").join(format!("work-{}", std::process::id())));
    if PINNED.contains(&args.workload.as_str()) {
        match sys::pin_to_current_cpu() {
            Ok(cpu) => println!("{}: pinned to CPU {cpu}", args.workload),
            Err(err) => eprintln!("{}: not pinned to one CPU: {err}", args.workload),
        }
    }

    // Set up several times; the last instance is measured. A sweep sets up
    // in well under a millisecond, so the run's mean host speed says little
    // about the moment of one set-up: each is scaled by kernel passes timed
    // right after it, in the same thread.
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut workload = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPEATS || setup_start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(workload.take());
        let start = Instant::now();
        match setup(&args.workload, args.seed, &work.0) {
            Ok(w) => workload = Some(w),
            Err(err) => {
                eprintln!("{}: set-up failed: {err}", args.workload);
                return ExitCode::FAILURE;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        setups_raw.push(secs);
        setups.push(secs * calib::REFERENCE_PASS_MS / calib::local_pass_ms());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let setup_s = stats::median(&setups);

    let (m, speed, layers) = if args.trace {
        let (untraced, untraced_speed) = timed(&mut *workload, &Tracer::new(false), args.seconds);
        let tracer = Tracer::new(true);
        let (mut m, speed) = timed(&mut *workload, &tracer, args.seconds);
        let mut layers = Layers::new();
        workload.layers(&tracer, &mut layers);
        // Each phase at the host speed the sampler saw while it ran.
        layers.set(
            "trace.overhead",
            m.wall_at_speed(speed.factor()) / untraced.wall_at_speed(untraced_speed.factor()),
        );
        m.failed += untraced.failed;
        m.failures.extend(untraced.failures);
        let path =
            Path::new(".perfbench").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(err) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {err}", path.display());
        }
        eprintln!(
            "spans written to {}; per span: count, total ms, self ms",
            path.display()
        );
        for (name, (count, total, own)) in tracer.summary() {
            eprintln!("  {name:<24} {count:>7} {total:>12.3} {own:>12.3}");
        }
        (m, speed, Some(layers))
    } else {
        let (m, speed) = timed(&mut *workload, &Tracer::new(false), args.seconds);
        (m, speed, None)
    };
    drop(workload);

    println!(
        "{}: seed {}, {} batch(es), {} set-up(s), tail = {}",
        args.workload,
        args.seed,
        m.batches,
        setups.len(),
        m.tail_label
    );
    let f = speed.factor();
    let p50_factor = m.p50_factor.unwrap_or(f);
    println!(
        "as measured: setup_s {:.6} wall_s {:.6} cpu_s {:.6} p50_ms {:.6} tail_ms {:.6}; \
         kernel pass {:.6} ms, speed factor {f:.6}, p50 factor {p50_factor:.6}",
        stats::median(&setups_raw),
        m.wall_s,
        m.cpu_s,
        m.p50_ms,
        m.tail_ms,
        speed.pass_ms(),
    );
    let counters: Vec<(&str, Json)> = m
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), Json::Num(*v as f64)))
        .collect();
    println!("counters {}", Json::obj(counters));
    for failure in m.failures.iter().take(PRINTED_FAILURES) {
        println!("FAILED: {failure}");
    }
    if m.failures.len() > PRINTED_FAILURES {
        println!("FAILED: … and {} more", m.failures.len() - PRINTED_FAILURES);
    }

    let metrics = match layers {
        Some(Layers(values)) => LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, metric(values[name], unit)))
            .collect(),
        None => {
            // Durations of work at the reference host speed.
            vec![
                ("setup_s", metric(setup_s, "s")),
                ("wall_s", metric(m.wall_at_speed(f), "s")),
                ("cpu_s", metric(m.cpu_s * f, "s")),
                ("p50_ms", metric(m.p50_ms * p50_factor, "ms")),
                ("tail_ms", metric(m.tail_ms * f, "ms")),
                ("solved_share", metric(m.solved_share, "share")),
                ("undegraded_share", metric(m.undegraded_share, "share")),
                ("ii_ratio", metric(m.ii_ratio, "ratio")),
                ("peak_rss_mb", metric(sys::peak_rss_mb(), "MB")),
            ]
        }
    };
    let correct = m.failures.is_empty();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(m.attempted.max(1) as f64)),
            ("failed", Json::Num(m.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
