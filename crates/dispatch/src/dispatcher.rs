//! The dispatcher: shards a [`SweepGrid`] across worker processes.
//!
//! The dispatcher reuses the executor's deterministic chunk decomposition
//! ([`plan_units`]) as its unit of distribution, leases units to workers
//! (spawned over stdio or connected over TCP), reassigns leases when a
//! worker crashes, corrupts a frame, or exceeds its lease timeout, and
//! merges completed units with [`assemble_series`] — by unit index, never by
//! completion order. Because a unit's result is a pure function of
//! `(grid, unit, warm_start, seeds)` and the wire codec round-trips floats
//! bit-for-bit, the merged output is byte-identical to
//! [`mfa_explore::run_sweep`] with
//! [`ExecutorOptions::serial`](mfa_explore::ExecutorOptions::serial)
//! (modulo the wall-clock `solve_seconds` fields) for *any* worker count,
//! partition, or completion order.
//!
//! [`run_sweep_sharded_stored`] adds the persistent sweep store: fully
//! cached units are replayed from disk without ever being leased, only the
//! remainder is distributed, store-neighbour warm-start seeds ride the unit
//! frames, and every freshly computed unit is committed the moment its
//! result frame arrives — so a killed dispatcher resumes from the units that
//! finished, exactly like the threaded executor.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mfa_explore::session::{write_frame, FrameError, FrameReader};
use mfa_explore::store::{commit_unit, plan_store, ResultStore, StorePlan};
use mfa_explore::{
    assemble_series, plan_units, StoreRunReport, SweepGrid, SweepPoint, SweepSeries, UnitOutput,
};

use crate::protocol::{FromWorker, ToWorker, PROTOCOL_VERSION};
use crate::DispatchError;

/// How to obtain one worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerSpec {
    /// Spawn a local process speaking the protocol on its stdio.
    Spawn {
        /// Path of the worker binary (see [`default_worker_program`]).
        program: PathBuf,
        /// Extra arguments (the fault-injection tests pass `--fail-after`
        /// etc. here).
        args: Vec<String>,
    },
    /// Connect to a worker listening on TCP (`sweep-worker --listen`).
    Connect {
        /// `host:port` of the remote worker.
        addr: String,
    },
}

impl WorkerSpec {
    /// A plain spawned worker with no extra arguments.
    pub fn spawn(program: impl Into<PathBuf>) -> Self {
        WorkerSpec::Spawn {
            program: program.into(),
            args: Vec::new(),
        }
    }
}

/// Options of the sharded dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchOptions {
    /// Budget points per work unit. Must match the `chunk_size` of the
    /// in-process run being compared against: the decomposition — and
    /// therefore the warm-start state every point sees — is part of the
    /// output contract. Zero is rejected, as in the executor.
    pub chunk_size: usize,
    /// Warm-start GP+A solves within a unit (see
    /// [`ExecutorOptions::warm_start`](mfa_explore::ExecutorOptions::warm_start)).
    pub warm_start: bool,
    /// A worker holding any lease longer than this is presumed hung: it is
    /// killed and its leases are reassigned. `None` disables the timeout.
    /// Timeouts below one millisecond are rejected with a typed
    /// [`DispatchError::Explore`]`(`[`InvalidOptions`]`)` error: a zero (or
    /// near-zero) timeout makes every lease instantly reassignable, so the
    /// dispatcher would kill and re-lease forever without any unit ever
    /// completing — a livelock, not a configuration.
    ///
    /// [`InvalidOptions`]: mfa_explore::ExploreError::InvalidOptions
    pub lease_timeout: Option<Duration>,
    /// Maximum leases per unit before the run fails with
    /// [`DispatchError::UnitExhausted`] (a unit that kills every worker it
    /// touches would otherwise cycle forever).
    pub max_attempts: usize,
    /// Units a worker may hold at once; 2 overlaps compute with transport.
    pub pipeline_depth: usize,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            chunk_size: 8,
            warm_start: true,
            lease_timeout: Some(Duration::from_secs(300)),
            max_attempts: 3,
            pipeline_depth: 2,
        }
    }
}

/// Locates the `sweep-worker` binary next to the current executable (the
/// cargo layout: examples live one directory below the binaries).
///
/// # Errors
///
/// Returns [`DispatchError::WorkerBinaryNotFound`] listing the paths that
/// were checked.
pub fn default_worker_program() -> Result<PathBuf, DispatchError> {
    let exe = std::env::current_exe().map_err(|err| DispatchError::Io(err.to_string()))?;
    let mut searched = Vec::new();
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join("sweep-worker");
        if candidate.is_file() {
            return Ok(candidate);
        }
        searched.push(candidate);
        dir = d.parent();
    }
    Err(DispatchError::WorkerBinaryNotFound { searched })
}

/// `count` copies of the same spawned-worker spec.
pub fn spawned_workers(program: impl Into<PathBuf>, count: usize) -> Vec<WorkerSpec> {
    let program = program.into();
    (0..count)
        .map(|_| WorkerSpec::spawn(program.clone()))
        .collect()
}

/// What the reader thread of one worker reports back to the main loop.
enum Event {
    Frame(FromWorker),
    /// The worker emitted bytes that do not decode as a frame.
    Corrupt(String),
    /// EOF or read error: the worker is gone.
    Closed,
}

/// The writing half of one worker connection (the reading half lives in the
/// reader thread).
struct Connection {
    writer: Box<dyn Write + Send>,
    child: Option<Child>,
    /// For TCP workers: a handle to force-shutdown the socket, so a wedged
    /// remote session is actually torn down (killing has no child to act
    /// on) and the reader thread is guaranteed to see EOF.
    stream: Option<TcpStream>,
}

impl Connection {
    fn terminate(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(stream) = &self.stream {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Per-worker dispatcher-side state.
struct WorkerState {
    alive: bool,
    /// Set once the worker's `ready` handshake arrives; no unit is leased
    /// before it, so a connection stuck in a TCP accept backlog (the
    /// listener serves sessions sequentially) idles harmlessly instead of
    /// stalling leases.
    ready: bool,
    /// When the connection was opened — the handshake deadline's anchor.
    connected_at: Instant,
    /// `(unit id, last liveness timestamp)` for every outstanding unit.
    /// Timestamps refresh whenever the worker proves progress (any result
    /// frame), so a queued unit behind a long solve is not misread as hung.
    leases: Vec<(usize, Instant)>,
}

/// A frame from a worker proves its whole pipeline is making progress;
/// restart the clocks of its remaining leases so a unit queued behind a
/// long solve is not misread as hung.
fn refresh_leases(state: &mut WorkerState) {
    let now = Instant::now();
    for (_, since) in &mut state.leases {
        *since = now;
    }
}

enum UnitOutcome {
    Points(Vec<Option<SweepPoint>>),
    SolverError(String),
}

/// Runs `grid` sharded across `workers` and merges the result in grid
/// order. See the module docs for the determinism contract.
///
/// # Errors
///
/// Returns [`DispatchError::Solver`] for the earliest (in unit order)
/// deterministic solver failure — mirroring [`mfa_explore::run_sweep`] —
/// and the other [`DispatchError`] variants for infrastructure failures
/// that reassignment could not absorb.
pub fn run_sweep_sharded(
    grid: &SweepGrid,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
) -> Result<Vec<SweepSeries>, DispatchError> {
    run_sharded_impl(grid, workers, options, None).map(|(series, _)| series)
}

/// Like [`run_sweep_sharded`], but backed by a persistent [`ResultStore`]
/// (a local [`mfa_explore::SweepStore`] directory or `mfa_storenet`'s
/// `RemoteStore`):
/// units whose points are all stored are replayed without being leased,
/// freshly computed units are committed as their results arrive, and
/// store-neighbour warm-start seeds are shipped to the workers. Returns the
/// merged series together with the run's store counters.
///
/// # Errors
///
/// As [`run_sweep_sharded`], plus [`DispatchError::Explore`] wrapping
/// [`mfa_explore::ExploreError::Store`] when the store directory itself
/// fails (damaged store *contents* are counted misses, never errors).
pub fn run_sweep_sharded_stored(
    grid: &SweepGrid,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
    store: &mut dyn ResultStore,
) -> Result<(Vec<SweepSeries>, StoreRunReport), DispatchError> {
    run_sharded_impl(grid, workers, options, Some(store))
}

fn run_sharded_impl(
    grid: &SweepGrid,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
    mut store: Option<&mut dyn ResultStore>,
) -> Result<(Vec<SweepSeries>, StoreRunReport), DispatchError> {
    if workers.is_empty() {
        return Err(DispatchError::NoWorkers);
    }
    if options.pipeline_depth == 0 {
        return Err(DispatchError::Explore(
            mfa_explore::ExploreError::InvalidOptions("pipeline_depth must be at least 1".into()),
        ));
    }
    if let Some(timeout) = options.lease_timeout {
        // Sub-millisecond timeouts expire leases the instant they are
        // granted: every worker is presumed hung before it can answer, its
        // leases are reassigned, and the run livelocks through kill/re-lease
        // cycles. Reject them before any worker is spawned.
        if timeout < Duration::from_millis(1) {
            return Err(DispatchError::Explore(
                mfa_explore::ExploreError::InvalidOptions(format!(
                    "lease_timeout must be at least 1ms (got {timeout:?}); \
                     use None to disable the timeout entirely"
                )),
            ));
        }
    }
    let units = plan_units(grid, options.chunk_size)?;

    // Store-backed runs consult the store at planning time: fully cached
    // units are replayed straight into the result table and never leased,
    // and the remaining units get their warm-start seeds fixed up front so
    // every worker (and any resume) computes from identical inputs.
    let plan: Option<StorePlan> = match store.as_deref_mut() {
        Some(st) => Some(plan_store(grid, &units, options.warm_start, st)?),
        None => None,
    };
    let mut report = StoreRunReport::default();
    if let Some(st) = store.as_deref() {
        report.corrupt_entries = st.corrupt_count();
        report.version_mismatches = st.version_mismatch_count();
    }
    let mut results: Vec<Option<UnitOutcome>> = (0..units.len()).map(|_| None).collect();
    if let Some(plan) = &plan {
        for (uid, unit_plan) in plan.units.iter().enumerate() {
            if let Some(points) = &unit_plan.cached {
                report.units_replayed += 1;
                report.points_replayed += points.len();
                results[uid] = Some(UnitOutcome::Points(points.clone()));
            }
        }
    }
    if results.iter().all(Option::is_some) {
        // Full replay: nothing to lease, no worker is ever spawned.
        let completed = results
            .into_iter()
            .map(|slot| match slot {
                Some(UnitOutcome::Points(points)) => points,
                _ => unreachable!("replayed units hold points"),
            })
            .collect();
        return Ok((assemble_series(grid, &units, completed), report));
    }

    let job_line = ToWorker::Job {
        protocol: PROTOCOL_VERSION,
        warm_start: options.warm_start,
        grid: grid.clone(),
    }
    .encode()?;

    let (tx, rx) = mpsc::channel::<(usize, Event)>();
    let mut conns: Vec<Option<Connection>> = Vec::with_capacity(workers.len());
    let mut states: Vec<WorkerState> = Vec::with_capacity(workers.len());
    for (id, spec) in workers.iter().enumerate() {
        let conn = open_worker(spec, id, &job_line, tx.clone())?;
        conns.push(Some(conn));
        states.push(WorkerState {
            alive: true,
            ready: false,
            connected_at: Instant::now(),
            leases: Vec::new(),
        });
    }

    let mut pending: VecDeque<usize> = (0..units.len())
        .filter(|&uid| results[uid].is_none())
        .collect();
    let mut attempts = vec![0usize; units.len()];
    // Lowest unit id that reported a deterministic solver failure. Units at
    // or above it stop being assigned, but everything below still completes
    // so the surfaced error is the lowest-index one — independent of which
    // worker failed first, exactly as in the threaded executor.
    let mut abort_at: Option<usize> = None;
    let mut failed: Vec<usize> = Vec::new();
    let mut last_fault: Option<String> = None;

    let tick = options
        .lease_timeout
        .map_or(Duration::from_millis(500), |t| {
            (t / 4).max(Duration::from_millis(50))
        });

    'run: loop {
        // 1. Bury failed workers and put their leases back in the queue.
        while let Some(wid) = failed.pop() {
            if !states[wid].alive {
                continue;
            }
            states[wid].alive = false;
            if let Some(mut conn) = conns[wid].take() {
                conn.terminate();
            }
            let leases = std::mem::take(&mut states[wid].leases);
            for (uid, _) in leases {
                // Units that already have a result, or that sit at/above the
                // abort cut, will never be reassigned — exhausting their
                // attempts must not mask the lowest-index solver error the
                // contract surfaces.
                if results[uid].is_some() || abort_at.is_some_and(|cut| uid >= cut) {
                    continue;
                }
                if attempts[uid] >= options.max_attempts {
                    shutdown_workers(&mut conns, &mut states);
                    return Err(DispatchError::UnitExhausted {
                        unit: uid,
                        attempts: attempts[uid],
                    });
                }
                // Keep the queue in unit order so reassignment preserves
                // the lowest-index-first policy.
                let pos = pending.partition_point(|&u| u < uid);
                pending.insert(pos, uid);
            }
        }

        // 2. Top up every live worker that has completed its handshake (in
        //    worker order, units in unit order).
        for wid in 0..states.len() {
            if !states[wid].alive || !states[wid].ready {
                continue;
            }
            while states[wid].leases.len() < options.pipeline_depth {
                let Some(pos) = pending
                    .iter()
                    .position(|&u| abort_at.map_or(true, |cut| u < cut))
                else {
                    break;
                };
                let uid = pending.remove(pos).expect("position() found it");
                if results[uid].is_some() {
                    continue;
                }
                attempts[uid] += 1;
                let frame = ToWorker::Unit {
                    id: uid,
                    unit: units[uid],
                    seeds: plan
                        .as_ref()
                        .map(|p| p.units[uid].seeds.clone())
                        .unwrap_or_default(),
                };
                let line = frame.encode()?;
                let conn = conns[wid].as_mut().expect("alive workers have connections");
                if write_frame(&mut conn.writer, line).is_err() {
                    // Put the unit straight back and bury the worker.
                    attempts[uid] -= 1;
                    let pos = pending.partition_point(|&u| u < uid);
                    pending.insert(pos, uid);
                    failed.push(wid);
                    continue 'run;
                }
                states[wid].leases.push((uid, Instant::now()));
            }
        }

        // 3. Done?
        let done = match abort_at {
            None => results.iter().all(Option::is_some),
            Some(cut) => results[..=cut].iter().all(Option::is_some),
        };
        if done {
            break;
        }

        // 4. Anyone left to do the remaining work?
        if states.iter().all(|s| !s.alive) {
            let outstanding = results.iter().filter(|r| r.is_none()).count();
            return Err(DispatchError::AllWorkersLost {
                outstanding,
                last_fault,
            });
        }

        // 5. Lease/handshake deadlines — checked every iteration, not only
        //    when the channel idles: a hung worker must be reaped even while
        //    its healthy peers keep streaming results.
        if let Some(limit) = options.lease_timeout {
            let now = Instant::now();
            for (wid, state) in states.iter().enumerate() {
                if !state.alive {
                    continue;
                }
                let handshake_overdue =
                    !state.ready && now.duration_since(state.connected_at) > limit;
                let lease_overdue = state
                    .leases
                    .iter()
                    .any(|(_, since)| now.duration_since(*since) > limit);
                if handshake_overdue || lease_overdue {
                    last_fault = Some(format!("worker {wid}: lease/handshake timeout"));
                    failed.push(wid);
                }
            }
            if !failed.is_empty() {
                continue;
            }
        }

        // 6. Wait for the next event.
        match rx.recv_timeout(tick) {
            Ok((wid, event)) => {
                if !states[wid].alive {
                    continue; // late chatter from a buried worker
                }
                match event {
                    Event::Frame(FromWorker::Ready { protocol }) => {
                        if protocol != PROTOCOL_VERSION {
                            shutdown_workers(&mut conns, &mut states);
                            return Err(DispatchError::Protocol(format!(
                                "worker {wid} speaks protocol {protocol}, \
                                 dispatcher speaks {PROTOCOL_VERSION}"
                            )));
                        }
                        states[wid].ready = true;
                    }
                    Event::Frame(FromWorker::Result {
                        id,
                        points,
                        warms,
                        warm_from_store,
                    }) => {
                        let Some(expected) = units.get(id).map(|u| u.end - u.start) else {
                            failed.push(wid);
                            continue;
                        };
                        if points.len() != expected || warms.len() != expected {
                            // A wrong-shaped result is worker corruption,
                            // not data: reassign, don't record.
                            failed.push(wid);
                            continue;
                        }
                        states[wid].leases.retain(|(uid, _)| *uid != id);
                        refresh_leases(&mut states[wid]);
                        if results[id].is_none() {
                            // Persist before recording, so a unit counted
                            // computed is always on disk for the next run.
                            if let (Some(st), Some(plan)) = (store.as_deref_mut(), plan.as_ref()) {
                                let output = UnitOutput {
                                    points: points.clone(),
                                    warms,
                                    warm_from_store,
                                };
                                if let Err(err) = commit_unit(st, &plan.units[id], &output) {
                                    shutdown_workers(&mut conns, &mut states);
                                    return Err(err.into());
                                }
                            }
                            report.units_computed += 1;
                            report.points_computed += points.len();
                            report.warm_from_store += warm_from_store;
                            results[id] = Some(UnitOutcome::Points(points));
                        }
                    }
                    Event::Frame(FromWorker::SolverError { id, message }) => {
                        if id >= units.len() {
                            failed.push(wid);
                            continue;
                        }
                        states[wid].leases.retain(|(uid, _)| *uid != id);
                        refresh_leases(&mut states[wid]);
                        if results[id].is_none() {
                            results[id] = Some(UnitOutcome::SolverError(message));
                        }
                        abort_at = Some(abort_at.map_or(id, |cut| cut.min(id)));
                    }
                    Event::Corrupt(fault) => {
                        last_fault = Some(format!("worker {wid}: {fault}"));
                        failed.push(wid);
                    }
                    Event::Closed => {
                        failed.push(wid);
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Nothing to do: the next iteration re-runs the deadline
                // scan in step 5.
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All reader threads ended; treat every remaining worker as
                // gone and let the liveness check above surface the error.
                for (wid, state) in states.iter().enumerate() {
                    if state.alive {
                        failed.push(wid);
                    }
                }
            }
        }
    }

    shutdown_workers(&mut conns, &mut states);

    // Surface the lowest-index solver failure, if any.
    for (uid, slot) in results.iter().enumerate() {
        if let Some(UnitOutcome::SolverError(message)) = slot {
            return Err(DispatchError::Solver {
                unit: uid,
                message: message.clone(),
            });
        }
    }
    let completed = results
        .into_iter()
        .map(|slot| match slot {
            Some(UnitOutcome::Points(points)) => points,
            _ => unreachable!("loop exits only when every unit has a result"),
        })
        .collect();
    Ok((assemble_series(grid, &units, completed), report))
}

/// Opens one worker connection, sends the job frame, and starts its reader
/// thread.
fn open_worker(
    spec: &WorkerSpec,
    id: usize,
    job_line: &str,
    tx: mpsc::Sender<(usize, Event)>,
) -> Result<Connection, DispatchError> {
    type Transport = (
        Box<dyn Write + Send>,
        Box<dyn Read + Send>,
        Option<Child>,
        Option<TcpStream>,
    );
    let (mut writer, reader, child, stream): Transport = match spec {
        WorkerSpec::Spawn { program, args } => {
            let mut child = Command::new(program)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|err| DispatchError::Spawn {
                    program: program.display().to_string(),
                    message: err.to_string(),
                })?;
            let stdin = child.stdin.take().expect("stdin was piped");
            let stdout = child.stdout.take().expect("stdout was piped");
            (Box::new(stdin), Box::new(stdout), Some(child), None)
        }
        WorkerSpec::Connect { addr } => {
            let connect_err = |err: std::io::Error| DispatchError::Connect {
                addr: addr.clone(),
                message: err.to_string(),
            };
            let stream = TcpStream::connect(addr).map_err(connect_err)?;
            let _ = stream.set_nodelay(true);
            let read_half = stream.try_clone().map_err(connect_err)?;
            let shutdown_handle = stream.try_clone().map_err(connect_err)?;
            (
                Box::new(stream),
                Box::new(read_half),
                None,
                Some(shutdown_handle),
            )
        }
    };

    // The job frame goes out before the reader thread starts, so a spawn
    // failure surfaces here rather than as a mysterious early EOF.
    write_frame(&mut writer, job_line.to_owned())
        .map_err(|err| DispatchError::Io(format!("sending job to worker {id}: {err}")))?;

    thread::spawn(move || {
        // Replies are read with no length limit: the dispatcher is the
        // client here, and a result frame grows with its unit.
        let mut frames = FrameReader::new(reader);
        loop {
            let event = match frames.read_frame(usize::MAX) {
                Ok(Some(line)) => match FromWorker::decode(&line) {
                    Ok(frame) => Event::Frame(frame),
                    Err(err) => Event::Corrupt(err.to_string()),
                },
                Ok(None) | Err(FrameError::Io(_)) => Event::Closed,
                Err(err) => Event::Corrupt(err.to_string()),
            };
            let last = !matches!(event, Event::Frame(_));
            // One bad frame condemns the stream: framing after it cannot be
            // trusted.
            if tx.send((id, event)).is_err() || last {
                return;
            }
        }
    });

    Ok(Connection {
        writer,
        child,
        stream,
    })
}

/// Sends `shutdown` to every live worker and reaps the children.
fn shutdown_workers(conns: &mut [Option<Connection>], states: &mut [WorkerState]) {
    let goodbye = ToWorker::Shutdown
        .encode()
        .expect("shutdown frame has no payload");
    for (conn, state) in conns.iter_mut().zip(states.iter_mut()) {
        if let Some(conn) = conn.as_mut() {
            if state.alive {
                let _ = write_frame(&mut conn.writer, goodbye.clone());
            }
        }
        if let Some(mut conn) = conn.take() {
            // Closing stdin is the EOF the worker exits on; kill() is the
            // backstop for wedged processes. A TCP session is shut down
            // explicitly (the goodbye above has already been flushed and TCP
            // delivers queued bytes before the FIN), which also guarantees
            // the reader thread sees EOF and exits.
            drop(conn.writer);
            if let Some(stream) = &conn.stream {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            if let Some(child) = &mut conn.child {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
        state.alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::cases::PaperCase;
    use mfa_alloc::gpa::GpaOptions;
    use mfa_explore::{CaseSpec, SolverSpec};

    fn tiny_grid() -> SweepGrid {
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.65, 0.8])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_worker_list_is_rejected() {
        assert!(matches!(
            run_sweep_sharded(&tiny_grid(), &[], &DispatchOptions::default()),
            Err(DispatchError::NoWorkers)
        ));
    }

    #[test]
    fn zero_chunk_size_is_rejected_before_spawning() {
        let err = run_sweep_sharded(
            &tiny_grid(),
            &[WorkerSpec::spawn("/nonexistent/worker")],
            &DispatchOptions {
                chunk_size: 0,
                ..DispatchOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, DispatchError::Explore(_)), "{err}");
    }

    #[test]
    fn sub_millisecond_lease_timeouts_are_rejected_before_spawning() {
        // A zero (or sub-millisecond) lease timeout expires every lease the
        // moment it is granted — the dispatcher would kill and re-lease
        // workers forever. It must be a typed config error, caught before
        // any worker process is spawned (hence the nonexistent program).
        for timeout in [Duration::ZERO, Duration::from_micros(999)] {
            let err = run_sweep_sharded(
                &tiny_grid(),
                &[WorkerSpec::spawn("/nonexistent/worker")],
                &DispatchOptions {
                    lease_timeout: Some(timeout),
                    ..DispatchOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    DispatchError::Explore(mfa_explore::ExploreError::InvalidOptions(_))
                ),
                "timeout {timeout:?}: expected InvalidOptions, got {err}"
            );
        }
        // Exactly 1ms is the smallest accepted bound; it fails later (on the
        // nonexistent worker binary), not on validation.
        let err = run_sweep_sharded(
            &tiny_grid(),
            &[WorkerSpec::spawn("/nonexistent/worker")],
            &DispatchOptions {
                lease_timeout: Some(Duration::from_millis(1)),
                ..DispatchOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, DispatchError::Spawn { .. }), "{err}");
    }

    #[test]
    fn unspawnable_worker_surfaces_the_program_name() {
        let err = run_sweep_sharded(
            &tiny_grid(),
            &[WorkerSpec::spawn("/nonexistent/worker")],
            &DispatchOptions::default(),
        )
        .unwrap_err();
        match err {
            DispatchError::Spawn { program, .. } => assert!(program.contains("nonexistent")),
            other => panic!("expected Spawn error, got {other}"),
        }
    }

    #[test]
    fn unreachable_tcp_worker_surfaces_the_address() {
        // Port 1 on localhost is essentially never listening.
        let err = run_sweep_sharded(
            &tiny_grid(),
            &[WorkerSpec::Connect {
                addr: "127.0.0.1:1".into(),
            }],
            &DispatchOptions::default(),
        )
        .unwrap_err();
        match err {
            DispatchError::Connect { addr, .. } => assert_eq!(addr, "127.0.0.1:1"),
            other => panic!("expected Connect error, got {other}"),
        }
    }
}
