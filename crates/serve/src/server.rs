//! The allocation daemon: accept loop, bounded admission queue, solver
//! worker pool, and the deadline-aware degradation policy.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfa_alloc::solver::{Backend, Deadline, SkipPolicy, SolveRequest, WarmStart};
use mfa_alloc::{AllocError, AllocationProblem};
use mfa_explore::session::{self, Daemon, FrameError, FrameReader, StopSignal};
use mfa_explore::DEFAULT_CACHE_CAPACITY;

use crate::cache::{family_fingerprint, ServeCache};
use crate::error::ServeError;
use crate::protocol::{
    BackendKind, FromServe, SolveOutcome, StatsReport, ToServe, PROTOCOL_VERSION,
};

/// Bound on distinct request families the warm-start cache holds (LRU
/// eviction of whole families); each family holds at most
/// [`DEFAULT_CACHE_CAPACITY`] budget entries.
const FAMILY_CAPACITY: usize = 32;

/// Configuration of a [`ServeHandle`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bound on requests admitted but not yet solved. A `solve` frame
    /// arriving at a full queue is answered with [`FromServe::Rejected`]
    /// instead of being buffered without limit.
    pub queue_capacity: usize,
    /// Solver worker threads draining the queue. `0` is admission-only — no
    /// request is ever solved — which exists so tests can fill the queue
    /// deterministically and observe the rejection path.
    pub workers: usize,
    /// Requests a worker claims from the queue in one batch. Batching keeps
    /// queue-lock traffic low and lets neighbouring requests of one burst
    /// warm-start each other back to back.
    pub batch_size: usize,
    /// Remaining-deadline threshold below which a non-greedy request is
    /// degraded to [`Backend::greedy`] instead of being started (and then
    /// almost certainly dying to [`AllocError::DeadlineExceeded`]).
    pub degrade_margin: Duration,
    /// Whether solves consult and feed the fingerprint-keyed warm-start
    /// cache (individual requests can still opt out per frame).
    pub warm_start: bool,
    /// Per-request read timeout of the connection reader: a connection that
    /// produces no complete frame within this window *while no reply is
    /// pending on it* is dropped (and counted), so a stalled client cannot
    /// pin a reader thread forever. While the connection has admitted
    /// requests still awaiting their reply the timeout never fires — the
    /// client is blocked on the daemon (queue wait plus solve), not stalled.
    /// `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Warm-cache spill backend: a store directory path, or `tcp://host:port`
    /// to share a store-server with other daemons. `None` keeps the cache
    /// memory-only.
    pub spill: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            workers: 2,
            batch_size: 4,
            degrade_margin: Duration::from_millis(50),
            warm_start: true,
            read_timeout: Some(Duration::from_secs(30)),
            spill: None,
        }
    }
}

/// A snapshot of the daemon's monotonic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a [`FromServe::Report`].
    pub served: usize,
    /// Served requests that ran on a downgraded backend.
    pub degraded: usize,
    /// Requests refused at admission because the queue was full.
    pub rejected: usize,
    /// Requests answered with [`FromServe::Skipped`] (no solution at this
    /// point under the lenient policy).
    pub skipped: usize,
    /// Client lines that failed to decode.
    pub decode_errors: usize,
    /// Connections dropped by the per-request read timeout.
    pub read_timeouts: usize,
}

/// One client connection's state, shared between its reader thread and the
/// solver workers answering its jobs.
struct Conn {
    writer: Mutex<TcpStream>,
    /// Admitted requests whose reply has not been written yet. While this is
    /// non-zero the client is legitimately blocked waiting on the daemon, so
    /// the reader's idle timeout must not drop the connection under it.
    pending: AtomicUsize,
}

/// One admitted request waiting for a solver worker.
struct Job {
    id: usize,
    problem: AllocationProblem,
    backend: BackendKind,
    deadline: Option<Deadline>,
    warm: bool,
    admitted: Instant,
    conn: Arc<Conn>,
}

/// State shared by the connection readers and the solver workers.
struct Shared {
    stop: StopSignal,
    options: ServeOptions,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    cache: Mutex<ServeCache>,
    served: AtomicUsize,
    degraded: AtomicUsize,
    rejected: AtomicUsize,
    skipped: AtomicUsize,
    decode_errors: AtomicUsize,
    read_timeouts: AtomicUsize,
}

impl Shared {
    /// Stops the daemon: the accept loop, the readers and the workers.
    fn shutdown(&self) {
        self.stop.stop();
        self.queue_cv.notify_all();
    }
}

/// A running allocation daemon bound to a TCP address.
///
/// [`spawn`](ServeHandle::spawn) binds the listener and starts the accept
/// loop of [`mfa_explore::session`] plus the solver workers;
/// [`stop`](ServeHandle::stop) shuts all of them down and joins them. Each
/// client connection is served by its own reader thread, which exits when
/// the client disconnects; at most
/// [`MAX_SESSIONS`](mfa_explore::session::MAX_SESSIONS) run at once.
pub struct ServeHandle {
    shared: Arc<Shared>,
    daemon: Daemon,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the address cannot be bound.
    pub fn spawn(addr: &str, options: ServeOptions) -> Result<ServeHandle, ServeError> {
        let (listener, stop) = session::bind(addr)?;
        let cache = match &options.spill {
            Some(spec) => {
                ServeCache::with_spill(FAMILY_CAPACITY, DEFAULT_CACHE_CAPACITY, open_spill(spec)?)
            }
            None => ServeCache::new(FAMILY_CAPACITY, DEFAULT_CACHE_CAPACITY),
        };
        let shared = Arc::new(Shared {
            stop: stop.clone(),
            cache: Mutex::new(cache),
            options,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            served: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            decode_errors: AtomicUsize::new(0),
            read_timeouts: AtomicUsize::new(0),
        });
        let workers = (0..shared.options.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let daemon = {
            let shared = Arc::clone(&shared);
            Daemon::spawn(
                listener,
                stop,
                "serve",
                error_line,
                move |frames, writer| connection_loop(frames, writer, &shared),
            )
        };
        Ok(ServeHandle {
            shared,
            daemon,
            workers,
        })
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// `true` once the daemon has been asked to stop (by a client's
    /// shutdown frame or a concurrent [`stop`](Self::stop)); the `serve`
    /// binary polls this to know when to exit.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.is_stopped()
    }

    /// A snapshot of the daemon's counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.shared.served.load(Ordering::Relaxed),
            degraded: self.shared.degraded.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            skipped: self.shared.skipped.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            read_timeouts: self.shared.read_timeouts.load(Ordering::Relaxed),
        }
    }

    /// The full stats payload a `stats` frame answers with (serving
    /// counters plus warm-cache effectiveness).
    pub fn stats_report(&self) -> StatsReport {
        stats_report(&self.shared)
    }

    /// Stops the daemon: wakes the accept loop and the workers, then joins
    /// them. Jobs still queued are dropped unanswered; connection reader
    /// threads exit when their clients disconnect.
    pub fn stop(self) {
        self.shared.shutdown();
        self.daemon.stop();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Bound on any single round trip to a remote spill store. Spill I/O runs
/// while the cache mutex is held, so a hung (not erroring) store-server
/// must cost a bounded stall — surfacing as a spill error the cache absorbs
/// (cold solve), never an indefinitely blocked worker pool.
const SPILL_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Opens the warm-cache spill backend a `--spill` spec names: a
/// `tcp://host:port` store-server session (namespace `serve-cache`, shared
/// by every daemon pointing at that server) or a local store directory.
fn open_spill(spec: &str) -> Result<Box<dyn mfa_explore::ResultStore + Send>, ServeError> {
    match mfa_storenet::store_url(spec) {
        Some(addr) => mfa_storenet::RemoteStore::connect_with_timeout(
            addr,
            "serve-cache",
            Some(SPILL_IO_TIMEOUT),
        )
        .map(|store| Box::new(store) as Box<dyn mfa_explore::ResultStore + Send>)
        .map_err(|err| ServeError::Spill(format!("{spec}: {err}"))),
        None => mfa_explore::SweepStore::open(spec)
            .map(|store| Box::new(store) as Box<dyn mfa_explore::ResultStore + Send>)
            .map_err(|err| ServeError::Spill(format!("{spec}: {err}"))),
    }
}

fn stats_report(shared: &Shared) -> StatsReport {
    let cache = shared.cache.lock().expect("cache mutex poisoned");
    StatsReport {
        served: shared.served.load(Ordering::Relaxed),
        degraded: shared.degraded.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        skipped: shared.skipped.load(Ordering::Relaxed),
        decode_errors: shared.decode_errors.load(Ordering::Relaxed),
        read_timeouts: shared.read_timeouts.load(Ordering::Relaxed),
        cache_families: cache.len(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        hit_rate: cache.hit_rate(),
    }
}

/// An encoded `error` frame with id 0, for the accept loop.
fn error_line(message: String) -> String {
    FromServe::Error { id: 0, message }
        .encode()
        .expect("an error frame always encodes")
}

/// Serves one client connection: decodes frames, answers the handshake,
/// admits solve requests into the bounded queue, and honours shutdown.
fn connection_loop(mut frames: FrameReader<TcpStream>, writer: TcpStream, shared: &Arc<Shared>) {
    if let Err(err) = writer.set_read_timeout(shared.options.read_timeout) {
        eprintln!("serve: cannot arm read timeout: {err}");
        return;
    }
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        pending: AtomicUsize::new(0),
    });
    let close = |message: String| {
        let _ = send(&conn.writer, &FromServe::Error { id: 0, message });
    };
    loop {
        if shared.stop.is_stopped() {
            return;
        }
        let frame = match frames.read_frame(session::MAX_FRAME_BYTES) {
            Ok(Some(line)) => ToServe::decode(&line).map_err(|err| err.to_string()),
            Ok(None) => return,
            // A client blocked on its own solve reply (queue wait plus solve
            // can outlast any timeout window) is waiting on us, not stalled:
            // keep listening. Bytes of a partial frame stay buffered.
            Err(FrameError::TimedOut) if conn.pending.load(Ordering::Acquire) > 0 => continue,
            // No reply owed: the client stalled mid-frame (or went silent)
            // and the reader thread is reclaimed.
            Err(FrameError::TimedOut) => {
                shared.read_timeouts.fetch_add(1, Ordering::Relaxed);
                let limit = shared
                    .options
                    .read_timeout
                    .expect("a read only times out when a timeout is armed");
                return close(ServeError::ReadTimeout(limit).to_string());
            }
            Err(FrameError::Io(err)) => {
                eprintln!("serve: connection read failed: {err}");
                return;
            }
            Err(err) => Err(err.to_string()),
        };
        match frame {
            Ok(ToServe::Hello { protocol }) => {
                if protocol != PROTOCOL_VERSION {
                    return close(format!(
                        "protocol version skew: daemon speaks {PROTOCOL_VERSION}, \
                         client sent {protocol}"
                    ));
                }
                let _ = send(
                    &conn.writer,
                    &FromServe::Ready {
                        protocol: PROTOCOL_VERSION,
                    },
                );
            }
            Ok(ToServe::Solve {
                id,
                problem,
                backend,
                deadline_seconds,
                warm,
            }) => {
                admit(shared, &conn, id, problem, backend, deadline_seconds, warm);
            }
            Ok(ToServe::Stats { id }) => {
                let _ = send(
                    &conn.writer,
                    &FromServe::Stats {
                        id,
                        stats: stats_report(shared),
                    },
                );
            }
            Ok(ToServe::Shutdown) => return shared.shutdown(),
            // An over-long, non-UTF-8 or undecodable frame. A stream that
            // desynchronized once cannot be trusted to frame the next line
            // either.
            Err(err) => {
                shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                return close(format!("malformed frame: {err}"));
            }
        }
    }
}

/// Admission control: validates the deadline, then either enqueues the
/// request or answers [`FromServe::Rejected`] when the queue is full.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    id: usize,
    problem: AllocationProblem,
    backend: BackendKind,
    deadline_seconds: Option<f64>,
    warm: bool,
) {
    // The deadline clock starts at admission: queue wait burns budget, which
    // is exactly what lets the degradation policy fire on queued requests.
    let deadline = match deadline_seconds.map(Deadline::within_seconds).transpose() {
        Ok(deadline) => deadline,
        Err(err) => {
            let _ = send(
                &conn.writer,
                &FromServe::Error {
                    id,
                    message: err.to_string(),
                },
            );
            return;
        }
    };
    let job = Job {
        id,
        problem,
        backend,
        deadline,
        warm,
        admitted: Instant::now(),
        conn: Arc::clone(conn),
    };
    let rejected = {
        let mut queue = shared.queue.lock().expect("queue mutex poisoned");
        if queue.len() >= shared.options.queue_capacity {
            Some(queue.len())
        } else {
            // Raised under the queue lock, so the count is visibly non-zero
            // before any worker can claim (and answer) the job.
            conn.pending.fetch_add(1, Ordering::AcqRel);
            queue.push_back(job);
            shared.queue_cv.notify_one();
            None
        }
    };
    if let Some(queue_depth) = rejected {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = send(
            &conn.writer,
            &FromServe::Rejected {
                id,
                queue_depth,
                capacity: shared.options.queue_capacity,
            },
        );
    }
}

/// One solver worker: claims batches off the queue and serves them.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue mutex poisoned");
            while queue.is_empty() && !shared.stop.is_stopped() {
                queue = shared.queue_cv.wait(queue).expect("queue mutex poisoned");
            }
            if shared.stop.is_stopped() {
                return;
            }
            let take = shared.options.batch_size.max(1).min(queue.len());
            queue.drain(..take).collect::<Vec<_>>()
        };
        for job in batch {
            let conn = Arc::clone(&job.conn);
            let reply = serve_one(shared, job);
            let _ = send(&conn.writer, &reply);
            conn.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Serves one admitted request end to end: degradation decision, cache
/// lookup, solve, cache update, reply construction.
fn serve_one(shared: &Arc<Shared>, job: Job) -> FromServe {
    let requested = job.backend.backend();
    let requested_label = requested.label().to_owned();

    // Deadline-aware graceful degradation: a request whose remaining budget
    // cannot plausibly fund the requested backend is downgraded to the
    // greedy fallback — run *without* the doomed deadline — instead of being
    // admitted into a solve that would only die to DeadlineExceeded. A
    // degraded result is still a real allocation; the substitution is
    // recorded in the report's provenance.
    let starved = job
        .deadline
        .map(|d| d.is_expired() || d.remaining() < shared.options.degrade_margin)
        .unwrap_or(false);
    let (served, deadline, degraded_from) = if starved {
        match requested {
            Backend::Greedy { .. } => (requested, None, None),
            _ => (Backend::greedy(), None, Some(requested_label.clone())),
        }
    } else {
        (requested, job.deadline, None)
    };

    match solve_with(shared, &job, &served, deadline, degraded_from) {
        Ok(reply) => reply,
        // Mid-flight exhaustion: the margin was optimistic and the requested
        // backend ran out of wall-clock anyway. Fall back to greedy with no
        // deadline so the daemon still returns an allocation.
        Err(AllocError::DeadlineExceeded { .. }) => {
            match solve_with(
                shared,
                &job,
                &Backend::greedy(),
                None,
                Some(requested_label),
            ) {
                Ok(reply) => reply,
                Err(err) => error_reply(shared, &job, &err),
            }
        }
        Err(err) => error_reply(shared, &job, &err),
    }
}

/// Runs one solve on `backend` and builds the reply frame. Returns `Err`
/// only for failures the caller may want to degrade on; skippable
/// no-solution outcomes become [`FromServe::Skipped`] directly.
fn solve_with(
    shared: &Arc<Shared>,
    job: &Job,
    backend: &Backend,
    deadline: Option<Deadline>,
    degraded_from: Option<String>,
) -> Result<FromServe, AllocError> {
    let family = family_fingerprint(&job.problem, backend.label())
        .map_err(|err| AllocError::InvalidArgument(err.to_string()))?;
    let warm_enabled = shared.options.warm_start && job.warm;
    let hint: Option<WarmStart> = if warm_enabled {
        shared
            .cache
            .lock()
            .expect("cache mutex poisoned")
            .lookup(family, job.problem.budget())
    } else {
        None
    };
    let cache_hit = hint.is_some();

    let mut request = SolveRequest::new(&job.problem)
        .backend(backend.clone())
        .skip_policy(SkipPolicy::Lenient);
    if let Some(hint) = hint {
        request = request.warm_start(hint);
    }
    if let Some(deadline) = deadline {
        request = request.deadline(deadline);
    }

    let started = Instant::now();
    match request.solve() {
        Ok(mut report) => {
            let solve_ms = started.elapsed().as_secs_f64() * 1e3;
            if warm_enabled {
                shared.cache.lock().expect("cache mutex poisoned").record(
                    family,
                    job.problem.budget(),
                    report.warm_start(),
                );
            }
            report.diagnostics.degraded_from = degraded_from;
            shared.served.fetch_add(1, Ordering::Relaxed);
            if report.diagnostics.degraded_from.is_some() {
                shared.degraded.fetch_add(1, Ordering::Relaxed);
            }
            let queue_ms = job.admitted.elapsed().as_secs_f64() * 1e3 - solve_ms;
            Ok(FromServe::Report {
                id: job.id,
                outcome: SolveOutcome {
                    ii_ms: report.initiation_interval_ms(&job.problem),
                    backend: report.backend.clone(),
                    degraded_from: report.diagnostics.degraded_from.clone(),
                    cu_counts: report.diagnostics.cu_counts.clone(),
                    warm_start: report.diagnostics.warm_start.provenance().to_owned(),
                    cache_hit,
                    fingerprint: family.to_hex(),
                    barrier_iterations: report.diagnostics.barrier_iterations,
                    bb_nodes: report.diagnostics.bb_nodes,
                    solve_ms,
                    queue_ms: queue_ms.max(0.0),
                },
            })
        }
        Err(err @ AllocError::DeadlineExceeded { .. }) => Err(err),
        Err(err) if SkipPolicy::Lenient.is_skippable(&err) => {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            Ok(FromServe::Skipped {
                id: job.id,
                reason: err.to_string(),
            })
        }
        Err(err) => Err(err),
    }
}

fn error_reply(shared: &Arc<Shared>, job: &Job, err: &AllocError) -> FromServe {
    // Skippable failures of the *fallback* solve still mean "no solution
    // here", not "broken request".
    if SkipPolicy::Lenient.is_skippable(err) {
        shared.skipped.fetch_add(1, Ordering::Relaxed);
        FromServe::Skipped {
            id: job.id,
            reason: err.to_string(),
        }
    } else {
        FromServe::Error {
            id: job.id,
            message: err.to_string(),
        }
    }
}

/// Encodes `frame` and writes it under the connection's writer lock.
fn send(writer: &Mutex<TcpStream>, frame: &FromServe) -> Result<(), ServeError> {
    let line = frame.encode()?;
    let stream = writer.lock().expect("writer mutex poisoned");
    session::write_frame(&*stream, line)?;
    Ok(())
}
