//! `serve-open`: an open loop at a fixed rate against an in-process daemon.
//!
//! One pipelined connection carries the load. A writer thread encodes each
//! request frame at its due time and sends it; a reader thread decodes the
//! replies and matches them to requests by id. Every request is timed from
//! its due time, so a stall delays every request behind it. A run is invalid
//! when the writer fell behind its schedule or the daemon's backlog grew.
//! Half an interval after each request the writer also sends a line to the
//! benchmark's own null service (see `null_service`), whose median latency
//! scales `p50_ms` to the reference host.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use mfa_alloc::cases::PaperCase;
use mfa_alloc::solver::{Backend, SkipPolicy, SolveRequest};
use mfa_alloc::AllocationProblem;
use mfa_explore::constraint_grid;
use mfa_serve::{
    BackendKind, FromServe, ServeHandle, ServeOptions, SolveOutcome, ToServe, PROTOCOL_VERSION,
};

use crate::null_service::NullService;
use crate::probes;
use crate::refs::{RefCheck, Refs};
use crate::stats::{self, Rng};
use crate::sys;
use crate::trace::Tracer;
use crate::{Layers, Measured, Workload};

/// Offered load, requests per second: well below what two cores sustain.
const RATE_PER_S: f64 = 150.0;

/// Constraint points per paper case.
const CONSTRAINTS_PER_CASE: usize = 8;

/// The one paper case of the `gpa-fast` class: VGG, whose `gpa-fast` solve is
/// mostly discretization. The other classes draw all three cases. With the
/// Alex cases in this class too, their requests were as light as the
/// degraded ones, and the median fell on the edge between those light
/// requests and VGG's, where it moved with the share of requests that met a
/// GP solve in progress: 0.15 of its median from run to run, against 0.04
/// for the 25th percentile, which lay inside the light cluster.
const FAST_CASE: PaperCase = PaperCase::VggOnEightFpgas;

/// Deadline of the `gpa-fast` and `gpa` classes.
const DEADLINE_S: f64 = 5.0;

/// Requests per block. Every block holds the class mix exactly, in a seeded
/// order, so the degraded count is the same for every seed: 75 %
/// `gpa-fast`, 10 % `gpa` and 15 % `gpa` with an expired deadline.
const BLOCK_LEN: usize = 20;

/// The non-GP classes of one block; the two `gpa` requests take the rest.
const BLOCK_OTHERS: [(Class, usize); 2] = [(Class::Fast, 15), (Class::Expired, 3)];

/// `gpa` requests come every this many requests (at a seeded offset), so two
/// GP solves never meet in the queue: such collisions would set the tail for
/// some seeds and not for others.
const GP_STRIDE: usize = 10;

/// The median send may trail its due time by this much before the generator
/// counts as fallen behind and the run as invalid. Single late sends are no
/// reason: every request is timed from its due time, so their wait counts.
const LATE_P50_LIMIT_MS: f64 = 1.0;

/// Longest the last reply may trail the last due time before the run is
/// reported invalid: the daemon's backlog grew.
const DRAIN_LIMIT_MS: f64 = 1000.0;

/// How long the reader waits for any frame before it gives up on the rest.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long before each due time the writer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// A run's request count is a multiple of this (rounded up from rate ×
/// seconds): whole blocks in which each class walks whole permutations of
/// its problems, so every problem appears equally often in its classes for
/// every seed, and p50 and p99 rank the same mix of solves.
const WHOLE_DECKS: usize = 480;

/// Request ids of consecutive phases never overlap.
const IDS_PER_PHASE: usize = 10_000_000;

/// Median latency of the null service on a quiet host, about what the
/// two-vCPU virtual machine the benchmark is sized for gives at the
/// reference kernel speed: `p50_ms` is reported as the daemon's median ×
/// this ÷ the null service's median of the same run.
const NULL_REF_MS: f64 = 0.45;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fast,
    Gp,
    Expired,
}

const CLASSES: [Class; 3] = [Class::Fast, Class::Gp, Class::Expired];

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Fast => "gpa-fast",
            Class::Gp => "gpa",
            Class::Expired => "gpa-expired",
        }
    }

    fn backend(self) -> BackendKind {
        match self {
            Class::Fast => BackendKind::GpaFast,
            Class::Gp | Class::Expired => BackendKind::Gpa,
        }
    }

    fn deadline_seconds(self) -> f64 {
        match self {
            Class::Fast | Class::Gp => DEADLINE_S,
            Class::Expired => 0.0,
        }
    }

    /// The backend that actually serves the class: an expired request is
    /// degraded to greedy.
    fn served_by(self) -> Backend {
        match self {
            Class::Expired => Backend::greedy(),
            class => class.backend().backend(),
        }
    }

    /// Whether the class draws problems of `case`.
    fn draws(self, case: PaperCase) -> bool {
        self != Class::Fast || case == FAST_CASE
    }
}

/// The problems a class draws, as indices into [`problems`].
type Pools = [Vec<usize>; 3];

/// The three paper cases at evenly spaced constraints across their ranges,
/// each with its reference-key prefix, and the pool of every class.
fn problems() -> (Vec<(String, AllocationProblem)>, Pools) {
    let (mut out, mut pools) = (Vec::new(), Pools::default());
    for case in PaperCase::all() {
        let (lo, hi) = case.constraint_range();
        for c in constraint_grid(lo, hi, CONSTRAINTS_PER_CASE).expect("range is valid") {
            for class in CLASSES.into_iter().filter(|class| class.draws(case)) {
                pools[class as usize].push(out.len());
            }
            let problem = case.problem(c).expect("paper cases are well-formed");
            out.push((format!("{}|{c:.4}", case.label()), problem));
        }
    }
    (out, pools)
}

/// The seeded request schedule: problem index and class per request. Each
/// class walks seeded permutations of its pool, so every problem appears
/// equally often in each class that draws it.
fn schedule(seed: u64, pools: &Pools, n: usize) -> Vec<(usize, Class)> {
    let mut rng = Rng::new(seed);
    let gp_offset = rng.below(GP_STRIDE);
    let mut others: Vec<Class> = BLOCK_OTHERS
        .iter()
        .flat_map(|&(class, count)| std::iter::repeat_n(class, count))
        .collect();
    let mut decks: [Vec<usize>; 3] = Default::default();
    let mut out = Vec::with_capacity(n);
    let mut next_other = 0;
    for i in 0..n {
        if i % BLOCK_LEN == 0 {
            rng.shuffle(&mut others);
            next_other = 0;
        }
        let class = if i % GP_STRIDE == gp_offset {
            Class::Gp
        } else {
            next_other += 1;
            others[next_other - 1]
        };
        let deck = &mut decks[class as usize];
        if deck.is_empty() {
            deck.extend(&pools[class as usize]);
            rng.shuffle(deck);
        }
        out.push((deck.pop().expect("a refilled deck is not empty"), class));
    }
    out
}

/// Reference II of every problem × class that draws it, solved cold and
/// directly.
pub fn reference_rows() -> Vec<(String, Option<f64>)> {
    let (problems, pools) = problems();
    let mut rows = Vec::new();
    for (i, (key, problem)) in problems.iter().enumerate() {
        for class in CLASSES
            .into_iter()
            .filter(|&c| pools[c as usize].contains(&i))
        {
            let report = SolveRequest::new(problem)
                .backend(class.served_by())
                .skip_policy(SkipPolicy::Lenient)
                .solve_point()
                .expect("reference solves succeed");
            let ii = report.map(|r| r.initiation_interval_ms(problem));
            rows.push((format!("{key}|{}", class.label()), ii));
        }
    }
    rows
}

/// A decoded reply to one request.
#[derive(Debug, Clone)]
pub enum Reply {
    Report(SolveOutcome),
    Rejected,
    Skipped,
    Error,
}

/// Replies matched to the requests of one phase by id.
pub struct ReplyBook {
    first_id: usize,
    replies: Vec<Option<(Instant, Reply)>>,
}

impl ReplyBook {
    /// A book for requests `first_id .. first_id + n`.
    pub fn new(first_id: usize, n: usize) -> ReplyBook {
        ReplyBook {
            first_id,
            replies: vec![None; n],
        }
    }

    /// Files a reply; an id outside the phase or answered before is an error.
    pub fn answer(&mut self, id: usize, at: Instant, reply: Reply) -> Result<(), String> {
        let slot = id
            .checked_sub(self.first_id)
            .and_then(|i| self.replies.get_mut(i))
            .ok_or_else(|| format!("reply to unknown request id {id}"))?;
        if slot.is_some() {
            return Err(format!("request {id} answered twice"));
        }
        *slot = Some((at, reply));
        Ok(())
    }

    pub fn outstanding(&self) -> usize {
        self.replies.iter().filter(|r| r.is_none()).count()
    }

    /// The report answering request `i` of the phase, if it was solved.
    pub fn report(&self, i: usize) -> Option<&SolveOutcome> {
        match &self.replies[i] {
            Some((_, Reply::Report(outcome))) => Some(outcome),
            _ => None,
        }
    }

    /// Latency of every request from its due time, in milliseconds. A
    /// request that was rejected, skipped, errored or never answered misses
    /// every latency limit: its latency is infinite.
    pub fn latencies_ms(&self, dues: &[Instant]) -> Vec<f64> {
        self.replies
            .iter()
            .zip(dues)
            .map(|(reply, due)| match reply {
                Some((at, Reply::Report(_))) => (*at - *due).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// When the last reply arrived.
    pub fn last_reply(&self) -> Option<Instant> {
        self.replies.iter().flatten().map(|(at, _)| *at).max()
    }
}

/// What the traced run needs from the last phase.
#[derive(Default)]
struct Phase {
    outcomes: Vec<SolveOutcome>,
    overhead_ms: Vec<f64>,
    frame_bytes: Vec<f64>,
    late_p99_ms: f64,
    drain_ms: f64,
    cache_hit_rate: f64,
    null_p50_ms: f64,
}

pub struct ServeOpen {
    seed: u64,
    problems: Vec<(String, AllocationProblem)>,
    pools: Pools,
    refs: Refs,
    daemon: Option<ServeHandle>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    null: NullService,
    null_reader: BufReader<TcpStream>,
    phases: usize,
    last: Phase,
}

fn io_err(err: impl std::fmt::Display) -> String {
    format!("daemon connection: {err}")
}

impl ServeOpen {
    /// Starts a daemon, opens the load connection and solves every problem
    /// once per backend that will solve it, so the timed phase meets a warm
    /// cache.
    pub fn setup(seed: u64) -> Result<ServeOpen, String> {
        let refs = Refs::parse(include_str!("../ref/serve-open.tsv"))?;
        let daemon = ServeHandle::spawn("127.0.0.1:0", ServeOptions::default()).map_err(io_err)?;
        let stream = TcpStream::connect(daemon.local_addr()).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(io_err)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        let null = NullService::spawn().map_err(io_err)?;
        null.client()
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(io_err)?;
        let null_reader = BufReader::new(null.client().try_clone().map_err(io_err)?);
        let (problems, pools) = problems();
        let mut serve = ServeOpen {
            seed,
            problems,
            pools,
            refs,
            daemon: Some(daemon),
            stream,
            reader,
            null,
            null_reader,
            phases: 0,
            last: Phase::default(),
        };
        serve.send(&ToServe::Hello {
            protocol: PROTOCOL_VERSION,
        })?;
        match serve.read_frame()? {
            FromServe::Ready { .. } => {}
            other => return Err(format!("expected ready, got {other:?}")),
        }
        let warm_up: Vec<(AllocationProblem, Class)> = [Class::Fast, Class::Gp]
            .into_iter()
            .flat_map(|class| {
                let problems = &serve.problems;
                serve.pools[class as usize]
                    .iter()
                    .map(move |&p| (problems[p].1.clone(), class))
            })
            .collect();
        for (id, (problem, class)) in warm_up.into_iter().enumerate() {
            serve.send(&ToServe::Solve {
                id,
                problem,
                backend: class.backend(),
                deadline_seconds: Some(class.deadline_seconds()),
                warm: true,
            })?;
            match serve.read_frame()? {
                FromServe::Report { id: got, .. } if got == id => {}
                other => return Err(format!("warm-up request {id} got {other:?}")),
            }
        }
        Ok(serve)
    }

    fn send(&mut self, frame: &ToServe) -> Result<(), String> {
        let line = frame.encode().map_err(io_err)?;
        writeln!(self.stream, "{line}").map_err(io_err)
    }

    fn read_frame(&mut self) -> Result<FromServe, String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line).map_err(io_err)? == 0 {
            return Err("daemon closed the connection".into());
        }
        FromServe::decode(line.trim_end()).map_err(io_err)
    }

    /// Reads replies until every request of the phase is answered or the
    /// daemon falls silent; returns the book and the decode failures.
    fn read_replies(
        reader: &mut BufReader<TcpStream>,
        mut book: ReplyBook,
        request_spans: Option<u64>,
        tracer: &Tracer,
    ) -> (ReplyBook, Vec<String>) {
        let mut failures = Vec::new();
        let mut line = String::new();
        while book.outstanding() > 0 {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    failures.push("daemon closed the connection".into());
                    break;
                }
                Ok(_) => {}
                Err(err) => {
                    failures.push(format!("no reply within {REPLY_TIMEOUT:?}: {err}"));
                    break;
                }
            }
            let at = Instant::now();
            let frame = FromServe::decode(line.trim_end());
            let decoded = Instant::now();
            let (id, reply) = match frame {
                Ok(FromServe::Report { id, outcome }) => (id, Reply::Report(outcome)),
                Ok(FromServe::Rejected { id, .. }) => (id, Reply::Rejected),
                Ok(FromServe::Skipped { id, .. }) => (id, Reply::Skipped),
                Ok(FromServe::Error { id, message }) => {
                    failures.push(format!("request {id} errored: {message}"));
                    (id, Reply::Error)
                }
                Ok(other) => {
                    failures.push(format!("unexpected frame {other:?}"));
                    continue;
                }
                Err(err) => {
                    failures.push(format!("a frame failed to decode: {err}"));
                    continue;
                }
            };
            let span = request_spans.map(|base| base + (id - book.first_id) as u64);
            tracer.record(None, "wire.decode", at, decoded, span, Some(id as u64));
            if let Err(err) = book.answer(id, at, reply) {
                failures.push(err);
            }
        }
        (book, failures)
    }
}

/// Sleeps to just before `due`, then spins to it: a timer wakeup on an idle
/// virtual core can be late by more than a whole request takes.
fn wait_until(due: Instant) {
    let wake = due.checked_sub(SPIN).unwrap_or(due);
    let now = Instant::now();
    if wake > now {
        thread::sleep(wake - now);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Reads the null service's echo of lines `0 .. n` and returns when each
/// came back, or why the rest did not.
fn read_echoes(
    reader: &mut BufReader<TcpStream>,
    n: usize,
) -> (Vec<Option<Instant>>, Option<String>) {
    let mut at = vec![None; n];
    let mut line = String::new();
    for _ in 0..n {
        line.clear();
        let failure = match reader.read_line(&mut line) {
            Ok(0) => "the null service closed the connection".to_owned(),
            Ok(_) => match line.trim().parse::<usize>() {
                Ok(i) if i < n && at[i].is_none() => {
                    at[i] = Some(Instant::now());
                    continue;
                }
                _ => format!("the null service echoed {:?}", line.trim()),
            },
            Err(err) => format!("no echo within {REPLY_TIMEOUT:?}: {err}"),
        };
        return (at, Some(failure));
    }
    (at, None)
}

impl Drop for ServeOpen {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
    }
}

impl Workload for ServeOpen {
    fn measure(&mut self, tracer: &Tracer, seconds: f64) -> Measured {
        let mut m = Measured {
            batches: 1,
            wall_by_clock: true,
            ..Measured::default()
        };
        let n = ((RATE_PER_S * seconds / WHOLE_DECKS as f64).ceil() as usize).max(1) * WHOLE_DECKS;
        self.phases += 1;
        let first_id = self.phases * IDS_PER_PHASE;
        let schedule = schedule(self.seed, &self.pools, n);
        let frames: Vec<ToServe> = schedule
            .iter()
            .enumerate()
            .map(|(i, &(p, class))| ToServe::Solve {
                id: first_id + i,
                problem: self.problems[p].1.clone(),
                backend: class.backend(),
                deadline_seconds: Some(class.deadline_seconds()),
                warm: true,
            })
            .collect();
        let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
        let request_spans = tracer.reserve(n as u64);

        let cpu = sys::cpu_seconds();
        let null_cpu = self.null.cpu_seconds();
        let start = Instant::now() + Duration::from_millis(5);
        let dues: Vec<Instant> = (0..n).map(|i| start + interval * i as u32).collect();
        let null_dues: Vec<Instant> = dues.iter().map(|&due| due + interval / 2).collect();
        let stream = &self.stream;
        let reader = &mut self.reader;
        let (null_out, null_in) = (self.null.client(), &mut self.null_reader);
        // The client threads' CPU (the writer's spin to each due time, the
        // readers' decoding) and the null service's are the benchmark's, not
        // the daemon's: they are taken out of `cpu_s`.
        let (sent, book, mut failures, echoes, client_cpu) = thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let cpu = sys::thread_cpu_seconds();
                let mut sent = Vec::with_capacity(n);
                for (i, frame) in frames.iter().enumerate() {
                    let encode_start = Instant::now();
                    let mut line = frame.encode().map_err(io_err)?;
                    let span = request_spans.map(|base| base + i as u64);
                    let id = Some((first_id + i) as u64);
                    tracer.record(None, "wire.encode", encode_start, Instant::now(), span, id);
                    line.push('\n');
                    wait_until(dues[i]);
                    let mut out: &TcpStream = stream;
                    out.write_all(line.as_bytes()).map_err(io_err)?;
                    sent.push((Instant::now(), line.len()));
                    wait_until(null_dues[i]);
                    let mut out: &TcpStream = null_out;
                    writeln!(out, "{i}").map_err(io_err)?;
                }
                Ok::<_, String>((sent, sys::thread_cpu_seconds() - cpu))
            });
            let echo = scope.spawn(|| {
                let cpu = sys::thread_cpu_seconds();
                let echoes = read_echoes(null_in, n);
                (echoes, sys::thread_cpu_seconds() - cpu)
            });
            let reader_cpu = sys::thread_cpu_seconds();
            let book = ReplyBook::new(first_id, n);
            let (book, failures) = Self::read_replies(reader, book, request_spans, tracer);
            let reader_cpu = sys::thread_cpu_seconds() - reader_cpu;
            let (sent, writer_cpu) = match writer.join().expect("writer thread panicked") {
                Ok((sent, cpu)) => (Ok(sent), cpu),
                Err(err) => (Err(err), 0.0),
            };
            let (echoes, echo_cpu) = echo.join().expect("echo reader panicked");
            (
                sent,
                book,
                failures,
                echoes,
                reader_cpu + writer_cpu + echo_cpu,
            )
        });
        let end = book.last_reply().unwrap_or_else(Instant::now);
        m.wall_s = (end - start).as_secs_f64();
        m.cpu_s = sys::cpu_seconds() - cpu - client_cpu - (self.null.cpu_seconds() - null_cpu);
        m.attempted = n;
        let sent = match sent {
            Ok(sent) => sent,
            Err(err) => {
                failures.push(format!("sending failed: {err}"));
                Vec::new()
            }
        };

        // Validity of the generator: late sends and a growing backlog.
        let late_ms: Vec<f64> = sent
            .iter()
            .zip(&dues)
            .map(|((at, _), due)| (*at - *due).as_secs_f64() * 1e3)
            .collect();
        let late_p50_ms = stats::percentile_or_zero(&late_ms, 50.0);
        let late_p99_ms = stats::percentile_or_zero(&late_ms, 99.0);
        let drain_ms = (end.max(dues[n - 1]) - dues[n - 1]).as_secs_f64() * 1e3;
        if late_p50_ms > LATE_P50_LIMIT_MS {
            failures.push(format!(
                "invalid run: the generator fell behind (median send {late_p50_ms:.2} ms late)"
            ));
        }
        if drain_ms > DRAIN_LIMIT_MS {
            failures.push(format!(
                "invalid run: the backlog grew (last reply {drain_ms:.0} ms after the last due time)"
            ));
        }

        // The null service's median between the daemon's requests.
        let (echoes, echo_failure) = echoes;
        failures.extend(echo_failure);
        let null_ms: Vec<f64> = echoes
            .iter()
            .zip(&null_dues)
            .filter_map(|(at, due)| at.map(|at| (at - *due).as_secs_f64() * 1e3))
            .collect();
        let null_p50_ms = stats::percentile_or_zero(&null_ms, 50.0);
        if null_p50_ms > 0.0 {
            m.p50_factor = Some(NULL_REF_MS / null_p50_ms);
        }

        // Output checks against the reference II of problem × class.
        let latencies = book.latencies_ms(&dues);
        let mut check = RefCheck::default();
        let mut phase = Phase {
            frame_bytes: sent.iter().map(|&(_, len)| len as f64).collect(),
            late_p99_ms,
            drain_ms,
            null_p50_ms,
            ..Phase::default()
        };
        let mut degraded = 0u64;
        for (i, &(p, class)) in schedule.iter().enumerate() {
            let key = format!("{}|{}", self.problems[p].0, class.label());
            let report = book.report(i);
            let before = check.failures.len();
            self.refs.check(&key, report.map(|r| r.ii_ms), &mut check);
            if report.is_none() || check.failures.len() > before {
                m.failed += 1;
            }
            if let Some(r) = report {
                degraded += u64::from(r.degraded_from.is_some());
                phase
                    .overhead_ms
                    .push(latencies[i] - r.queue_ms - r.solve_ms);
                phase.outcomes.push(r.clone());
                tracer.record(
                    request_spans.map(|base| base + i as u64),
                    "serve.request",
                    dues[i],
                    dues[i] + Duration::from_secs_f64(latencies[i] / 1e3),
                    None,
                    Some((first_id + i) as u64),
                );
            }
        }
        let served = phase.outcomes.len();
        let unanswered = book.outstanding();
        if unanswered > 0 {
            failures.push(format!("{unanswered} request(s) never answered"));
        }
        let unsolved = n - served - unanswered;
        if unsolved > 0 {
            failures.push(format!(
                "{unsolved} request(s) rejected, skipped or errored"
            ));
        }
        m.failures = failures;
        m.failures.extend(check.failures);
        m.ii_ratio = stats::geomean(&check.ratios);
        m.set_latencies(&latencies, 99.0, "requests");
        m.solved_share = served as f64 / n as f64;
        m.undegraded_share = (served as u64 - degraded) as f64 / served.max(1) as f64;
        m.counters = vec![
            ("served".into(), served as u64),
            ("degraded".into(), degraded),
        ];

        match self
            .send(&ToServe::Stats { id: first_id + n })
            .and_then(|()| self.read_frame())
        {
            Ok(FromServe::Stats { stats, .. }) => phase.cache_hit_rate = stats.hit_rate,
            Ok(other) => m.fail(format!("expected stats, got {other:?}")),
            Err(err) => m.fail(err),
        }
        self.last = phase;
        m
    }

    fn layers(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let phase = &self.last;
        let of = |f: fn(&SolveOutcome) -> f64| phase.outcomes.iter().map(f).collect::<Vec<f64>>();
        let at = stats::percentile_or_zero;
        layers.set("serve.queue_ms", at(&of(|o| o.queue_ms), 50.0));
        let solve_ms = of(|o| o.solve_ms);
        layers.set("serve.solve_p50_ms", at(&solve_ms, 50.0));
        layers.set("serve.solve_p99_ms", at(&solve_ms, 99.0));
        layers.set("serve.overhead_p50_ms", at(&phase.overhead_ms, 50.0));
        layers.set("serve.overhead_p99_ms", at(&phase.overhead_ms, 99.0));
        layers.set("serve.cache_hit_rate", phase.cache_hit_rate);
        layers.set(
            "wire.encode_us",
            probes::p50_ms(tracer, "wire.encode") * 1e3,
        );
        layers.set(
            "wire.decode_us",
            probes::p50_ms(tracer, "wire.decode") * 1e3,
        );
        layers.set("wire.frame_bytes", at(&phase.frame_bytes, 50.0));
        layers.set("gen.late_p99_ms", phase.late_p99_ms);
        layers.set("gen.drain_ms", phase.drain_ms);
        layers.set("gen.null_p50_ms", phase.null_p50_ms);
        layers.set(
            "gp.barrier_iterations",
            of(|o| o.barrier_iterations as f64).iter().sum(),
        );
        layers.set(
            "discretize.bb_nodes",
            of(|o| o.bb_nodes as f64).iter().sum(),
        );
        let problems: Vec<AllocationProblem> =
            self.problems.iter().map(|(_, p)| p.clone()).collect();
        probes::solver_layers(tracer, &problems, layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ii_ms: f64) -> SolveOutcome {
        SolveOutcome {
            ii_ms,
            backend: "GP+A".into(),
            degraded_from: None,
            cu_counts: vec![1],
            warm_start: "cold".into(),
            cache_hit: false,
            fingerprint: String::new(),
            barrier_iterations: 0,
            bb_nodes: 0,
            solve_ms: 1.0,
            queue_ms: 0.0,
        }
    }

    #[test]
    fn replies_match_requests_by_id() {
        let t0 = Instant::now();
        let mut book = ReplyBook::new(100, 3);
        assert_eq!(book.outstanding(), 3);
        // Replies arrive out of order.
        book.answer(102, t0, Reply::Report(outcome(2.0))).unwrap();
        book.answer(100, t0, Reply::Report(outcome(1.0))).unwrap();
        assert_eq!(book.outstanding(), 1);
        assert_eq!(book.report(0).unwrap().ii_ms, 1.0);
        assert!(book.report(1).is_none());
        assert_eq!(book.report(2).unwrap().ii_ms, 2.0);
        // A second answer and an id outside the phase are both errors.
        assert!(book.answer(102, t0, Reply::Skipped).is_err());
        assert!(book.answer(103, t0, Reply::Skipped).is_err());
        assert!(book.answer(99, t0, Reply::Skipped).is_err());
        assert!(book.answer(0, t0, Reply::Error).is_err());
    }

    #[test]
    fn unsolved_requests_miss_every_latency_limit() {
        let t0 = Instant::now();
        let dues: Vec<Instant> = (0..5).map(|i| t0 + Duration::from_millis(i)).collect();
        let mut book = ReplyBook::new(1, 5);
        book.answer(
            1,
            dues[0] + Duration::from_millis(2),
            Reply::Report(outcome(1.0)),
        )
        .unwrap();
        book.answer(2, dues[1], Reply::Rejected).unwrap();
        book.answer(3, dues[2], Reply::Skipped).unwrap();
        book.answer(4, dues[3], Reply::Error).unwrap();
        // Request 5 is never answered.
        let latencies = book.latencies_ms(&dues);
        assert!((latencies[0] - 2.0).abs() < 1e-9);
        assert!(latencies[1..].iter().all(|l| l.is_infinite()));
        let solved = (0..5).filter(|&i| book.report(i).is_some()).count();
        assert_eq!(solved, 1);
        let mut m = Measured::default();
        m.set_latencies(&latencies, 99.0, "requests");
        assert!(m.p50_ms.is_infinite() && m.tail_ms.is_infinite());
    }

    #[test]
    fn every_block_holds_the_class_mix() {
        let (problems, pools) = problems();
        for seed in 0..5 {
            let draw = schedule(seed, &pools, WHOLE_DECKS);
            assert_eq!(draw, schedule(seed, &pools, WHOLE_DECKS));
            for block in draw.chunks(BLOCK_LEN) {
                let count = |class| block.iter().filter(|&&(_, c)| c == class).count();
                assert_eq!(count(Class::Fast), 15);
                assert_eq!(count(Class::Gp), 2);
                assert_eq!(count(Class::Expired), 3);
            }
            // GP requests never come closer than the stride.
            let gp: Vec<usize> = (0..WHOLE_DECKS)
                .filter(|&i| draw[i].1 == Class::Gp)
                .collect();
            assert!(gp.windows(2).all(|w| w[1] - w[0] == GP_STRIDE));
            // Each class covers every problem of its pool equally often,
            // and no other; gpa-fast draws VGG alone.
            for class in CLASSES {
                let mut seen = vec![0usize; problems.len()];
                for &(p, _) in draw.iter().filter(|&&(_, c)| c == class) {
                    seen[p] += 1;
                }
                let pool = &pools[class as usize];
                let k = seen[pool[0]];
                assert!(k > 0, "{class:?}: {seen:?}");
                for (p, &count) in seen.iter().enumerate() {
                    assert_eq!(
                        count,
                        if pool.contains(&p) { k } else { 0 },
                        "{class:?}: {seen:?}"
                    );
                }
            }
            assert_eq!(pools[Class::Fast as usize].len(), CONSTRAINTS_PER_CASE);
            assert!(pools[Class::Fast as usize]
                .iter()
                .all(|&p| problems[p].0.starts_with(FAST_CASE.label())));
            assert_eq!(pools[Class::Gp as usize].len(), problems.len());
        }
    }
}
