//! `store-server` — the shared result-store daemon and its lifecycle
//! tooling.
//!
//! ```text
//! store-server --dir DIR --listen ADDR [--read-timeout-ms MS]
//!     bind ADDR (e.g. 127.0.0.1:0), print the bound address to stdout,
//!     then serve the store namespaces under DIR until a client sends a
//!     shutdown frame; sessions producing no frame within MS milliseconds
//!     are dropped (default 300000; 0 waits forever)
//! store-server --dir DIR --stats
//!     print aggregate stats of the store directories under DIR (DIR itself
//!     plus its immediate subdirectories) without starting a server
//! store-server --dir DIR --gc
//!     run the GC/compaction pass on every store directory under DIR and
//!     print what it folded
//! store-server --connect ADDR [--namespace NS] --stats|--gc|--shutdown
//!     talk to a live store-server: print its aggregate stats, compact the
//!     given namespace (default `default`), or shut it down; --stats and
//!     --shutdown bind no namespace, so they create none
//! ```

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use mfa_explore::session::{write_frame, FrameReader};
use mfa_explore::{GcReport, SweepStore};
use mfa_storenet::{
    FromStore, RemoteStore, StoreServer, StoreServerOptions, StoreServerStats, ToStore,
    PROTOCOL_VERSION,
};

enum Action {
    Listen(String),
    Stats,
    Gc,
    Shutdown,
}

struct Args {
    dir: Option<PathBuf>,
    connect: Option<String>,
    namespace: String,
    options: StoreServerOptions,
    action: Action,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut connect = None;
    let mut namespace = "default".to_owned();
    let mut options = StoreServerOptions::default();
    let mut action = None;
    let set_action = |next: Action, current: &mut Option<Action>| -> Result<(), String> {
        if current.is_some() {
            return Err("pick exactly one of --listen/--stats/--gc/--shutdown".into());
        }
        *current = Some(next);
        Ok(())
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(iter.next().ok_or("--dir needs a path")?)),
            "--connect" => {
                connect = Some(iter.next().ok_or("--connect needs an address")?);
            }
            "--namespace" => {
                namespace = iter.next().ok_or("--namespace needs a name")?;
            }
            "--listen" => {
                let addr = iter.next().ok_or("--listen needs an address")?;
                set_action(Action::Listen(addr), &mut action)?;
            }
            "--read-timeout-ms" => {
                let ms: u64 = iter
                    .next()
                    .ok_or("--read-timeout-ms needs a value")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs a nonnegative integer".to_owned())?;
                options.read_timeout = match ms {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                };
            }
            "--stats" => set_action(Action::Stats, &mut action)?,
            "--gc" => set_action(Action::Gc, &mut action)?,
            "--shutdown" => set_action(Action::Shutdown, &mut action)?,
            other => {
                return Err(format!(
                    "unknown flag {other} (see the header of store_server.rs)"
                ));
            }
        }
    }
    if dir.is_some() == connect.is_some() {
        return Err("pick exactly one of --dir DIR (local) or --connect ADDR (wire)".into());
    }
    Ok(Args {
        dir,
        connect,
        namespace,
        options,
        action: action.ok_or("pick an action: --listen/--stats/--gc/--shutdown")?,
    })
}

fn print_stats(stats: &StoreServerStats) {
    println!(
        "namespaces={} entries={} segments={} orphan_tmp={} duplicate_entries={} \
         corrupt_entries={} version_mismatches={} hits={} misses={} puts={}",
        stats.namespaces,
        stats.entries,
        stats.segments,
        stats.orphan_tmp,
        stats.duplicate_entries,
        stats.corrupt_entries,
        stats.version_mismatches,
        stats.hits,
        stats.misses,
        stats.puts
    );
}

fn print_gc(label: &str, report: &GcReport) {
    println!(
        "{label}: segments_folded={} orphans_removed={} entries_kept={} \
         duplicates_folded={} lines_dropped={}",
        report.segments_folded,
        report.orphans_removed,
        report.entries_kept,
        report.duplicates_folded,
        report.lines_dropped
    );
}

/// Store directories under `root` for the offline modes: `root` itself when
/// it holds segments, plus every immediate subdirectory holding any (the
/// layout a store-server's namespaces or `dse`'s per-figure subdirs leave
/// behind).
fn local_store_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let holds_segments = |dir: &Path| -> bool {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .any(|e| e.path().extension().is_some_and(|ext| ext == "jsonl"))
            })
            .unwrap_or(false)
    };
    let mut dirs = Vec::new();
    if holds_segments(root) {
        dirs.push(root.to_path_buf());
    }
    let listing =
        std::fs::read_dir(root).map_err(|err| format!("cannot list {}: {err}", root.display()))?;
    let mut subdirs: Vec<PathBuf> = listing
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && holds_segments(p))
        .collect();
    subdirs.sort();
    dirs.extend(subdirs);
    if dirs.is_empty() {
        return Err(format!(
            "no store segments under {} (nothing to report)",
            root.display()
        ));
    }
    Ok(dirs)
}

fn run_local(root: &Path, action: &Action) -> Result<(), String> {
    let dirs = local_store_dirs(root)?;
    let mut total = StoreServerStats {
        namespaces: dirs.len(),
        ..StoreServerStats::default()
    };
    for dir in &dirs {
        let mut store =
            SweepStore::open(dir.clone()).map_err(|err| format!("{}: {err}", dir.display()))?;
        if matches!(action, Action::Gc) {
            let report = store
                .gc()
                .map_err(|err| format!("{}: {err}", dir.display()))?;
            print_gc(&dir.display().to_string(), &report);
        }
        let stats = store.stats();
        total.entries += stats.entries;
        total.segments += stats.segments;
        total.orphan_tmp += stats.orphan_tmp;
        total.duplicate_entries += stats.duplicate_entries;
        total.corrupt_entries += stats.corrupt_entries;
        total.version_mismatches += stats.version_mismatches;
    }
    print_stats(&total);
    Ok(())
}

fn run_wire(addr: &str, namespace: &str, action: &Action) -> Result<(), String> {
    let in_ctx = |err: String| format!("store-server at {addr}: {err}");
    match action {
        Action::Gc => {
            let report = RemoteStore::connect(addr, namespace)
                .and_then(|mut client| client.evict())
                .map_err(|err| in_ctx(err.to_string()))?;
            print_gc(namespace, &report);
            Ok(())
        }
        Action::Stats | Action::Shutdown => run_unbound(addr, action).map_err(in_ctx),
        Action::Listen(_) => unreachable!("--listen is rejected with --connect at parse time"),
    }
}

/// `--stats` and `--shutdown` over a session whose handshake binds no
/// namespace: neither needs one, and binding one would make the server
/// create it.
fn run_unbound(addr: &str, action: &Action) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|err| err.to_string())?;
    let mut reader = FrameReader::new(stream.try_clone().map_err(|err| err.to_string())?);
    let mut writer = stream;
    let mut send = |frame: ToStore| -> Result<(), String> {
        let line = frame.encode().map_err(|err| err.to_string())?;
        write_frame(&mut writer, line).map_err(|err| err.to_string())
    };
    let mut receive = || -> Result<FromStore, String> {
        let line = reader
            .read_frame(usize::MAX)
            .map_err(|err| err.to_string())?
            .ok_or("the store-server closed the session")?;
        match FromStore::decode(&line).map_err(|err| err.to_string())? {
            FromStore::Error { message, .. } => Err(message),
            frame => Ok(frame),
        }
    };
    send(ToStore::Hello {
        protocol: PROTOCOL_VERSION,
        namespace: None,
    })?;
    match receive()? {
        FromStore::Ready { protocol, .. } if protocol == PROTOCOL_VERSION => {}
        other => return Err(format!("expected store-ready, got {other:?}")),
    }
    if matches!(action, Action::Shutdown) {
        send(ToStore::Shutdown)?;
        println!("shutdown sent to {addr}");
        return Ok(());
    }
    send(ToStore::Stats { id: 1 })?;
    match receive()? {
        FromStore::Stats { stats, .. } => {
            print_stats(&stats);
            Ok(())
        }
        other => Err(format!("expected stats, got {other:?}")),
    }
}

fn serve(dir: PathBuf, addr: &str, options: StoreServerOptions) -> Result<(), String> {
    let server = StoreServer::spawn_with(addr, dir, options)
        .map_err(|err| format!("cannot bind {addr}: {err}"))?;
    // Print the bound address (resolves :0 to the actual port) so a parent
    // process can point clients at it — same convention as serve and
    // sweep-worker.
    println!("listening on {}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());

    // The server runs until a client's shutdown frame flips the stop flag;
    // park-and-poll keeps the main thread cheap without a dedicated signal.
    while !server.is_stopped() {
        std::thread::park_timeout(Duration::from_millis(200));
    }
    let stats = server.stats();
    server.stop();
    print_stats(&stats);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("store-server: {msg}");
            return ExitCode::from(2);
        }
    };
    let run = match (&args.action, args.dir, args.connect) {
        (Action::Listen(addr), Some(dir), None) => serve(dir, addr, args.options),
        (Action::Listen(_), None, Some(_)) => {
            Err("--listen serves a local --dir, not a --connect peer".into())
        }
        (action, Some(dir), None) => match action {
            Action::Shutdown => Err("--shutdown needs --connect ADDR (a live server)".into()),
            action => run_local(&dir, action),
        },
        (action, None, Some(addr)) => run_wire(&addr, &args.namespace, action),
        _ => unreachable!("parse_args enforces exactly one of --dir/--connect"),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("store-server: {msg}");
            ExitCode::FAILURE
        }
    }
}
