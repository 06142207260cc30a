//! End-to-end tests of a live store-server: session round trips, namespace
//! isolation and validation, damage handling, and remote GC.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mfa_alloc::fingerprint::Fingerprint;
use mfa_alloc::solver::WarmStart;
use mfa_explore::store::{entry_to_json, ResultStore, StoreEntry, SweepStore};
use mfa_platform::ResourceBudget;
use mfa_storenet::{
    FromStore, RemoteStore, StoreNetError, StoreServer, StoreServerOptions, ToStore,
};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfa-storenet-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_entry(budget: f64) -> StoreEntry {
    StoreEntry {
        series: Fingerprint::of_parts(1, &["series"]),
        budget: ResourceBudget::uniform(budget),
        point: None,
        warm: WarmStart::none()
            .with_relaxed_ii(0.1 + budget)
            .with_cu_counts(vec![2, 1]),
    }
}

/// Writes one segment into `dir` holding a garbage line and a
/// version-skewed line next to nothing valid.
fn write_damaged_segment(dir: &Path) {
    let future = entry_to_json(&Fingerprint::of_parts(1, &["future"]), &sample_entry(0.9))
        .unwrap()
        .to_string()
        .replace("\"v\":1", "\"v\":999");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(
        dir.join("seg-damaged.jsonl"),
        format!("not json at all\n{future}\n"),
    )
    .unwrap();
}

fn spawn(root: &Path) -> (StoreServer, String) {
    let server = StoreServer::spawn("127.0.0.1:0", root.to_path_buf()).expect("bind store-server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn sessions_round_trip_entries_and_namespaces_stay_isolated() {
    let root = temp_root("roundtrip");
    let (server, addr) = spawn(&root);

    let fp_a = Fingerprint::of_parts(1, &["a"]);
    let fp_b = Fingerprint::of_parts(1, &["b"]);
    let entry_a = sample_entry(0.6);
    let entry_b = sample_entry(0.8);

    let mut fig2 = RemoteStore::connect(&addr, "fig2").expect("connect fig2");
    fig2.put(vec![(fp_a, entry_a.clone()), (fp_b, entry_b.clone())])
        .expect("put");

    // Batched point lookup answers one slot per fingerprint, misses as None.
    let missing = Fingerprint::of_parts(1, &["missing"]);
    let slots = fig2.get_many(&[fp_a, missing, fp_b]).expect("get_many");
    assert_eq!(
        slots,
        vec![Some(entry_a.clone()), None, Some(entry_b.clone())]
    );

    // Series and snapshot queries come back sorted by fingerprint.
    let mut expected = vec![(fp_a, entry_a.clone()), (fp_b, entry_b.clone())];
    expected.sort_by_key(|(fp, _)| *fp);
    assert_eq!(fig2.get_series(&entry_a.series).expect("series"), expected);
    assert_eq!(fig2.snapshot().expect("snapshot"), expected);

    // A different namespace shares the server but none of the data.
    let mut fig3 = RemoteStore::connect(&addr, "fig3").expect("connect fig3");
    assert_eq!(fig3.snapshot().expect("snapshot"), Vec::new());
    assert_eq!(fig3.get_many(&[fp_a]).expect("get_many"), vec![None]);

    let stats = fig2.stats().expect("stats");
    assert_eq!(stats.namespaces, 2);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.puts, 2);
    // fig2's 3-point get scored 2 hits + 1 miss; fig3's 1-point get missed.
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 2);

    server.stop();

    // Committed data survives a server restart on the same root — the whole
    // point of a shared persistent cache.
    let (server, addr) = spawn(&root);
    let mut fig2 = RemoteStore::connect(&addr, "fig2").expect("reconnect fig2");
    assert_eq!(
        fig2.get_many(&[fp_a]).expect("get_many"),
        vec![Some(entry_a)]
    );
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn damaged_segments_answer_typed_misses_never_client_errors() {
    let root = temp_root("damage");
    let good_fp = Fingerprint::of_parts(1, &["good"]);
    let good = sample_entry(0.7);
    {
        let mut store = SweepStore::open(root.join("fig2")).unwrap();
        store.put(vec![(good_fp, good.clone())]).unwrap();
    }
    // Damage a remote client must never decode-fail on.
    write_damaged_segment(&root.join("fig2"));

    let (server, addr) = spawn(&root);
    let mut client = RemoteStore::connect(&addr, "fig2").expect("connect");

    // The good entry still serves; the damaged lines are plain misses.
    let skewed_fp = Fingerprint::of_parts(1, &["future"]);
    assert_eq!(
        client.get_many(&[good_fp, skewed_fp]).expect("get_many"),
        vec![Some(good), None]
    );

    // The damage is *accounted*, on the server and through the client's
    // trait surface (the sweep report prints these).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.corrupt_entries, 1);
    assert_eq!(stats.version_mismatches, 1);
    assert_eq!(client.corrupt_count(), 1);
    assert_eq!(client.version_mismatch_count(), 1);

    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn each_client_reports_its_own_namespaces_damage_only() {
    let root = temp_root("damage-per-namespace");
    write_damaged_segment(&root.join("fig2"));
    let (server, addr) = spawn(&root);

    // fig2 opens first, so the server-wide totals already hold its damage
    // when fig3 binds.
    let fig2 = RemoteStore::connect(&addr, "fig2").expect("connect fig2");
    let mut fig3 = RemoteStore::connect(&addr, "fig3").expect("connect fig3");
    assert_eq!(
        (fig3.corrupt_count(), fig3.version_mismatch_count()),
        (0, 0)
    );
    assert_eq!(
        (fig2.corrupt_count(), fig2.version_mismatch_count()),
        (1, 1)
    );

    // The stats frame still sums over every open namespace.
    let stats = fig3.stats().expect("stats");
    assert_eq!(stats.namespaces, 2);
    assert_eq!((stats.corrupt_entries, stats.version_mismatches), (1, 1));

    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn path_escaping_namespaces_are_rejected_at_the_handshake() {
    let root = temp_root("badns");
    let (server, addr) = spawn(&root);
    for bad in ["../evil", "a/b", "", ".hidden"] {
        match RemoteStore::connect(&addr, bad) {
            Err(StoreNetError::Server(msg)) => {
                assert!(msg.contains("namespace"), "{bad:?}: {msg}");
            }
            other => panic!("namespace {bad:?} must be rejected, got {other:?}"),
        }
    }
    // The rejected handshakes created nothing — in particular nothing
    // *outside* the root.
    assert!(!root.parent().unwrap().join("evil").exists());
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn remote_evict_folds_duplicates_and_compacts_segments() {
    let root = temp_root("evict");
    let (server, addr) = spawn(&root);
    let fp_a = Fingerprint::of_parts(1, &["a"]);
    let fp_b = Fingerprint::of_parts(1, &["b"]);
    let fp_c = Fingerprint::of_parts(1, &["c"]);

    let mut client = RemoteStore::connect(&addr, "fig2").expect("connect");
    // Two overlapping batches leave two segments with `a` stored twice.
    client
        .put(vec![(fp_a, sample_entry(0.6)), (fp_b, sample_entry(0.7))])
        .expect("put 1");
    client
        .put(vec![(fp_a, sample_entry(0.6)), (fp_c, sample_entry(0.8))])
        .expect("put 2");
    let before = client.stats().expect("stats");
    assert_eq!(before.segments, 2);
    assert_eq!(before.duplicate_entries, 1);

    let report = client.evict().expect("evict");
    assert_eq!(report.segments_folded, 2);
    assert_eq!(report.duplicates_folded, 1);
    assert_eq!(report.entries_kept, 3);

    let after = client.stats().expect("stats");
    assert_eq!(after.segments, 1);
    assert_eq!(after.entries, 3);
    assert_eq!(after.duplicate_entries, 0);

    // The compacted namespace still answers everything.
    assert_eq!(client.snapshot().expect("snapshot").len(), 3);
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn stalled_sessions_are_timed_out_and_reclaimed() {
    let root = temp_root("stall");
    let server = StoreServer::spawn_with(
        "127.0.0.1:0",
        root.clone(),
        StoreServerOptions {
            read_timeout: Some(Duration::from_millis(100)),
        },
    )
    .expect("bind store-server");
    let addr = server.local_addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = ToStore::Hello {
        protocol: mfa_storenet::PROTOCOL_VERSION,
        namespace: Some("fig2".into()),
    }
    .encode()
    .unwrap();
    line.push('\n');
    (&stream).write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(matches!(
        FromStore::decode(reply.trim_end()).unwrap(),
        FromStore::Ready { .. }
    ));
    // Silence: the server must reclaim the session thread instead of
    // parking it forever, answering a typed timeout error first.
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    match FromStore::decode(reply.trim_end()).unwrap() {
        FromStore::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("timed out"), "{message}");
        }
        other => panic!("expected a timeout error frame, got {other:?}"),
    }
    // …and then closes the connection.
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "expected EOF");

    // The server itself keeps serving fresh sessions.
    let mut client = RemoteStore::connect(&addr, "fig2").expect("connect after stall");
    assert_eq!(client.stats().expect("stats").namespaces, 1);
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_oversized_frame_gets_an_error_frame_and_a_closed_session() {
    let root = temp_root("oversized");
    let (server, addr) = spawn(&root);
    let stream = TcpStream::connect(&addr).unwrap();
    // A server that keeps buffering instead of answering fails the test
    // rather than hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // One byte over the limit, and no newline in sight.
    (&stream)
        .write_all(&vec![b'x'; mfa_explore::session::MAX_FRAME_BYTES + 1])
        .unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match FromStore::decode(reply.trim_end()).unwrap() {
        FromStore::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("longer than"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "expected EOF");

    // The server itself keeps serving fresh sessions.
    let mut client = RemoteStore::connect(&addr, "fig2").expect("connect after the frame");
    assert_eq!(client.stats().expect("stats").namespaces, 1);
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_idle_timed_out_session_reconnects_transparently() {
    let root = temp_root("idle-reconnect");
    let server = StoreServer::spawn_with(
        "127.0.0.1:0",
        root.clone(),
        StoreServerOptions {
            read_timeout: Some(Duration::from_millis(100)),
        },
    )
    .expect("bind store-server");
    let addr = server.local_addr().to_string();

    let fp = Fingerprint::of_parts(1, &["a"]);
    let entry = sample_entry(0.6);
    let mut client = RemoteStore::connect(&addr, "fig2").expect("connect");
    client.put(vec![(fp, entry.clone())]).expect("put");

    // Outlive the server's idle timeout: the session is dropped under the
    // client (exactly what happens to a long-idle serve daemon's spill).
    std::thread::sleep(Duration::from_millis(400));

    // The next request must redial and replay instead of failing forever.
    assert_eq!(
        client.get_many(&[fp]).expect("get after idle drop"),
        vec![Some(entry)]
    );
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_hung_store_server_costs_a_bounded_typed_error_not_a_stall() {
    // A scripted peer that completes the handshake, then goes silent while
    // keeping the socket open — the "hung, not erroring" failure mode a
    // spill backend must bound.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        // Serve each dial attempt (the client retries once on a fresh
        // session) with the handshake, then hang.
        for _ in 0..2 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() {
                return;
            }
            let mut ready = FromStore::Ready {
                protocol: mfa_storenet::PROTOCOL_VERSION,
                corrupt_entries: 0,
                version_mismatches: 0,
            }
            .encode()
            .unwrap();
            ready.push('\n');
            (&stream).write_all(ready.as_bytes()).unwrap();
            // Read the next request and never answer it; hold the socket.
            line.clear();
            let _ = reader.read_line(&mut line);
            std::thread::sleep(Duration::from_millis(800));
        }
    });

    let mut client =
        RemoteStore::connect_with_timeout(&addr, "fig2", Some(Duration::from_millis(150)))
            .expect("connect");
    let started = Instant::now();
    let err = client
        .get_many(&[Fingerprint::of_parts(1, &["a"])])
        .expect_err("a hung server must surface a typed error");
    // Bounded: one timed-out attempt plus one timed-out retry, not forever.
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "took {:?}",
        started.elapsed()
    );
    assert!(!err.to_string().is_empty());
    peer.join().unwrap();
}

#[test]
fn a_client_shutdown_frame_stops_the_whole_server() {
    let root = temp_root("shutdown");
    let (server, addr) = spawn(&root);
    let client = RemoteStore::connect(&addr, "fig2").expect("connect");
    client.shutdown().expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_stopped() {
        assert!(Instant::now() < deadline, "server did not stop");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

/// `store-server --connect ADDR --stats` and `--shutdown` need no
/// namespace, so their handshake binds none: the server opens and creates
/// nothing, and the stats line counts no namespace.
#[test]
fn wire_stats_and_shutdown_bind_no_namespace() {
    let root = temp_root("cli-unbound");
    let (server, addr) = spawn(&root);
    let cli = |action: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_store-server"))
            .args(["--connect", &addr, action])
            .output()
            .expect("run store-server");
        assert!(out.status.success(), "{action}: {out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let stats = cli("--stats");
    assert!(stats.starts_with("namespaces=0 "), "{stats}");
    assert!(cli("--shutdown").starts_with("shutdown sent to "));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_stopped() {
        assert!(Instant::now() < deadline, "server did not stop");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().namespaces, 0);
    server.stop();
    assert!(!root.join("default").exists());
    let _ = std::fs::remove_dir_all(&root);
}
