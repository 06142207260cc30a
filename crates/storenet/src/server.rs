//! The store-server: accept loop and per-connection sessions serving
//! namespaced [`SweepStore`] directories over the JSON-lines protocol.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mfa_explore::session::{self, write_frame, Daemon, FrameError, FrameReader, StopSignal};
use mfa_explore::store::{ResultStore, SweepStore};

use crate::error::StoreNetError;
use crate::protocol::{FromStore, GetQuery, StoreServerStats, ToStore, PROTOCOL_VERSION};

/// Longest namespace a client may bind (a directory name under the root).
const NAMESPACE_MAX_LEN: usize = 64;

/// Configuration of a [`StoreServer`].
#[derive(Debug, Clone)]
pub struct StoreServerOptions {
    /// Per-frame read timeout of a session: a connection producing no
    /// complete frame within this window is answered with a typed error and
    /// dropped, so a stalled client cannot park a session thread forever
    /// (mirroring the serve daemon's `ServeOptions::read_timeout`). Store
    /// sessions are strict request/reply — the server never owes a waiting
    /// client a reply while it reads — so no in-flight request can be
    /// timed out under a blocked client; the default is still generous
    /// because sweep clients legitimately compute between frames, and a
    /// [`RemoteStore`](crate::RemoteStore) whose idle session was dropped
    /// transparently redials on its next request anyway. `None` waits
    /// indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for StoreServerOptions {
    fn default() -> Self {
        StoreServerOptions {
            read_timeout: Some(Duration::from_secs(300)),
        }
    }
}

/// Validates a client-supplied namespace before it becomes a directory name.
/// The namespace travels from an untrusted socket straight into a filesystem
/// path, so everything that could escape the root (`..`, separators, hidden
/// prefixes) is rejected, not sanitised.
fn validate_namespace(namespace: &str) -> Result<(), String> {
    if namespace.is_empty() {
        return Err("namespace must not be empty".into());
    }
    if namespace.len() > NAMESPACE_MAX_LEN {
        return Err(format!(
            "namespace longer than {NAMESPACE_MAX_LEN} characters"
        ));
    }
    if namespace.starts_with('.') {
        return Err(format!("namespace '{namespace}' must not start with '.'"));
    }
    if let Some(bad) = namespace
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "namespace '{namespace}' has forbidden character '{bad}' \
             (allowed: ASCII letters, digits, '.', '_', '-')"
        ));
    }
    Ok(())
}

/// One open namespace's store, individually locked so sessions on
/// different namespaces never serialize behind one store's disk I/O.
type SharedStore = Arc<Mutex<SweepStore>>;

/// State shared by the connection sessions.
struct Shared {
    stop: StopSignal,
    root: PathBuf,
    options: StoreServerOptions,
    /// Open namespaces, one lock per store. A `BTreeMap` so stats
    /// aggregation walks them in a stable order; the map is append-only
    /// (stores stay open once bound), and its own lock is only held to look
    /// up or insert handles — never across store I/O.
    stores: Mutex<BTreeMap<String, SharedStore>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    puts: AtomicUsize,
}

impl Shared {
    fn stats(&self) -> StoreServerStats {
        // Snapshot the handles first so per-store stats (a disk-backed
        // index walk) never run under the namespace map lock.
        let stores: Vec<SharedStore> = {
            let map = self.stores.lock().expect("stores mutex poisoned");
            map.values().cloned().collect()
        };
        let mut stats = StoreServerStats {
            namespaces: stores.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            ..StoreServerStats::default()
        };
        for store in stores {
            let s = store.lock().expect("store mutex poisoned").stats();
            stats.entries += s.entries;
            stats.segments += s.segments;
            stats.orphan_tmp += s.orphan_tmp;
            stats.duplicate_entries += s.duplicate_entries;
            stats.corrupt_entries += s.corrupt_entries;
            stats.version_mismatches += s.version_mismatches;
        }
        stats
    }
}

/// A running store-server bound to a TCP address, serving the namespaces
/// under one root directory.
///
/// [`spawn`](StoreServer::spawn) binds the listener and starts the accept
/// loop of [`mfa_explore::session`]; each client connection gets its own
/// session thread (exiting at client EOF), up to
/// [`MAX_SESSIONS`](mfa_explore::session::MAX_SESSIONS) at once.
/// [`stop`](StoreServer::stop) shuts the accept loop down and joins it —
/// sessions hold no dirty state (every `put` is committed to disk before
/// `put-ok` is written), so they are simply abandoned.
pub struct StoreServer {
    shared: Arc<Shared>,
    daemon: Daemon,
}

impl StoreServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving the store
    /// directories under `root` (created on first use per namespace) with
    /// [`StoreServerOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError::Io`] when the address cannot be bound.
    pub fn spawn(addr: &str, root: impl Into<PathBuf>) -> Result<StoreServer, StoreNetError> {
        Self::spawn_with(addr, root, StoreServerOptions::default())
    }

    /// Like [`spawn`](Self::spawn) with explicit [`StoreServerOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError::Io`] when the address cannot be bound.
    pub fn spawn_with(
        addr: &str,
        root: impl Into<PathBuf>,
        options: StoreServerOptions,
    ) -> Result<StoreServer, StoreNetError> {
        let (listener, stop) = session::bind(addr)?;
        let shared = Arc::new(Shared {
            stop: stop.clone(),
            root: root.into(),
            options,
            stores: Mutex::new(BTreeMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            puts: AtomicUsize::new(0),
        });
        let daemon = {
            let shared = Arc::clone(&shared);
            Daemon::spawn(
                listener,
                stop,
                "store-server",
                error_line,
                move |frames, writer| session_loop(frames, writer, &shared),
            )
        };
        Ok(StoreServer { shared, daemon })
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// `true` once the server has been asked to stop (by a client's
    /// shutdown frame or a concurrent [`stop`](Self::stop)); the
    /// `store-server` binary polls this to know when to exit.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.is_stopped()
    }

    /// A snapshot of the server's aggregate counters.
    pub fn stats(&self) -> StoreServerStats {
        self.shared.stats()
    }

    /// Stops the server: wakes the accept loop and joins it. Session
    /// threads exit when their clients disconnect; committed data is
    /// already on disk.
    pub fn stop(self) {
        self.daemon.stop();
    }
}

/// An encoded `error` frame with id 0 (error frames carry no float, so they
/// always encode).
fn error_line(message: String) -> String {
    FromStore::Error { id: 0, message }
        .encode()
        .expect("an error frame always encodes")
}

/// Answers a session-level failure; the caller then closes the session.
fn close(writer: &mut TcpStream, message: String) {
    let _ = write_frame(writer, error_line(message));
}

/// Runs `op` against the session's bound namespace, or builds the error
/// frame when no namespace is bound yet. Only the one namespace's store
/// lock is taken, so sessions on other namespaces proceed concurrently.
fn with_bound_store<T>(
    bound: &Option<SharedStore>,
    id: usize,
    op: impl FnOnce(&mut SweepStore) -> Result<T, StoreNetError>,
) -> Result<T, FromStore> {
    let Some(store) = bound else {
        return Err(FromStore::Error {
            id,
            message: "no namespace bound: open the session with a \
                      store-hello carrying a namespace"
                .into(),
        });
    };
    let mut store = store.lock().expect("store mutex poisoned");
    op(&mut store).map_err(|err| FromStore::Error {
        id,
        message: err.to_string(),
    })
}

/// Serves one client session: handshake (which binds the namespace), then
/// get/put/stats/evict requests until EOF or shutdown. Any session-level
/// failure answers one `error` frame with id 0 and closes the session.
fn session_loop(mut frames: FrameReader<TcpStream>, mut writer: TcpStream, shared: &Arc<Shared>) {
    if let Err(err) = writer.set_read_timeout(shared.options.read_timeout) {
        eprintln!("store-server: cannot arm read timeout: {err}");
        return;
    }
    let mut bound: Option<SharedStore> = None;
    loop {
        if shared.stop.is_stopped() {
            return;
        }
        let frame = match frames.read_frame(session::MAX_FRAME_BYTES) {
            Ok(Some(line)) => ToStore::decode(&line).map_err(|err| err.to_string()),
            Ok(None) => return,
            // Sessions are strict request/reply — the server never owes this
            // client a reply while it waits here — so a silent window this
            // long means a stalled (or gone) client, and the session thread
            // is reclaimed. A RemoteStore client that was merely idle
            // redials on its next request.
            Err(FrameError::TimedOut) => {
                let limit = shared
                    .options
                    .read_timeout
                    .expect("a read only times out when a timeout is armed");
                return close(
                    &mut writer,
                    format!("session timed out: no complete frame within {limit:?}"),
                );
            }
            Err(FrameError::Io(err)) => {
                eprintln!("store-server: connection read failed: {err}");
                return;
            }
            Err(err) => Err(err.to_string()),
        };
        let frame = match frame {
            Ok(frame) => frame,
            // An over-long, non-UTF-8 or undecodable frame. A stream that
            // desynchronized once cannot be trusted to frame the next line
            // either.
            Err(err) => return close(&mut writer, format!("malformed frame: {err}")),
        };
        let reply = match frame {
            ToStore::Hello {
                protocol,
                namespace,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return close(
                        &mut writer,
                        format!(
                            "protocol version skew: store-server speaks \
                             {PROTOCOL_VERSION}, client sent {protocol}"
                        ),
                    );
                }
                match bind_namespace(shared, namespace) {
                    Ok(store) => {
                        bound = store;
                        FromStore::Ready {
                            protocol: PROTOCOL_VERSION,
                        }
                    }
                    Err(message) => return close(&mut writer, message),
                }
            }
            ToStore::Get { id, query } => {
                match with_bound_store(&bound, id, |store| serve_get(store, &query)) {
                    Ok(entries) => {
                        if matches!(query, GetQuery::Points(_)) {
                            let hits = entries.iter().filter(|slot| slot.is_some()).count();
                            shared.hits.fetch_add(hits, Ordering::Relaxed);
                            shared
                                .misses
                                .fetch_add(entries.len() - hits, Ordering::Relaxed);
                        }
                        FromStore::Entries { id, entries }
                    }
                    Err(reply) => reply,
                }
            }
            ToStore::Put { id, entries } => {
                let appended = entries.len();
                match with_bound_store(&bound, id, |store| {
                    store.put(entries).map_err(StoreNetError::from)
                }) {
                    Ok(()) => {
                        shared.puts.fetch_add(appended, Ordering::Relaxed);
                        FromStore::PutOk { id, appended }
                    }
                    Err(reply) => reply,
                }
            }
            ToStore::Stats { id } => FromStore::Stats {
                id,
                stats: shared.stats(),
            },
            ToStore::Evict { id } => {
                match with_bound_store(&bound, id, |store| store.gc().map_err(StoreNetError::from))
                {
                    Ok(report) => FromStore::Evicted { id, report },
                    Err(reply) => reply,
                }
            }
            ToStore::Shutdown => return shared.stop.stop(),
        };
        let Ok(line) = reply.encode() else { return };
        if write_frame(&mut writer, line).is_err() {
            return;
        }
    }
}

/// Validates and opens (creating if needed) the namespace a handshake
/// binds, handing the session its per-namespace store lock.
fn bind_namespace(
    shared: &Shared,
    namespace: Option<String>,
) -> Result<Option<SharedStore>, String> {
    let Some(namespace) = namespace else {
        return Ok(None);
    };
    validate_namespace(&namespace)?;
    let mut stores = shared.stores.lock().expect("stores mutex poisoned");
    if let Some(store) = stores.get(&namespace) {
        return Ok(Some(Arc::clone(store)));
    }
    let store = SweepStore::open(shared.root.join(&namespace))
        .map_err(|err| format!("cannot open namespace '{namespace}': {err}"))?;
    let store = Arc::new(Mutex::new(store));
    stores.insert(namespace, Arc::clone(&store));
    Ok(Some(store))
}

type Slots = Vec<Option<(mfa_alloc::fingerprint::Fingerprint, mfa_explore::StoreEntry)>>;

fn serve_get(store: &mut SweepStore, query: &GetQuery) -> Result<Slots, StoreNetError> {
    Ok(match query {
        GetQuery::Points(fps) => store
            .get_many(fps)?
            .into_iter()
            .zip(fps)
            .map(|(slot, fp)| slot.map(|entry| (*fp, entry)))
            .collect(),
        GetQuery::Series(series) => store.get_series(series)?.into_iter().map(Some).collect(),
        GetQuery::All => store.snapshot()?.into_iter().map(Some).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_validation_rejects_path_escapes() {
        for bad in [
            "",
            "..",
            "../evil",
            "a/b",
            "a\\b",
            ".hidden",
            "fig 2",
            "fig\u{e9}",
        ] {
            assert!(validate_namespace(bad).is_err(), "{bad:?}");
        }
        for good in ["fig2", "quick.zero-timing", "serve-cache", "A_b-c.9"] {
            assert!(validate_namespace(good).is_ok(), "{good:?}");
        }
        assert!(validate_namespace(&"n".repeat(NAMESPACE_MAX_LEN)).is_ok());
        assert!(validate_namespace(&"n".repeat(NAMESPACE_MAX_LEN + 1)).is_err());
    }
}
