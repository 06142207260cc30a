//! The [`RemoteStore`] client: the store-server side of the
//! [`ResultStore`] trait, so executors, `dse` and serve daemons consume a
//! shared network store through the exact surface a local directory store
//! offers.

use std::net::TcpStream;
use std::time::Duration;

use mfa_alloc::fingerprint::Fingerprint;
use mfa_explore::session::{write_frame, FrameReader};
use mfa_explore::store::{ResultStore, StoreEntry};
use mfa_explore::{ExploreError, GcReport};

use crate::error::StoreNetError;
use crate::protocol::{FromStore, GetQuery, StoreServerStats, ToStore, PROTOCOL_VERSION};

/// Extracts the address from a `tcp://host:port` store spec, the form the
/// CLI surfaces (`dse --store tcp://…`, `serve --spill tcp://…`) use to
/// pick the remote backend over a local directory.
pub fn store_url(spec: &str) -> Option<&str> {
    spec.strip_prefix("tcp://")
}

/// One live TCP session with the store-server: the handshaken socket pair.
///
/// A session is disposable — any transport or framing failure tears the
/// whole session down (a half-read reply cannot be resynchronized), and the
/// owning [`RemoteStore`] dials a fresh one on the next request.
#[derive(Debug)]
struct Session {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn send(&mut self, frame: &ToStore) -> Result<(), StoreNetError> {
        Ok(write_frame(&mut self.writer, frame.encode()?)?)
    }

    fn read_frame(&mut self) -> Result<FromStore, StoreNetError> {
        // No length limit: a snapshot reply grows with the namespace.
        match self
            .reader
            .read_frame(usize::MAX)
            .map_err(std::io::Error::other)?
        {
            Some(line) => Ok(FromStore::decode(&line)?),
            None => Err(StoreNetError::Protocol(
                "store-server closed the session mid-request".into(),
            )),
        }
    }

    /// Reads the reply to request `id`, turning server error frames into
    /// [`StoreNetError::Server`] and id skew into a protocol error.
    fn expect_reply(&mut self, id: usize) -> Result<FromStore, StoreNetError> {
        let frame = self.read_frame()?;
        let got = match &frame {
            FromStore::Ready { .. } => None,
            FromStore::Entries { id, .. }
            | FromStore::PutOk { id, .. }
            | FromStore::Stats { id, .. }
            | FromStore::Evicted { id, .. }
            | FromStore::Error { id, .. } => Some(*id),
        };
        match got {
            Some(got) if got == id => match frame {
                FromStore::Error { message, .. } => Err(StoreNetError::Server(message)),
                frame => Ok(frame),
            },
            // Error frames with id 0 are session-level (e.g. version skew
            // noticed late, or the server's idle timeout dropping the
            // session); surface their message rather than "wrong id".
            Some(0) => match frame {
                FromStore::Error { message, .. } => Err(StoreNetError::Server(message)),
                frame => Err(StoreNetError::Protocol(format!(
                    "reply for request 0, expected {id}: {frame:?}"
                ))),
            },
            _ => Err(StoreNetError::Protocol(format!(
                "reply does not match request {id}: {frame:?}"
            ))),
        }
    }
}

/// A [`ResultStore`] served by a remote store-server over TCP.
///
/// The client is bound to one namespace (callers use one namespace per
/// figure/sweep so seeds never leak across incompatible grids); each
/// underlying session re-binds it at the handshake. All trait calls are
/// synchronous request/reply exchanges; batched lookups
/// ([`get_many`](ResultStore::get_many)) cross the wire as one frame, which
/// is what keeps a remote sweep's planning pass at one round trip for a full
/// replay and two when some unit computes (the second fetches the seed
/// snapshot).
///
/// Resilience: every request is idempotent (the store is content-addressed,
/// so replaying a `put` at worst re-appends a duplicate the next GC pass
/// folds), so when a request fails on a session that predates it — the
/// server restarted, or its idle timeout dropped the session — the client
/// redials once and replays the request instead of staying broken. An
/// optional I/O timeout ([`connect_with_timeout`](Self::connect_with_timeout))
/// bounds how long any single exchange can stall on a hung (not erroring)
/// server.
///
/// Damage accounting: the handshake's `store-ready` reply carries the bound
/// namespace's own on-disk corrupt/version-skew counts (never other
/// namespaces' damage), refreshed at every redial, and any entry slot that
/// arrives version-mismatched decodes as a plain miss — the client never
/// surfaces a decode error for damaged cached data, it just recomputes.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    namespace: String,
    io_timeout: Option<Duration>,
    session: Option<Session>,
    next_id: usize,
    corrupt_entries: usize,
    version_mismatches: usize,
}

impl RemoteStore {
    /// Connects to a store-server at `addr` (e.g. `127.0.0.1:7070`) and
    /// runs the v5 handshake binding `namespace`, whose reply carries the
    /// namespace's damage counts: one round trip. The session socket has no
    /// I/O timeout; see [`connect_with_timeout`](Self::connect_with_timeout)
    /// for a bounded variant.
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError`] when the connection or the handshake fails
    /// (including a namespace the server rejects).
    pub fn connect(addr: &str, namespace: &str) -> Result<RemoteStore, StoreNetError> {
        Self::connect_with_timeout(addr, namespace, None)
    }

    /// Like [`connect`](Self::connect), but arms `io_timeout` as both the
    /// read and the write timeout of every session socket, so a hung (not
    /// erroring) store-server costs a bounded stall and a typed
    /// [`StoreNetError::Io`] instead of blocking the caller forever. The
    /// serve daemon's warm-cache spill uses this so a wedged shared store
    /// can never pin its solver workers.
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError`] when the connection or the handshake fails.
    pub fn connect_with_timeout(
        addr: &str,
        namespace: &str,
        io_timeout: Option<Duration>,
    ) -> Result<RemoteStore, StoreNetError> {
        let mut client = RemoteStore {
            addr: addr.to_owned(),
            namespace: namespace.to_owned(),
            io_timeout,
            session: None,
            next_id: 0,
            corrupt_entries: 0,
            version_mismatches: 0,
        };
        client.ensure_session()?;
        Ok(client)
    }

    /// The namespace this client is bound to.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Fetches the server's aggregate counters, summed over every namespace
    /// it has opened.
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError`] on transport or protocol failure.
    pub fn stats(&mut self) -> Result<StoreServerStats, StoreNetError> {
        let id = self.fresh_id();
        match self.exchange(&ToStore::Stats { id }, id)? {
            FromStore::Stats { stats, .. } => Ok(stats),
            other => Err(StoreNetError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Runs a GC/compaction pass on this client's namespace and returns
    /// the server's report.
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError`] on transport or protocol failure, or when
    /// the server's GC pass fails.
    pub fn evict(&mut self) -> Result<GcReport, StoreNetError> {
        let id = self.fresh_id();
        match self.exchange(&ToStore::Evict { id }, id)? {
            FromStore::Evicted { report, .. } => Ok(report),
            other => Err(StoreNetError::Protocol(format!(
                "expected evicted, got {other:?}"
            ))),
        }
    }

    /// Asks the store-server to shut down (all sessions, not just this
    /// one), consuming the client.
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError`] when the shutdown frame cannot be sent.
    pub fn shutdown(mut self) -> Result<(), StoreNetError> {
        self.ensure_session()?;
        self.session
            .as_mut()
            .expect("just ensured a session")
            .send(&ToStore::Shutdown)
    }

    fn fresh_id(&mut self) -> usize {
        self.next_id += 1;
        self.next_id
    }

    /// Dials, handshakes, and namespace-binds a fresh session; returns it
    /// with the namespace's `(corrupt, version-mismatched)` line counts.
    fn dial(&self) -> Result<(Session, usize, usize), StoreNetError> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        let writer = stream.try_clone()?;
        let mut session = Session {
            reader: FrameReader::new(stream),
            writer,
        };
        session.send(&ToStore::Hello {
            protocol: PROTOCOL_VERSION,
            namespace: Some(self.namespace.clone()),
        })?;
        match session.read_frame()? {
            FromStore::Ready {
                protocol,
                corrupt_entries,
                version_mismatches,
            } if protocol == PROTOCOL_VERSION => Ok((session, corrupt_entries, version_mismatches)),
            FromStore::Ready { protocol, .. } => Err(StoreNetError::Protocol(format!(
                "protocol version skew: client speaks {PROTOCOL_VERSION}, \
                 store-server sent {protocol}"
            ))),
            FromStore::Error { message, .. } => Err(StoreNetError::Server(message)),
            other => Err(StoreNetError::Protocol(format!(
                "expected store-ready, got {other:?}"
            ))),
        }
    }

    fn ensure_session(&mut self) -> Result<(), StoreNetError> {
        if self.session.is_none() {
            let (session, corrupt_entries, version_mismatches) = self.dial()?;
            self.session = Some(session);
            self.corrupt_entries = corrupt_entries;
            self.version_mismatches = version_mismatches;
        }
        Ok(())
    }

    /// One request/reply round trip on the current session.
    fn try_exchange(&mut self, frame: &ToStore, id: usize) -> Result<FromStore, StoreNetError> {
        self.ensure_session()?;
        let session = self.session.as_mut().expect("just ensured a session");
        session.send(frame)?;
        session.expect_reply(id)
    }

    /// Runs one exchange, retrying once on a fresh session when the failed
    /// session predates the request — it may simply have been dropped by a
    /// server restart or idle timeout, and every store request is
    /// idempotent, so replaying is always safe. A failure on a session
    /// dialed for this very request propagates as-is.
    fn exchange(&mut self, frame: &ToStore, id: usize) -> Result<FromStore, StoreNetError> {
        let stale = self.session.is_some();
        match self.try_exchange(frame, id) {
            Ok(reply) => Ok(reply),
            Err(err) => {
                // Whatever failed, the session can no longer be trusted to
                // be request/reply aligned.
                self.session = None;
                if !stale {
                    return Err(err);
                }
                self.try_exchange(frame, id).map_err(|retry_err| {
                    self.session = None;
                    retry_err
                })
            }
        }
    }

    fn get(
        &mut self,
        query: GetQuery,
    ) -> Result<Vec<Option<(Fingerprint, StoreEntry)>>, StoreNetError> {
        let id = self.fresh_id();
        match self.exchange(&ToStore::Get { id, query }, id)? {
            FromStore::Entries { entries, .. } => Ok(entries),
            other => Err(StoreNetError::Protocol(format!(
                "expected entries, got {other:?}"
            ))),
        }
    }
}

/// Folds a networked failure into the explore error domain the store trait
/// speaks.
fn store_err(err: StoreNetError) -> ExploreError {
    ExploreError::Store(err.to_string())
}

impl ResultStore for RemoteStore {
    fn get_many(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<StoreEntry>>, ExploreError> {
        if fps.is_empty() {
            return Ok(Vec::new());
        }
        let slots = self
            .get(GetQuery::Points(fps.to_vec()))
            .map_err(store_err)?;
        if slots.len() != fps.len() {
            return Err(store_err(StoreNetError::Protocol(format!(
                "asked for {} points, server answered {} slots",
                fps.len(),
                slots.len()
            ))));
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.map(|(_, entry)| entry))
            .collect())
    }

    fn get_series(
        &mut self,
        series: &Fingerprint,
    ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        Ok(self
            .get(GetQuery::Series(*series))
            .map_err(store_err)?
            .into_iter()
            .flatten()
            .collect())
    }

    fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        Ok(self
            .get(GetQuery::All)
            .map_err(store_err)?
            .into_iter()
            .flatten()
            .collect())
    }

    fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
        if entries.is_empty() {
            return Ok(());
        }
        let id = self.fresh_id();
        let count = entries.len();
        match self
            .exchange(&ToStore::Put { id, entries }, id)
            .map_err(store_err)?
        {
            FromStore::PutOk { appended, .. } if appended == count => Ok(()),
            FromStore::PutOk { appended, .. } => Err(store_err(StoreNetError::Protocol(format!(
                "put {count} entries, server appended {appended}"
            )))),
            other => Err(store_err(StoreNetError::Protocol(format!(
                "expected put-ok, got {other:?}"
            )))),
        }
    }

    fn corrupt_count(&self) -> usize {
        self.corrupt_entries
    }

    fn version_mismatch_count(&self) -> usize {
        self.version_mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_urls_strip_the_tcp_scheme_only() {
        assert_eq!(store_url("tcp://127.0.0.1:7070"), Some("127.0.0.1:7070"));
        assert_eq!(store_url("tcp://host:1"), Some("host:1"));
        assert_eq!(store_url("/tmp/store-dir"), None);
        assert_eq!(store_url("relative/dir"), None);
        assert_eq!(store_url("udp://x:1"), None);
    }
}
