//! The JSON-lines session protocol between store clients and the
//! store-server.
//!
//! Every frame is one compact JSON object on one `\n`-terminated line with a
//! `"type"` tag, framed by [`mfa_explore::session`] like the sweep
//! dispatcher's and the allocation daemon's frames; all three families share
//! one version constant ([`PROTOCOL_VERSION`]) so any incompatible change to
//! any of them is a single bump visible to every JSON-lines peer in the
//! workspace. Entry payloads are the store's own canonical line documents
//! ([`mfa_explore::store::entry_to_json`]), so an entry crosses the wire in
//! exactly the bytes a segment file would hold — floats round-trip
//! bit-for-bit, which is what keeps remote replay byte-identical to local.
//!
//! Session shape (the client is always the initiator):
//!
//! ```text
//! client → server   {"type":"store-hello","protocol":5,"namespace":"fig2"}
//! server → client   {"type":"store-ready","protocol":5}
//! client → server   {"type":"get","id":1,"fps":["<hex>",…]}       (points)
//!                   {"type":"get","id":2,"series":"<hex>"}        (one family)
//!                   {"type":"get","id":3,"all":true}              (snapshot)
//! server → client   {"type":"entries","id":1,"entries":[{…}|null,…]}
//! client → server   {"type":"put","id":4,"entries":[{…},…]}
//! server → client   {"type":"put-ok","id":4,"appended":3}
//! client → server   {"type":"stats","id":5}
//! server → client   {"type":"stats","id":5,"namespaces":1,…}
//! client → server   {"type":"evict","id":6}
//! server → client   {"type":"evicted","id":6,"segments_folded":2,…}
//!                   {"type":"error","id":0,"message":"…"}         (failures)
//! client → server   {"type":"shutdown"}
//! ```
//!
//! A `get` over point fingerprints answers one slot per requested
//! fingerprint, `null` for misses — absent, corrupt and version-mismatched
//! entries all answer as typed misses, never as errors, because the store is
//! a cache and a damaged cache must only ever cost recomputation.

use mfa_alloc::fingerprint::Fingerprint;
use mfa_explore::json::Json;
use mfa_explore::store::{entry_from_json, entry_to_json, GcReport, StoreEntry};
use mfa_explore::wire::{
    arr_field, field, nullable_field, str_field, type_tag, usize_field, WireError,
};

/// Protocol version of the store frames — shared with the sweep dispatcher
/// and the allocation daemon (its history is on the definition).
pub use mfa_explore::session::PROTOCOL_VERSION;

/// What a `get` frame asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetQuery {
    /// A batched point lookup: one reply slot per fingerprint, in order.
    Points(Vec<Fingerprint>),
    /// Every entry of one series (request family), sorted by fingerprint.
    Series(Fingerprint),
    /// A snapshot of every entry in the namespace, sorted by fingerprint.
    All,
}

/// Aggregate counters of a running store-server: per-directory health summed
/// over every open namespace, plus the server's own hit/miss/put traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreServerStats {
    /// Namespaces opened so far (one store directory each).
    pub namespaces: usize,
    /// Valid entries indexed across all open namespaces.
    pub entries: usize,
    /// Segment files across all open namespaces.
    pub segments: usize,
    /// Orphaned `.tmp` files across all open namespaces.
    pub orphan_tmp: usize,
    /// Stored lines shadowed by a duplicate fingerprint.
    pub duplicate_entries: usize,
    /// Corrupt or truncated lines skipped when opening.
    pub corrupt_entries: usize,
    /// Lines skipped for a store-version mismatch when opening.
    pub version_mismatches: usize,
    /// Point lookups answered with an entry.
    pub hits: usize,
    /// Point lookups answered with a miss.
    pub misses: usize,
    /// Entries appended by `put` frames.
    pub puts: usize,
}

/// A frame sent from a client to the store-server.
#[derive(Debug, Clone, PartialEq)]
pub enum ToStore {
    /// Opens a session and binds it to a namespace (one store directory).
    /// `None` binds no namespace: `stats` and `shutdown` still work, data
    /// frames answer an error.
    Hello {
        /// Protocol version of the client.
        protocol: usize,
        /// Namespace to bind (opened — and created — at the handshake).
        namespace: Option<String>,
    },
    /// A read request against the bound namespace.
    Get {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
        /// What to read.
        query: GetQuery,
    },
    /// Persists a batch of entries atomically in the bound namespace.
    Put {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
        /// The entries, in the store's canonical line encoding.
        entries: Vec<(Fingerprint, StoreEntry)>,
    },
    /// Asks for the server's aggregate counters.
    Stats {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
    },
    /// Runs a GC/compaction pass on the bound namespace.
    Evict {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
    },
    /// Stops the store-server (all connections, not just this session).
    Shutdown,
}

/// A frame sent from the store-server to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum FromStore {
    /// Acknowledges [`ToStore::Hello`].
    Ready {
        /// Protocol version of the server.
        protocol: usize,
    },
    /// Answers a [`ToStore::Get`]: one slot per requested point fingerprint
    /// (misses are `None`), or every matching entry for series/snapshot
    /// queries.
    Entries {
        /// Request id being answered.
        id: usize,
        /// The entries.
        entries: Vec<Option<(Fingerprint, StoreEntry)>>,
    },
    /// Acknowledges a [`ToStore::Put`].
    PutOk {
        /// Request id being answered.
        id: usize,
        /// Number of entries appended.
        appended: usize,
    },
    /// Answers a [`ToStore::Stats`].
    Stats {
        /// Request id being answered.
        id: usize,
        /// The aggregate counters.
        stats: StoreServerStats,
    },
    /// Answers a [`ToStore::Evict`] with the compaction report.
    Evicted {
        /// Request id being answered.
        id: usize,
        /// What the GC pass did.
        report: GcReport,
    },
    /// The request failed (no namespace bound, invalid namespace, store
    /// I/O on the server side).
    Error {
        /// Request id being answered (0 when the frame could not be decoded
        /// far enough to learn it).
        id: usize,
        /// What went wrong.
        message: String,
    },
}

fn fingerprint_of(value: &Json) -> Result<Fingerprint, WireError> {
    let raw = value
        .as_str()
        .ok_or_else(|| WireError::Schema("a fingerprint must be a string".into()))?;
    raw.parse()
        .map_err(|_| WireError::Invalid(format!("'{raw}' is not a fingerprint")))
}

fn entry_doc(fp: &Fingerprint, entry: &StoreEntry) -> Result<Json, WireError> {
    // The store's codec reports non-finite floats as ExploreError::Store;
    // fold that into the wire error domain the frame codec lives in.
    entry_to_json(fp, entry).map_err(|err| WireError::Invalid(err.to_string()))
}

impl ToStore {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when an entry payload carries a NaN/infinite
    /// float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            ToStore::Hello {
                protocol,
                namespace,
            } => Json::obj(vec![
                ("type", Json::str("store-hello")),
                ("protocol", Json::Num(*protocol as f64)),
                (
                    "namespace",
                    namespace.as_deref().map_or(Json::Null, Json::str),
                ),
            ]),
            ToStore::Get { id, query } => {
                let mut fields = vec![("type", Json::str("get")), ("id", Json::Num(*id as f64))];
                match query {
                    GetQuery::Points(fps) => fields.push((
                        "fps",
                        Json::Arr(fps.iter().map(|fp| Json::str(fp.to_hex())).collect()),
                    )),
                    GetQuery::Series(series) => {
                        fields.push(("series", Json::str(series.to_hex())));
                    }
                    GetQuery::All => fields.push(("all", Json::Bool(true))),
                }
                Json::obj(fields)
            }
            ToStore::Put { id, entries } => {
                let docs = entries
                    .iter()
                    .map(|(fp, entry)| entry_doc(fp, entry))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Json::obj(vec![
                    ("type", Json::str("put")),
                    ("id", Json::Num(*id as f64)),
                    ("entries", Json::Arr(docs)),
                ])
            }
            ToStore::Stats { id } => Json::obj(vec![
                ("type", Json::str("stats")),
                ("id", Json::Num(*id as f64)),
            ]),
            ToStore::Evict { id } => Json::obj(vec![
                ("type", Json::str("evict")),
                ("id", Json::Num(*id as f64)),
            ]),
            ToStore::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one client→server line.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads. A corrupt *entry* inside a `put` is a frame error
    /// here (the sender built it from live data); damaged entries at rest
    /// are the server's open-scan concern, not the codec's.
    pub fn decode(line: &str) -> Result<ToStore, WireError> {
        let doc = Json::parse(line).map_err(|err| WireError::Parse(err.to_string()))?;
        match type_tag(&doc)? {
            "store-hello" => Ok(ToStore::Hello {
                protocol: usize_field(&doc, "protocol")?,
                namespace: nullable_field(&doc, "namespace", Json::as_str)?.map(str::to_owned),
            }),
            "get" => {
                let id = usize_field(&doc, "id")?;
                let query = if doc.get("fps").is_some() {
                    GetQuery::Points(
                        arr_field(&doc, "fps")?
                            .iter()
                            .map(fingerprint_of)
                            .collect::<Result<_, _>>()?,
                    )
                } else if doc.get("series").is_some() {
                    GetQuery::Series(fingerprint_of(field(&doc, "series")?)?)
                } else if doc.get("all").and_then(Json::as_bool) == Some(true) {
                    GetQuery::All
                } else {
                    return Err(WireError::Schema(
                        "get frame needs 'fps', 'series' or 'all':true".into(),
                    ));
                };
                Ok(ToStore::Get { id, query })
            }
            "put" => {
                let entries = arr_field(&doc, "entries")?
                    .iter()
                    .map(|item| {
                        entry_from_json(item)?.ok_or_else(|| {
                            WireError::Invalid("put entry has a mismatched store version".into())
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(ToStore::Put {
                    id: usize_field(&doc, "id")?,
                    entries,
                })
            }
            "stats" => Ok(ToStore::Stats {
                id: usize_field(&doc, "id")?,
            }),
            "evict" => Ok(ToStore::Evict {
                id: usize_field(&doc, "id")?,
            }),
            "shutdown" => Ok(ToStore::Shutdown),
            other => Err(WireError::Schema(format!(
                "unknown store client frame type '{other}'"
            ))),
        }
    }
}

impl FromStore {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when an entry payload carries a NaN/infinite
    /// float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            FromStore::Ready { protocol } => Json::obj(vec![
                ("type", Json::str("store-ready")),
                ("protocol", Json::Num(*protocol as f64)),
            ]),
            FromStore::Entries { id, entries } => {
                let docs = entries
                    .iter()
                    .map(|slot| match slot {
                        Some((fp, entry)) => entry_doc(fp, entry),
                        None => Ok(Json::Null),
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Json::obj(vec![
                    ("type", Json::str("entries")),
                    ("id", Json::Num(*id as f64)),
                    ("entries", Json::Arr(docs)),
                ])
            }
            FromStore::PutOk { id, appended } => Json::obj(vec![
                ("type", Json::str("put-ok")),
                ("id", Json::Num(*id as f64)),
                ("appended", Json::Num(*appended as f64)),
            ]),
            FromStore::Stats { id, stats } => Json::obj(vec![
                ("type", Json::str("stats")),
                ("id", Json::Num(*id as f64)),
                ("namespaces", Json::Num(stats.namespaces as f64)),
                ("entries", Json::Num(stats.entries as f64)),
                ("segments", Json::Num(stats.segments as f64)),
                ("orphan_tmp", Json::Num(stats.orphan_tmp as f64)),
                (
                    "duplicate_entries",
                    Json::Num(stats.duplicate_entries as f64),
                ),
                ("corrupt_entries", Json::Num(stats.corrupt_entries as f64)),
                (
                    "version_mismatches",
                    Json::Num(stats.version_mismatches as f64),
                ),
                ("hits", Json::Num(stats.hits as f64)),
                ("misses", Json::Num(stats.misses as f64)),
                ("puts", Json::Num(stats.puts as f64)),
            ]),
            FromStore::Evicted { id, report } => Json::obj(vec![
                ("type", Json::str("evicted")),
                ("id", Json::Num(*id as f64)),
                ("segments_folded", Json::Num(report.segments_folded as f64)),
                ("orphans_removed", Json::Num(report.orphans_removed as f64)),
                ("entries_kept", Json::Num(report.entries_kept as f64)),
                (
                    "duplicates_folded",
                    Json::Num(report.duplicates_folded as f64),
                ),
                ("lines_dropped", Json::Num(report.lines_dropped as f64)),
            ]),
            FromStore::Error { id, message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("id", Json::Num(*id as f64)),
                ("message", Json::str(message.as_str())),
            ]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one server→client line.
    ///
    /// Entry slots that decode to a mismatched store version become `None`
    /// — a typed miss. The client never fails on a version-skewed entry; it
    /// simply recomputes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads — a client treats any of these as a broken session.
    pub fn decode(line: &str) -> Result<FromStore, WireError> {
        let doc = Json::parse(line).map_err(|err| WireError::Parse(err.to_string()))?;
        match type_tag(&doc)? {
            "store-ready" => Ok(FromStore::Ready {
                protocol: usize_field(&doc, "protocol")?,
            }),
            "entries" => {
                let entries = arr_field(&doc, "entries")?
                    .iter()
                    .map(|item| match item {
                        Json::Null => Ok(None),
                        other => entry_from_json(other),
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(FromStore::Entries {
                    id: usize_field(&doc, "id")?,
                    entries,
                })
            }
            "put-ok" => Ok(FromStore::PutOk {
                id: usize_field(&doc, "id")?,
                appended: usize_field(&doc, "appended")?,
            }),
            "stats" => Ok(FromStore::Stats {
                id: usize_field(&doc, "id")?,
                stats: StoreServerStats {
                    namespaces: usize_field(&doc, "namespaces")?,
                    entries: usize_field(&doc, "entries")?,
                    segments: usize_field(&doc, "segments")?,
                    orphan_tmp: usize_field(&doc, "orphan_tmp")?,
                    duplicate_entries: usize_field(&doc, "duplicate_entries")?,
                    corrupt_entries: usize_field(&doc, "corrupt_entries")?,
                    version_mismatches: usize_field(&doc, "version_mismatches")?,
                    hits: usize_field(&doc, "hits")?,
                    misses: usize_field(&doc, "misses")?,
                    puts: usize_field(&doc, "puts")?,
                },
            }),
            "evicted" => Ok(FromStore::Evicted {
                id: usize_field(&doc, "id")?,
                report: GcReport {
                    segments_folded: usize_field(&doc, "segments_folded")?,
                    orphans_removed: usize_field(&doc, "orphans_removed")?,
                    entries_kept: usize_field(&doc, "entries_kept")?,
                    duplicates_folded: usize_field(&doc, "duplicates_folded")?,
                    lines_dropped: usize_field(&doc, "lines_dropped")?,
                },
            }),
            "error" => Ok(FromStore::Error {
                id: usize_field(&doc, "id")?,
                message: str_field(&doc, "message")?.to_owned(),
            }),
            other => Err(WireError::Schema(format!(
                "unknown store server frame type '{other}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::solver::WarmStart;
    use mfa_platform::ResourceBudget;

    fn sample_entry(tag: &str) -> (Fingerprint, StoreEntry) {
        (
            Fingerprint::of_parts(1, &[tag]),
            StoreEntry {
                series: Fingerprint::of_parts(1, &["series"]),
                budget: ResourceBudget::uniform(0.7),
                point: None,
                warm: WarmStart::none()
                    // A long-binary-expansion float exercises the
                    // shortest-round-trip encoder, not just tidy literals.
                    .with_relaxed_ii(0.1 + 0.2)
                    .with_cu_counts(vec![3, 1, 4]),
            },
        )
    }

    #[test]
    fn handshake_and_control_frames_match_their_goldens_exactly() {
        // The v5 store handshake bytes are the protocol's stable surface:
        // any drift here is an incompatible change and must bump the shared
        // PROTOCOL_VERSION.
        assert_eq!(
            ToStore::Hello {
                protocol: PROTOCOL_VERSION,
                namespace: Some("fig2".into()),
            }
            .encode()
            .unwrap(),
            r#"{"type":"store-hello","protocol":5,"namespace":"fig2"}"#
        );
        assert_eq!(
            ToStore::Hello {
                protocol: PROTOCOL_VERSION,
                namespace: None,
            }
            .encode()
            .unwrap(),
            r#"{"type":"store-hello","protocol":5,"namespace":null}"#
        );
        assert_eq!(
            FromStore::Ready {
                protocol: PROTOCOL_VERSION
            }
            .encode()
            .unwrap(),
            r#"{"type":"store-ready","protocol":5}"#
        );
        assert_eq!(
            ToStore::Stats { id: 7 }.encode().unwrap(),
            r#"{"type":"stats","id":7}"#
        );
        assert_eq!(
            ToStore::Evict { id: 8 }.encode().unwrap(),
            r#"{"type":"evict","id":8}"#
        );
        assert_eq!(
            ToStore::Shutdown.encode().unwrap(),
            r#"{"type":"shutdown"}"#
        );
    }

    #[test]
    fn query_and_reply_frames_match_their_goldens_exactly() {
        let fp = Fingerprint::of_parts(1, &["a"]);
        let hex = fp.to_hex();
        assert_eq!(
            ToStore::Get {
                id: 1,
                query: GetQuery::Points(vec![fp]),
            }
            .encode()
            .unwrap(),
            format!(r#"{{"type":"get","id":1,"fps":["{hex}"]}}"#)
        );
        assert_eq!(
            ToStore::Get {
                id: 2,
                query: GetQuery::Series(fp),
            }
            .encode()
            .unwrap(),
            format!(r#"{{"type":"get","id":2,"series":"{hex}"}}"#)
        );
        assert_eq!(
            ToStore::Get {
                id: 3,
                query: GetQuery::All,
            }
            .encode()
            .unwrap(),
            r#"{"type":"get","id":3,"all":true}"#
        );
        assert_eq!(
            FromStore::PutOk { id: 4, appended: 3 }.encode().unwrap(),
            r#"{"type":"put-ok","id":4,"appended":3}"#
        );
        assert_eq!(
            FromStore::Stats {
                id: 5,
                stats: StoreServerStats {
                    namespaces: 1,
                    entries: 10,
                    segments: 2,
                    orphan_tmp: 0,
                    duplicate_entries: 1,
                    corrupt_entries: 3,
                    version_mismatches: 1,
                    hits: 20,
                    misses: 4,
                    puts: 10,
                },
            }
            .encode()
            .unwrap(),
            concat!(
                r#"{"type":"stats","id":5,"namespaces":1,"entries":10,"segments":2,"#,
                r#""orphan_tmp":0,"duplicate_entries":1,"corrupt_entries":3,"#,
                r#""version_mismatches":1,"hits":20,"misses":4,"puts":10}"#
            )
        );
        assert_eq!(
            FromStore::Evicted {
                id: 6,
                report: GcReport {
                    segments_folded: 2,
                    orphans_removed: 1,
                    entries_kept: 10,
                    duplicates_folded: 1,
                    lines_dropped: 4,
                },
            }
            .encode()
            .unwrap(),
            concat!(
                r#"{"type":"evicted","id":6,"segments_folded":2,"orphans_removed":1,"#,
                r#""entries_kept":10,"duplicates_folded":1,"lines_dropped":4}"#
            )
        );
        assert_eq!(
            FromStore::Error {
                id: 0,
                message: "no namespace bound".into(),
            }
            .encode()
            .unwrap(),
            r#"{"type":"error","id":0,"message":"no namespace bound"}"#
        );
    }

    #[test]
    fn frames_round_trip_exactly() {
        let (fp_a, entry_a) = sample_entry("a");
        let (fp_b, entry_b) = sample_entry("b");
        let to = [
            ToStore::Hello {
                protocol: PROTOCOL_VERSION,
                namespace: Some("fig3".into()),
            },
            ToStore::Get {
                id: 1,
                query: GetQuery::Points(vec![fp_a, fp_b]),
            },
            ToStore::Get {
                id: 2,
                query: GetQuery::Series(entry_a.series),
            },
            ToStore::Get {
                id: 3,
                query: GetQuery::All,
            },
            ToStore::Put {
                id: 4,
                entries: vec![(fp_a, entry_a.clone()), (fp_b, entry_b.clone())],
            },
            ToStore::Stats { id: 5 },
            ToStore::Evict { id: 6 },
            ToStore::Shutdown,
        ];
        for frame in to {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'), "frames must be single-line");
            assert_eq!(ToStore::decode(&line).unwrap(), frame);
        }
        let from = [
            FromStore::Ready {
                protocol: PROTOCOL_VERSION,
            },
            FromStore::Entries {
                id: 1,
                entries: vec![Some((fp_a, entry_a)), None, Some((fp_b, entry_b))],
            },
            FromStore::PutOk { id: 4, appended: 2 },
            FromStore::Stats {
                id: 5,
                stats: StoreServerStats::default(),
            },
            FromStore::Evicted {
                id: 6,
                report: GcReport::default(),
            },
            FromStore::Error {
                id: 0,
                message: "boom".into(),
            },
        ];
        for frame in from {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'), "frames must be single-line");
            assert_eq!(FromStore::decode(&line).unwrap(), frame);
        }
    }

    #[test]
    fn version_mismatched_entry_slots_decode_as_typed_misses() {
        let (fp, entry) = sample_entry("future");
        let line = FromStore::Entries {
            id: 1,
            entries: vec![Some((fp, entry))],
        }
        .encode()
        .unwrap()
        .replace("\"v\":1", "\"v\":999");
        // The skewed entry becomes a miss — never a client-side error.
        assert_eq!(
            FromStore::decode(&line).unwrap(),
            FromStore::Entries {
                id: 1,
                entries: vec![None],
            }
        );
    }

    #[test]
    fn garbage_lines_are_rejected_not_fatal() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"get\",\"id\":",
            "{\"id\":1}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"get\",\"id\":1}",
            "{\"type\":\"get\",\"id\":1,\"fps\":[7]}",
            "{\"type\":\"put\",\"id\":1,\"entries\":[{\"v\":1}]}",
            "{\"type\":\"entries\",\"id\":1}",
            "[1,2,3]",
        ] {
            assert!(ToStore::decode(bad).is_err(), "{bad:?}");
            assert!(FromStore::decode(bad).is_err(), "{bad:?}");
        }
    }
}
