//! Networked shared result store for multi-host sweeps.
//!
//! The persistent sweep store (`mfa_explore::store`) keeps solved points in
//! a content-addressed directory so repeated sweeps replay instead of
//! recompute. This crate puts that directory behind a TCP daemon so *many*
//! hosts share one cache:
//!
//! - [`StoreServer`] — the store-server: serves the namespaces under one
//!   root directory over the workspace's JSON-lines wire protocol
//!   ([`protocol`], version-locked to the dispatcher's and daemon's frames
//!   through the shared [`protocol::PROTOCOL_VERSION`]). Sessions, framing
//!   and their limits come from [`mfa_explore::session`].
//! - [`RemoteStore`] — the client: implements the same
//!   [`ResultStore`](mfa_explore::ResultStore) trait a local
//!   [`SweepStore`](mfa_explore::SweepStore) does, so the threaded and
//!   sharded executors, `dse --store tcp://host:port`, and the allocation
//!   daemon's warm-cache spill all consume a shared store with no special
//!   casing. Entries cross the wire in the store's canonical line encoding,
//!   so remote replay is byte-identical to local replay.
//! - Lifecycle tooling — `stats` frames report aggregate hit/miss/damage
//!   counters, `evict` frames run the store's GC/compaction pass (fold
//!   duplicate fingerprints, drop orphaned temp files) remotely; the
//!   `store-server` binary exposes both against live servers and offline
//!   directories.
//!
//! Damage never propagates: corrupt or version-mismatched entries answer as
//! typed misses (counted in stats), so the worst a damaged shared cache can
//! cost any client is recomputation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use client::{store_url, RemoteStore};
pub use error::StoreNetError;
pub use protocol::{FromStore, GetQuery, StoreServerStats, ToStore, PROTOCOL_VERSION};
pub use server::{StoreServer, StoreServerOptions};
