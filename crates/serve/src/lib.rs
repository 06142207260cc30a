//! Allocation as a service: a long-running daemon that solves
//! [`SolveRequest`](mfa_alloc::solver::SolveRequest)s over the workspace's
//! JSON-lines wire protocol.
//!
//! The sweep stack ([`mfa_explore`] and `mfa_dispatch`'s sharded dispatcher)
//! answers the batch question — "map the whole design space, once". This
//! crate answers the online one: allocation requests arrive continuously
//! (tenants sizing deployments, a reallocation controller reacting to
//! churn), each with its own problem, backend choice, and latency budget.
//! Three serving-layer mechanisms turn the one-shot solvers into a service:
//!
//! * **Fingerprint-keyed warm starts across requests** ([`ServeCache`]) —
//!   the per-sweep [`WarmStartCache`](mfa_explore::WarmStartCache) is
//!   generalized by keying caches on a content [`Fingerprint`] of the
//!   request family (problem minus budget, plus backend label), so repeat
//!   and neighbouring requests re-enter the GP barrier path near a solved
//!   point's endpoint instead of from cold. Families are LRU-bounded, and
//!   an optional spill backend (a store directory, or a shared
//!   `mfa_storenet` store-server via `tcp://host:port`) persists the cache
//!   so a restarted daemon — or a *fleet* of daemons — warms from prior
//!   work instead of from cold.
//! * **Bounded admission** — requests queue up to a fixed capacity and are
//!   answered with a typed `rejected` frame (current depth + capacity) when
//!   the queue is full, so overload degrades into explicit backpressure
//!   instead of unbounded memory growth and silent latency.
//! * **Deadline-aware graceful degradation** — a request whose remaining
//!   budget cannot plausibly fund the requested backend is downgraded to
//!   [`Backend::greedy`](mfa_alloc::Backend::greedy) (roughly one relaxation
//!   of cost) instead of being started and dying to `DeadlineExceeded`; the
//!   substitution is recorded in the report's provenance
//!   ([`SolveDiagnostics::degraded_from`](mfa_alloc::solver::SolveDiagnostics::degraded_from)),
//!   so a degraded answer is auditable, never silent.
//! * **Bounded reads and live stats** — a per-request read timeout reclaims
//!   reader threads from stalled clients, frames and live sessions are
//!   capped by [`mfa_explore::session`]'s limits, and a `stats` frame
//!   reports the serving counters plus the warm cache's hit rate on demand.
//!
//! The frame protocol ([`protocol`]) shares its version constant with the
//! sweep dispatcher and the store-server ([`PROTOCOL_VERSION`]); the
//! `serve` binary hosts the daemon, `serve-client` is a one-shot CLI, and
//! the root package's `serve_load` example drives an open-loop load test
//! against either.
//!
//! # Example
//!
//! ```no_run
//! use mfa_serve::{BackendKind, ServeClient, ServeHandle, ServeOptions, SolveReply};
//! use mfa_alloc::cases::PaperCase;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let daemon = ServeHandle::spawn("127.0.0.1:0", ServeOptions::default())?;
//! let mut client = ServeClient::connect(&daemon.local_addr().to_string())?;
//! let problem = PaperCase::Alex16OnTwoFpgas.problem(0.7)?;
//! match client.solve(&problem, BackendKind::Gpa, Some(0.5), true)? {
//!     SolveReply::Report(outcome) => println!("II = {:.3} ms", outcome.ii_ms),
//!     other => println!("{other:?}"),
//! }
//! daemon.stop();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod error;
pub mod protocol;
mod server;

pub use cache::{family_fingerprint, ServeCache};
pub use client::{ServeClient, SolveReply};
pub use error::ServeError;
pub use protocol::{BackendKind, FromServe, SolveOutcome, StatsReport, ToServe, PROTOCOL_VERSION};
pub use server::{ServeHandle, ServeOptions, ServeStats};

// Re-export the fingerprint type the cache keys on, so callers can hold and
// compare family keys without depending on the core crate directly.
pub use mfa_alloc::fingerprint::Fingerprint;
