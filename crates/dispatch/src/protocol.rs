//! The JSON-lines wire protocol between the dispatcher and its workers.
//!
//! Every frame is one compact JSON object on one `\n`-terminated line, with
//! a `"type"` tag; [`mfa_explore::session`] does the framing for all the
//! workspace's JSON-lines peers. The payload codecs come from
//! [`mfa_explore::wire`], so every float crossing the boundary round-trips
//! bit-for-bit and NaNs are rejected at the edge.
//!
//! Session shape (dispatcher is always the initiator):
//!
//! ```text
//! dispatcher → worker   {"type":"job","protocol":5,"warm_start":…,"grid":…}
//! worker → dispatcher   {"type":"ready","protocol":5}
//! dispatcher → worker   {"type":"unit","id":0,"unit":{…},"seeds":[…]}  (repeated)
//! worker → dispatcher   {"type":"result","id":0,"points":[…],
//!                        "warms":[…],"warm_from_store":0}              (one per unit)
//!                       {"type":"solver_error","id":…,"message":…}     (on failure)
//! dispatcher → worker   {"type":"shutdown"}
//! ```
//!
//! A worker processes frames strictly in order, so the dispatcher may queue
//! units immediately after the job frame without waiting for `ready`; the
//! handshake exists to catch protocol-version skew early.

use mfa_alloc::solver::WarmStart;
use mfa_explore::json::Json;
use mfa_explore::wire::{
    self, arr_field, bool_field, field, str_field, type_tag, usize_field, WireError,
};
use mfa_platform::ResourceBudget;

use mfa_explore::{SweepGrid, SweepPoint, WorkUnit};

/// Version tag carried by `job`/`ready` frames, shared by every JSON-lines
/// peer in the workspace (its history is on the definition).
pub use mfa_explore::session::PROTOCOL_VERSION;

/// A frame sent from the dispatcher to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Opens a session: the full grid every subsequent unit indexes into.
    Job {
        /// Protocol version of the dispatcher.
        protocol: usize,
        /// Whether workers warm-start GP+A solves within a unit.
        warm_start: bool,
        /// The sweep grid.
        grid: SweepGrid,
    },
    /// Assigns one work unit, identified by its index in the planned unit
    /// list (the dispatcher's lease key).
    Unit {
        /// Unit id (index into [`mfa_explore::plan_units`] output).
        id: usize,
        /// The unit itself.
        unit: WorkUnit,
        /// Store-neighbour warm-start seeds for the unit (empty unless the
        /// dispatcher runs store-backed). Fixed at planning time, so the
        /// unit's result stays a pure function of the frame.
        seeds: Vec<(ResourceBudget, WarmStart)>,
    },
    /// Ends the session; the worker exits cleanly.
    Shutdown,
}

/// A frame sent from a worker to the dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Acknowledges the job frame.
    Ready {
        /// Protocol version of the worker.
        protocol: usize,
    },
    /// A completed unit: one entry per budget point, `None` for skipped
    /// (infeasible) points.
    Result {
        /// Unit id being answered.
        id: usize,
        /// The unit's points.
        points: Vec<Option<SweepPoint>>,
        /// Warm-start state each point's solve published, parallel to
        /// `points` (`None` for skipped points). The store-backed
        /// dispatcher persists these for future neighbour seeding.
        warms: Vec<Option<WarmStart>>,
        /// Points whose solve accepted a store-neighbour seed.
        warm_from_store: usize,
    },
    /// The unit hit a non-skippable solver failure. Deterministic for a
    /// given unit, so the dispatcher must not retry it on another worker.
    SolverError {
        /// Unit id being answered.
        id: usize,
        /// Display form of the underlying [`mfa_explore::ExploreError`].
        message: String,
    },
}

impl ToWorker {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::NonFinite`] if the grid carries a NaN/infinite
    /// float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            ToWorker::Job {
                protocol,
                warm_start,
                grid,
            } => Json::obj(vec![
                ("type", Json::str("job")),
                ("protocol", Json::Num(*protocol as f64)),
                ("warm_start", Json::Bool(*warm_start)),
                ("grid", wire::grid_to_json(grid)?),
            ]),
            ToWorker::Unit { id, unit, seeds } => Json::obj(vec![
                ("type", Json::str("unit")),
                ("id", Json::Num(*id as f64)),
                ("unit", wire::unit_to_json(unit)),
                ("seeds", seeds_to_json(seeds)?),
            ]),
            ToWorker::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one dispatcher→worker line.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads.
    pub fn decode(line: &str) -> Result<ToWorker, WireError> {
        let doc = Json::parse(line).map_err(|err| WireError::Parse(err.to_string()))?;
        match type_tag(&doc)? {
            "job" => Ok(ToWorker::Job {
                protocol: usize_field(&doc, "protocol")?,
                warm_start: bool_field(&doc, "warm_start")?,
                grid: wire::grid_from_json(field(&doc, "grid")?)?,
            }),
            "unit" => Ok(ToWorker::Unit {
                id: usize_field(&doc, "id")?,
                unit: wire::unit_from_json(field(&doc, "unit")?)?,
                seeds: seeds_from_json(arr_field(&doc, "seeds")?)?,
            }),
            "shutdown" => Ok(ToWorker::Shutdown),
            other => Err(WireError::Schema(format!(
                "unknown dispatcher frame type '{other}'"
            ))),
        }
    }
}

impl FromWorker {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::NonFinite`] if a point carries a NaN/infinite
    /// float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            FromWorker::Ready { protocol } => Json::obj(vec![
                ("type", Json::str("ready")),
                ("protocol", Json::Num(*protocol as f64)),
            ]),
            FromWorker::Result {
                id,
                points,
                warms,
                warm_from_store,
            } => Json::obj(vec![
                ("type", Json::str("result")),
                ("id", Json::Num(*id as f64)),
                ("points", wire::points_to_json(points)?),
                ("warms", warms_to_json(warms)?),
                ("warm_from_store", Json::Num(*warm_from_store as f64)),
            ]),
            FromWorker::SolverError { id, message } => Json::obj(vec![
                ("type", Json::str("solver_error")),
                ("id", Json::Num(*id as f64)),
                ("message", Json::str(message.as_str())),
            ]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one worker→dispatcher line.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads — the dispatcher treats any of these as a worker
    /// fault and reassigns the worker's leases.
    pub fn decode(line: &str) -> Result<FromWorker, WireError> {
        let doc = Json::parse(line).map_err(|err| WireError::Parse(err.to_string()))?;
        match type_tag(&doc)? {
            "ready" => Ok(FromWorker::Ready {
                protocol: usize_field(&doc, "protocol")?,
            }),
            "result" => Ok(FromWorker::Result {
                id: usize_field(&doc, "id")?,
                points: wire::points_from_json(field(&doc, "points")?)?,
                warms: warms_from_json(arr_field(&doc, "warms")?)?,
                warm_from_store: usize_field(&doc, "warm_from_store")?,
            }),
            "solver_error" => Ok(FromWorker::SolverError {
                id: usize_field(&doc, "id")?,
                message: str_field(&doc, "message")?.to_owned(),
            }),
            other => Err(WireError::Schema(format!(
                "unknown worker frame type '{other}'"
            ))),
        }
    }
}

fn seeds_to_json(seeds: &[(ResourceBudget, WarmStart)]) -> Result<Json, WireError> {
    Ok(Json::Arr(
        seeds
            .iter()
            .map(|(budget, warm)| {
                Ok(Json::obj(vec![
                    ("budget", wire::budget_to_json(budget)?),
                    ("warm", wire::warm_hint_to_json(warm)?),
                ]))
            })
            .collect::<Result<Vec<_>, WireError>>()?,
    ))
}

fn seeds_from_json(items: &[Json]) -> Result<Vec<(ResourceBudget, WarmStart)>, WireError> {
    items
        .iter()
        .map(|item| {
            let budget = wire::budget_from_json(field(item, "budget")?)?;
            let warm = wire::warm_hint_from_json(field(item, "warm")?)?;
            Ok((budget, warm))
        })
        .collect()
}

fn warms_to_json(warms: &[Option<WarmStart>]) -> Result<Json, WireError> {
    Ok(Json::Arr(
        warms
            .iter()
            .map(|warm| match warm {
                Some(w) => wire::warm_hint_to_json(w),
                None => Ok(Json::Null),
            })
            .collect::<Result<Vec<_>, WireError>>()?,
    ))
}

fn warms_from_json(items: &[Json]) -> Result<Vec<Option<WarmStart>>, WireError> {
    items
        .iter()
        .map(|item| match item {
            Json::Null => Ok(None),
            other => wire::warm_hint_from_json(other).map(Some),
        })
        .collect()
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
            .constraints([0.6, 0.8])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap()
    }

    #[test]
    fn dispatcher_frames_round_trip() {
        let frames = [
            ToWorker::Job {
                protocol: PROTOCOL_VERSION,
                warm_start: true,
                grid: tiny_grid(),
            },
            ToWorker::Unit {
                id: 7,
                unit: mfa_explore::WorkUnit {
                    series: 0,
                    start: 0,
                    end: 2,
                },
                seeds: vec![(
                    ResourceBudget::uniform(0.7),
                    WarmStart::none()
                        .with_relaxed_ii(1.25)
                        .with_cu_counts(vec![1, 2, 3]),
                )],
            },
            ToWorker::Shutdown,
        ];
        for frame in frames {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'));
            assert_eq!(ToWorker::decode(&line).unwrap(), frame);
        }
    }

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            FromWorker::Ready {
                protocol: PROTOCOL_VERSION,
            },
            FromWorker::Result {
                id: 3,
                points: vec![None],
                warms: vec![None],
                warm_from_store: 0,
            },
            FromWorker::SolverError {
                id: 4,
                message: "sweep point failed (…): numerical trouble".into(),
            },
        ];
        for frame in frames {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'));
            assert_eq!(FromWorker::decode(&line).unwrap(), frame);
        }
    }

    #[test]
    fn garbage_lines_are_rejected_not_fatal() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"result\",\"id\":",
            "{\"id\":1}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"result\",\"id\":1}",
            "{\"type\":\"result\",\"id\":1,\"points\":[]}",
            "{\"type\":\"unit\",\"id\":1,\"unit\":{\"series\":0,\"start\":0,\"end\":1}}",
            "[1,2,3]",
        ] {
            assert!(FromWorker::decode(bad).is_err(), "{bad:?}");
            assert!(ToWorker::decode(bad).is_err(), "{bad:?}");
        }
    }
}
