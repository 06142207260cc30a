//! The worker side of the dispatcher protocol.
//!
//! [`serve`] runs one protocol session over any byte stream — the
//! `sweep-worker` binary points it at stdio or an accepted TCP connection —
//! reading and writing frames through [`mfa_explore::session`]. The loop is
//! strictly sequential: it decodes a frame, acts, replies, repeats. All
//! sweep semantics live in [`mfa_explore::compute_unit_hinted`]; a unit
//! computes here exactly as it would on a thread of `run_sweep`, which is
//! what keeps sharding semantics-preserving. Store-neighbour seeds ride the unit frame, so a
//! store-backed dispatcher hands every worker the same hints the threaded
//! executor would use.
//!
//! [`FaultPlan`] deliberately breaks the loop for the fault-injection tests:
//! a worker can be told to die abruptly (as if it crashed or was killed)
//! or to emit a truncated garbage frame after a set number of results, so
//! the dispatcher's lease-reassignment paths are exercised deterministically
//! instead of by racing a `kill` against the sweep.

use std::io::{Read, Write};

use mfa_explore::session::{write_frame, FrameError, FrameReader, MAX_FRAME_BYTES};
use mfa_explore::{compute_unit_hinted, ExploreError, SweepGrid, DEFAULT_CACHE_CAPACITY};

use crate::protocol::{FromWorker, ToWorker, PROTOCOL_VERSION};
use crate::DispatchError;

/// Deterministic fault injection for tests: which misbehaviour to exhibit,
/// and after how many successfully returned results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Exit the process abruptly (no reply, no shutdown handshake) when the
    /// next unit arrives after this many results were sent — the stand-in
    /// for a worker crash / OOM-kill mid-sweep.
    pub fail_after: Option<usize>,
    /// Write a truncated, non-JSON fragment instead of the next result
    /// after this many results were sent, then exit — a corrupted frame.
    pub garbage_after: Option<usize>,
    /// Stop replying (sleep forever) when the next unit arrives after this
    /// many results were sent — a hung worker, caught only by the
    /// dispatcher's lease timeout.
    pub hang_after: Option<usize>,
}

/// Exit code used by [`serve`] when [`FaultPlan::fail_after`] fires, so
/// tests can tell an injected crash from an accidental one.
pub const INJECTED_CRASH_EXIT_CODE: i32 = 41;

/// Runs one worker session over `reader`/`writer` until a `shutdown` frame,
/// EOF, or an injected fault. Returns the number of results sent.
///
/// # Errors
///
/// Returns [`DispatchError::Protocol`] when the peer violates the protocol
/// (first frame not `job`, malformed or over-long frame, unit out of range)
/// and [`DispatchError::Io`] on transport errors. Solver failures are *not*
/// errors here — they are reported to the dispatcher as `solver_error`
/// frames, because they are deterministic facts about the grid.
pub fn serve(
    reader: impl Read,
    mut writer: impl Write,
    faults: &FaultPlan,
) -> Result<usize, DispatchError> {
    let mut frames = FrameReader::new(reader);
    let mut session: Option<(SweepGrid, bool)> = None;
    let mut results_sent = 0usize;
    while let Some(line) = frames
        .read_frame(MAX_FRAME_BYTES)
        .map_err(|err| match err {
            FrameError::Io(err) => DispatchError::Io(err.to_string()),
            err => DispatchError::Protocol(format!("bad dispatcher frame: {err}")),
        })?
    {
        let frame = ToWorker::decode(&line)
            .map_err(|err| DispatchError::Protocol(format!("bad dispatcher frame: {err}")))?;
        match frame {
            ToWorker::Job {
                protocol,
                warm_start,
                grid,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(DispatchError::Protocol(format!(
                        "dispatcher speaks protocol {protocol}, worker speaks {PROTOCOL_VERSION}"
                    )));
                }
                if session.is_some() {
                    return Err(DispatchError::Protocol(
                        "received a second job frame mid-session".into(),
                    ));
                }
                send(
                    &mut writer,
                    &FromWorker::Ready {
                        protocol: PROTOCOL_VERSION,
                    },
                )?;
                session = Some((grid, warm_start));
            }
            ToWorker::Unit { id, unit, seeds } => {
                let Some((grid, warm_start)) = &session else {
                    return Err(DispatchError::Protocol(
                        "received a unit before the job frame".into(),
                    ));
                };
                if faults.fail_after == Some(results_sent) {
                    // Crash while holding the lease: no reply, no goodbye.
                    std::process::exit(INJECTED_CRASH_EXIT_CODE);
                }
                if faults.hang_after == Some(results_sent) {
                    // Hold the lease forever; only the dispatcher's lease
                    // timeout (and subsequent kill) gets rid of us.
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                if faults.garbage_after == Some(results_sent) {
                    // A frame cut off mid-write, as if the worker died while
                    // flushing: not valid JSON and not newline-terminated.
                    writer
                        .write_all(b"{\"type\":\"result\",\"id\":")
                        .and_then(|()| writer.flush())
                        .map_err(|err| DispatchError::Io(err.to_string()))?;
                    return Ok(results_sent);
                }
                if unit.series >= grid.num_series() || unit.end > grid.budgets().len() {
                    return Err(DispatchError::Protocol(format!(
                        "unit {id} is out of range for the session grid"
                    )));
                }
                let reply = match compute_unit_hinted(
                    grid,
                    &unit,
                    *warm_start,
                    DEFAULT_CACHE_CAPACITY,
                    &seeds,
                ) {
                    Ok(output) => FromWorker::Result {
                        id,
                        points: output.points,
                        warms: output.warms,
                        warm_from_store: output.warm_from_store,
                    },
                    Err(err @ ExploreError::Solver { .. }) => FromWorker::SolverError {
                        id,
                        message: err.to_string(),
                    },
                    Err(err) => return Err(DispatchError::Explore(err)),
                };
                send(&mut writer, &reply)?;
                results_sent += 1;
            }
            ToWorker::Shutdown => break,
        }
    }
    Ok(results_sent)
}

fn send(writer: &mut impl Write, frame: &FromWorker) -> Result<(), DispatchError> {
    let line = frame
        .encode()
        .map_err(|err| DispatchError::Protocol(format!("unencodable worker frame: {err}")))?;
    write_frame(writer, line).map_err(|err| DispatchError::Io(err.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::cases::PaperCase;
    use mfa_alloc::gpa::GpaOptions;
    use mfa_explore::{plan_units, CaseSpec, SolverSpec};

    fn tiny_grid() -> SweepGrid {
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.65, 0.8])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap()
    }

    fn session_script(grid: &SweepGrid) -> String {
        let mut script = String::new();
        script.push_str(
            &ToWorker::Job {
                protocol: PROTOCOL_VERSION,
                warm_start: true,
                grid: grid.clone(),
            }
            .encode()
            .unwrap(),
        );
        script.push('\n');
        for (id, unit) in plan_units(grid, 1).unwrap().into_iter().enumerate() {
            script.push_str(
                &ToWorker::Unit {
                    id,
                    unit,
                    seeds: Vec::new(),
                }
                .encode()
                .unwrap(),
            );
            script.push('\n');
        }
        script.push_str(&ToWorker::Shutdown.encode().unwrap());
        script.push('\n');
        script
    }

    #[test]
    fn serves_a_full_session_in_process() {
        let grid = tiny_grid();
        let script = session_script(&grid);
        let mut out = Vec::new();
        let sent = serve(script.as_bytes(), &mut out, &FaultPlan::default()).unwrap();
        assert_eq!(sent, 2);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3); // ready + 2 results
        assert!(matches!(
            FromWorker::decode(lines[0]).unwrap(),
            FromWorker::Ready { .. }
        ));
        for (idx, line) in lines[1..].iter().enumerate() {
            let FromWorker::Result {
                id, points, warms, ..
            } = FromWorker::decode(line).unwrap()
            else {
                panic!("result frame expected");
            };
            assert_eq!(id, idx);
            assert_eq!(points.len(), 1);
            assert!(points[0].is_some());
            assert_eq!(warms.len(), 1);
            assert!(warms[0].is_some());
        }
    }

    #[test]
    fn unit_before_job_is_a_protocol_error() {
        let script = format!(
            "{}\n",
            ToWorker::Unit {
                id: 0,
                unit: mfa_explore::WorkUnit {
                    series: 0,
                    start: 0,
                    end: 1
                },
                seeds: Vec::new(),
            }
            .encode()
            .unwrap()
        );
        let mut out = Vec::new();
        assert!(matches!(
            serve(script.as_bytes(), &mut out, &FaultPlan::default()),
            Err(DispatchError::Protocol(_))
        ));
    }

    #[test]
    fn out_of_range_unit_is_a_protocol_error() {
        let grid = tiny_grid();
        let mut script = ToWorker::Job {
            protocol: PROTOCOL_VERSION,
            warm_start: false,
            grid: grid.clone(),
        }
        .encode()
        .unwrap();
        script.push('\n');
        script.push_str(
            &ToWorker::Unit {
                id: 0,
                unit: mfa_explore::WorkUnit {
                    series: 9,
                    start: 0,
                    end: 1,
                },
                seeds: Vec::new(),
            }
            .encode()
            .unwrap(),
        );
        script.push('\n');
        let mut out = Vec::new();
        assert!(matches!(
            serve(script.as_bytes(), &mut out, &FaultPlan::default()),
            Err(DispatchError::Protocol(_))
        ));
    }

    #[test]
    fn garbage_fault_truncates_the_stream() {
        let grid = tiny_grid();
        let script = session_script(&grid);
        let mut out = Vec::new();
        let sent = serve(
            script.as_bytes(),
            &mut out,
            &FaultPlan {
                garbage_after: Some(1),
                ..FaultPlan::default()
            },
        )
        .unwrap();
        assert_eq!(sent, 1);
        let text = std::str::from_utf8(&out).unwrap();
        // Last line is the cut-off fragment: not valid JSON, no newline.
        assert!(!text.ends_with('\n'));
        let last = text.lines().last().unwrap();
        assert!(FromWorker::decode(last).is_err());
    }
}
