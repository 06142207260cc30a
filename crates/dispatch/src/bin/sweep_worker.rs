//! `sweep-worker` — one worker process of the sharded sweep dispatcher.
//!
//! ```text
//! sweep-worker [FLAGS]
//!   (no flags)           speak the protocol on stdin/stdout (spawned mode)
//!   --listen ADDR        bind ADDR (e.g. 127.0.0.1:0), print the bound
//!                        address to stdout, then serve TCP connections
//!                        sequentially, one protocol session each
//!   --fail-after N       fault injection: crash (no reply) when the next
//!                        unit arrives after N results were sent
//!   --garbage-after N    fault injection: emit a truncated frame instead
//!                        of result N+1, then exit
//!   --hang-after N       fault injection: hold the next lease after N
//!                        results forever (exercises the lease timeout)
//! ```
//!
//! The worker holds no state beyond one session's grid; all sweep semantics
//! live in [`mfa_explore::compute_unit`], so a unit computed here is
//! byte-identical to the same unit computed on a dispatcher thread.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

use mfa_dispatch::{serve, FaultPlan};

struct Args {
    listen: Option<String>,
    faults: FaultPlan,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        faults: FaultPlan::default(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut count_flag = |name: &str| -> Result<usize, String> {
            iter.next()
                .ok_or(format!("{name} needs a value"))?
                .parse()
                .map_err(|_| format!("{name} needs a nonnegative integer"))
        };
        match arg.as_str() {
            "--listen" => {
                args.listen = Some(iter.next().ok_or("--listen needs an address")?);
            }
            "--fail-after" => args.faults.fail_after = Some(count_flag("--fail-after")?),
            "--garbage-after" => args.faults.garbage_after = Some(count_flag("--garbage-after")?),
            "--hang-after" => args.faults.hang_after = Some(count_flag("--hang-after")?),
            other => {
                return Err(format!(
                    "unknown flag {other} (see the header of sweep_worker.rs)"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("sweep-worker: {msg}");
            return ExitCode::from(2);
        }
    };

    match args.listen {
        None => {
            let stdin = std::io::stdin().lock();
            let stdout = std::io::stdout().lock();
            match serve(stdin, stdout, &args.faults) {
                Ok(_) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("sweep-worker: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(err) => {
                    eprintln!("sweep-worker: cannot bind {addr}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            // Print the bound address (resolves :0 to the actual port) so a
            // parent process can connect the dispatcher to it.
            match listener.local_addr() {
                Ok(local) => {
                    println!("listening on {local}");
                    let _ = std::io::stdout().flush();
                }
                Err(err) => {
                    eprintln!("sweep-worker: cannot read bound address: {err}");
                    return ExitCode::FAILURE;
                }
            }
            for stream in listener.incoming() {
                match stream {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let reader = match stream.try_clone() {
                            Ok(clone) => clone,
                            Err(err) => {
                                eprintln!("sweep-worker: cannot clone connection: {err}");
                                continue;
                            }
                        };
                        // One session per connection; a protocol error ends
                        // the session, not the listener.
                        if let Err(err) = serve(reader, stream, &args.faults) {
                            eprintln!("sweep-worker: session ended: {err}");
                        }
                    }
                    Err(err) => {
                        eprintln!("sweep-worker: accept failed: {err}");
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}
