//! A null service of the daemon's shape: the reference for serve-open's
//! median latency.
//!
//! A daemon request wakes a connection reader thread, then a solver worker
//! through the admission queue, then the client's reader, and does a short
//! burst of work on each core it wakes. On a shared virtual machine both the
//! wakeups and the first microseconds on a core that sat idle cost more or
//! less from one minute to the next, with no change to the work: the median
//! request moved by 1.6× between runs while the host-speed sampler, which
//! times long passes, held steady. The null service takes the same path and
//! does a burst of the same size, one pass of the host-speed kernel: a
//! reader thread queues each line, a worker thread takes it off the queue,
//! runs the pass and writes the line back. It never calls into the
//! workspace. Its median latency, taken between the daemon's requests, is
//! what the host charged that run for such a request.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use crate::calib;
use crate::sys;

#[derive(Default)]
struct Queue {
    lines: VecDeque<String>,
    closed: bool,
}

type Shared = (Mutex<Queue>, Condvar);

/// The running null service and the client end of its one connection.
pub struct NullService {
    client: TcpStream,
    threads: Vec<JoinHandle<()>>,
    /// `/proc` stat files of the service's two threads.
    stats: Vec<PathBuf>,
}

impl NullService {
    pub fn spawn() -> std::io::Result<NullService> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        let shared: Arc<Shared> = Arc::default();
        let (stat_tx, stat_rx) = mpsc::channel();
        let reader = {
            let (shared, stream, stat_tx) =
                (Arc::clone(&shared), server.try_clone()?, stat_tx.clone());
            thread::spawn(move || {
                let _ = stat_tx.send(sys::thread_stat_path());
                read_loop(stream, &shared);
            })
        };
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let _ = stat_tx.send(sys::thread_stat_path());
                work_loop(server, &shared);
            })
        };
        let stats = stat_rx.iter().take(2).collect();
        Ok(NullService {
            client,
            threads: vec![reader, worker],
            stats,
        })
    }

    /// The client end of the connection.
    pub fn client(&self) -> &TcpStream {
        &self.client
    }

    /// CPU seconds the service's threads have used so far: the benchmark's,
    /// not the program's.
    pub fn cpu_seconds(&self) -> f64 {
        self.stats
            .iter()
            .map(|path| sys::stat_cpu_seconds(path))
            .sum()
    }
}

impl Drop for NullService {
    fn drop(&mut self) {
        // End of stream stops the reader, which closes the queue and so
        // stops the worker.
        let _ = self.client.shutdown(Shutdown::Both);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn read_loop(stream: TcpStream, shared: &Shared) {
    let (queue, cv) = shared;
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        let open = matches!(reader.read_line(&mut line), Ok(n) if n > 0);
        let mut q = queue.lock().expect("null queue poisoned");
        if open {
            q.lines.push_back(line);
        } else {
            q.closed = true;
        }
        cv.notify_one();
        if !open {
            return;
        }
    }
}

fn work_loop(mut stream: TcpStream, shared: &Shared) {
    let (queue, cv) = shared;
    for salt in 0u64.. {
        let line = {
            let mut q = queue.lock().expect("null queue poisoned");
            while q.lines.is_empty() && !q.closed {
                q = cv.wait(q).expect("null queue poisoned");
            }
            match q.lines.pop_front() {
                Some(line) => line,
                None => return,
            }
        };
        black_box(calib::pass(black_box(salt)));
        if stream.write_all(line.as_bytes()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echoes_each_line_and_stops() {
        let service = NullService::spawn().unwrap();
        let mut out = service.client().try_clone().unwrap();
        let mut back = BufReader::new(service.client().try_clone().unwrap());
        for i in 0..3 {
            writeln!(out, "{i}").unwrap();
            let mut line = String::new();
            back.read_line(&mut line).unwrap();
            assert_eq!(line, format!("{i}\n"));
        }
        assert!(service.cpu_seconds() >= 0.0);
        drop(service);
    }
}
