//! JSON-lines sessions of the workspace's daemons — `serve`, `store-server`
//! and `sweep-worker` — and of their clients. Every frame is one compact JSON
//! object on one `\n`-terminated line; this module decides how frames are
//! delimited, when a session ends and how a daemon stops:
//!
//! * [`FrameReader`] splits any byte stream into frames. Daemons read with
//!   the [`MAX_FRAME_BYTES`] limit, so a client that never sends `\n` costs a
//!   bounded buffer; clients read replies with no limit, because a store
//!   snapshot grows with its namespace.
//! * [`write_frame`] writes a frame and its `\n` in one `write_all`.
//! * [`Daemon`] is the threaded accept loop with its [`StopSignal`]. At most
//!   [`MAX_SESSIONS`] sessions run at once; a connection over the cap gets
//!   the daemon's `error` frame and is closed without a thread.
//!
//! Each daemon keeps its frames, its handshake check, and what a timed-out
//! read or a bad frame does to its session.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Version tag of every JSON-lines handshake in the workspace: the sweep
/// dispatcher's `job`/`ready`, the allocation daemon's `hello`/`ready` and
/// the store-server's `store-hello`/`store-ready`. One constant governs
/// every peer, so an incompatible change to any frame or payload is a single
/// bump. v3 added store-neighbour warm-start seeds to `unit` frames and
/// per-point warm states to `result` frames; v4 introduced the serve-session
/// frame family (`solve`/`report`/`rejected`) alongside the unchanged sweep
/// frames; v5 added the shared-store frame family
/// (`store-hello`/`get`/`put`/`stats`/`evict`) and the serve session's
/// `stats` frame. The frame and session limits answer with each family's
/// existing `error` frame, so they did not bump it.
pub const PROTOCOL_VERSION: usize = 5;

/// Longest frame a daemon reads, in bytes without its `\n`: about 150× the
/// largest `put` a store sweep sends. A longer frame gets an `error` frame
/// and closes the session.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Most sessions a [`Daemon`] runs at once.
pub const MAX_SESSIONS: usize = 64;

/// The reader's first buffer size, and the least free room it keeps for a
/// read.
const READ_CHUNK: usize = 8 * 1024;

/// Why [`FrameReader::read_frame`] returned no frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream's read timeout expired before a complete frame arrived.
    /// Bytes of a partial frame stay buffered for the next call.
    TimedOut,
    /// The frame is longer than the caller's limit. The stream cannot be
    /// resynchronized, so the session should end.
    TooLong {
        /// The limit, in bytes without the `\n`.
        limit: usize,
    },
    /// A complete frame is not valid UTF-8.
    NotUtf8,
    /// Any other transport failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TimedOut => f.write_str("read timed out before a complete frame arrived"),
            FrameError::TooLong { limit } => write!(f, "frame longer than {limit} bytes"),
            FrameError::NotUtf8 => f.write_str("frame is not valid UTF-8"),
            FrameError::Io(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A buffered JSON-lines frame reader over any [`Read`].
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` holds bytes read but not yet returned; the rest is
    /// room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// How much of `buf[start..end]` is known to hold no `\n`.
    scanned: usize,
}

impl<R> fmt::Debug for FrameReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &(self.end - self.start))
            .finish_non_exhaustive()
    }
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`. Read timeouts are the stream's own (for a socket,
    /// [`TcpStream::set_read_timeout`]).
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
        }
    }

    /// Returns the next non-blank frame without its `\n` (or `\r\n`), or
    /// `None` at EOF. A last line that EOF cuts short is still returned, as
    /// [`BufRead::read_line`](std::io::BufRead::read_line) would.
    ///
    /// `limit` bounds a frame's length in bytes, without the `\n`; pass
    /// `usize::MAX` for no limit. UTF-8 is checked once per complete frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::TimedOut`] when the stream's read timeout expires (call
    /// again to resume the frame), [`FrameError::TooLong`] as soon as the
    /// frame is known to exceed `limit`, [`FrameError::NotUtf8`] for a
    /// complete frame that is not UTF-8, and [`FrameError::Io`] otherwise.
    pub fn read_frame(&mut self, limit: usize) -> Result<Option<String>, FrameError> {
        loop {
            let unscanned = self.start + self.scanned..self.end;
            if let Some(at) = find_newline(&self.buf[unscanned.clone()]) {
                let line = self.start..unscanned.start + at;
                self.start = line.end + 1;
                self.scanned = 0;
                match self.frame(line, limit)? {
                    Some(frame) => return Ok(Some(frame)),
                    None => continue,
                }
            }
            self.scanned = self.end - self.start;
            if self.scanned > limit {
                return Err(FrameError::TooLong { limit });
            }
            if self.start == self.end {
                self.start = 0;
                self.end = 0;
            }
            if self.end == self.buf.len() {
                self.make_room(limit);
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) if self.start == self.end => return Ok(None),
                Ok(0) => {
                    let line = self.start..self.end;
                    self.start = self.end;
                    self.scanned = 0;
                    return self.frame(line, limit);
                }
                Ok(n) => self.end += n,
                Err(err) => match err.kind() {
                    io::ErrorKind::Interrupted => {}
                    // A timed-out read surfaces as WouldBlock or TimedOut
                    // depending on the platform.
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        return Err(FrameError::TimedOut)
                    }
                    _ => return Err(FrameError::Io(err)),
                },
            }
        }
    }

    /// Checks one complete line: `None` when it is blank.
    fn frame(&self, line: Range<usize>, limit: usize) -> Result<Option<String>, FrameError> {
        if line.len() > limit {
            return Err(FrameError::TooLong { limit });
        }
        let text = std::str::from_utf8(&self.buf[line]).map_err(|_| FrameError::NotUtf8)?;
        let text = text.strip_suffix('\r').unwrap_or(text);
        Ok((!text.trim().is_empty()).then(|| text.to_owned()))
    }

    /// Moves the buffered bytes to the front and, when less than a chunk is
    /// left free, doubles the buffer — never past what `limit` needs.
    fn make_room(&mut self, limit: usize) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < READ_CHUNK {
            let cap = limit.saturating_add(READ_CHUNK).max(self.buf.len());
            let grown = (self.buf.len() * 2).max(READ_CHUNK).min(cap);
            self.buf.resize(grown, 0);
        }
    }
}

/// Offset of the first `\n` in `bytes`. `contains` on bytes runs at memchr
/// speed, so only the 64-byte chunk holding the `\n` is scanned bytewise.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let chunk = bytes.chunks(64).position(|c| c.contains(&b'\n'))?;
    let at = bytes[chunk * 64..].iter().position(|&b| b == b'\n')?;
    Some(chunk * 64 + at)
}

/// Writes `line` and its `\n` in one `write_all`, then flushes, so a frame
/// leaves a `TCP_NODELAY` socket as one segment rather than two.
pub fn write_frame(mut writer: impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// A daemon's stop flag plus the self-connect that wakes its accept loop.
/// Clones go wherever the daemon can be stopped from: its handle, and the
/// session that receives a `shutdown` frame.
#[derive(Debug, Clone)]
pub struct StopSignal {
    stopped: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopSignal {
    /// `true` once [`stop`](Self::stop) has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Raises the flag and, the first time, unblocks the accept loop with a
    /// throwaway connection.
    pub fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) for a [`Daemon`]: the listener, and the
/// signal that will stop the daemon.
pub fn bind(addr: &str) -> io::Result<(TcpListener, StopSignal)> {
    let listener = TcpListener::bind(addr)?;
    let signal = StopSignal {
        stopped: Arc::new(AtomicBool::new(false)),
        addr: listener.local_addr()?,
    };
    Ok((listener, signal))
}

/// A TCP accept loop that runs each session on its own thread, at most
/// [`MAX_SESSIONS`] at once.
#[derive(Debug)]
pub struct Daemon {
    signal: StopSignal,
    accept: JoinHandle<()>,
}

impl Daemon {
    /// Starts the accept loop on a [`bind`]ed listener. Each connection gets
    /// `TCP_NODELAY` and a thread running `session` on its two halves — a
    /// frame reader and a writer (socket options such as the read timeout
    /// are shared by both). Session threads are not joined: they end when
    /// their client disconnects. A connection over the cap is sent
    /// `error_frame(message)` — the daemon's own encoded `error` frame — and
    /// closed. `name` prefixes the loop's log lines.
    pub fn spawn<E, S>(
        listener: TcpListener,
        signal: StopSignal,
        name: &'static str,
        error_frame: E,
        session: S,
    ) -> Daemon
    where
        E: Fn(String) -> String + Send + 'static,
        S: Fn(FrameReader<TcpStream>, TcpStream) + Send + Sync + 'static,
    {
        let accept = {
            let signal = signal.clone();
            let session = Arc::new(session);
            let live = Arc::new(AtomicUsize::new(0));
            thread::spawn(move || {
                for accepted in listener.incoming() {
                    if signal.is_stopped() {
                        break;
                    }
                    let (reader, writer) =
                        match accepted.and_then(|stream| Ok((stream.try_clone()?, stream))) {
                            Ok(halves) => halves,
                            Err(err) => {
                                eprintln!("{name}: accept failed: {err}");
                                continue;
                            }
                        };
                    let _ = writer.set_nodelay(true);
                    // Only this loop adds sessions, so the count can only
                    // fall between this check and the increment below.
                    if live.load(Ordering::Acquire) >= MAX_SESSIONS {
                        let message = format!("too many sessions: at most {MAX_SESSIONS} at once");
                        let _ = write_frame(&writer, error_frame(message));
                        continue;
                    }
                    live.fetch_add(1, Ordering::AcqRel);
                    let slot = SessionSlot(Arc::clone(&live));
                    let session = Arc::clone(&session);
                    thread::spawn(move || {
                        let _slot = slot;
                        session(FrameReader::new(reader), writer);
                    });
                }
            })
        };
        Daemon { signal, accept }
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.signal.addr
    }

    /// Stops the accept loop and joins it. Running sessions end when their
    /// clients disconnect.
    pub fn stop(self) {
        self.signal.stop();
        let _ = self.accept.join();
    }
}

/// One of the [`MAX_SESSIONS`] slots, released when its session thread ends
/// (a panic included).
struct SessionSlot(Arc<AtomicUsize>);

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A stream that hands out scripted chunks, a timed-out read where the
    /// script says so, and EOF when the script runs out.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Script {
        fn new(steps: Vec<Option<&[u8]>>) -> Self {
            Script(steps.into_iter().map(|s| s.map(<[u8]>::to_vec)).collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn frames(input: &[u8], limit: usize) -> Vec<String> {
        let mut reader = FrameReader::new(input);
        std::iter::from_fn(|| reader.read_frame(limit).unwrap()).collect()
    }

    #[test]
    fn blank_lines_are_skipped() {
        assert_eq!(
            frames(b"\n{\"a\":1}\n  \r\n\n{\"b\":2}\r\n\t\n", usize::MAX),
            ["{\"a\":1}", "{\"b\":2}"]
        );
        assert!(frames(b"\n \n", usize::MAX).is_empty());
    }

    #[test]
    fn a_frame_split_by_a_timed_out_read_arrives_whole_on_the_next_call() {
        // "é" is two bytes; the timeout falls between them.
        let frame = "{\"name\":\"café\"}";
        let split = frame.find('é').unwrap() + 1;
        let mut reader = FrameReader::new(Script::new(vec![
            Some(&frame.as_bytes()[..split]),
            None,
            Some(&frame.as_bytes()[split..]),
            Some(b"\n".as_slice()),
        ]));
        assert!(matches!(
            reader.read_frame(MAX_FRAME_BYTES),
            Err(FrameError::TimedOut)
        ));
        assert_eq!(
            reader.read_frame(MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(frame)
        );
        assert_eq!(reader.read_frame(MAX_FRAME_BYTES).unwrap(), None);
    }

    #[test]
    fn a_frame_of_exactly_the_limit_is_accepted_and_one_byte_more_is_not() {
        let limit = 3 * READ_CHUNK + 5;
        let exact = "x".repeat(limit);
        assert_eq!(
            frames(format!("{exact}\n").as_bytes(), limit),
            [exact.as_str()]
        );
        // Rejected whether or not the `\n` has arrived yet.
        for input in [format!("{exact}y\n"), format!("{exact}y")] {
            let mut reader = FrameReader::new(input.as_bytes());
            assert!(matches!(
                reader.read_frame(limit),
                Err(FrameError::TooLong { limit: l }) if l == limit
            ));
        }
        // The buffer stops growing at the limit plus one chunk.
        let mut reader = FrameReader::new(io::repeat(b'x'));
        assert!(reader.read_frame(limit).is_err());
        assert!(reader.buf.len() <= limit + READ_CHUNK);
    }

    #[test]
    fn a_320_kb_line_reads_in_one_call() {
        let line = "7".repeat(320 * 1024);
        let input = format!("{line}\n{{}}\n");
        let mut reader = FrameReader::new(input.as_bytes());
        assert_eq!(reader.read_frame(usize::MAX).unwrap(), Some(line));
        assert_eq!(
            reader.read_frame(usize::MAX).unwrap().as_deref(),
            Some("{}")
        );
    }

    #[test]
    fn eof_after_a_partial_line_hands_the_line_over() {
        assert_eq!(
            frames(b"{\"ok\":1}\n{\"type\":\"result\",\"id\":", usize::MAX),
            ["{\"ok\":1}", "{\"type\":\"result\",\"id\":"]
        );
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut reader = FrameReader::new(&b"{\"a\":\"\xff\"}\n"[..]);
        assert!(matches!(
            reader.read_frame(usize::MAX),
            Err(FrameError::NotUtf8)
        ));
    }

    #[test]
    fn write_frame_makes_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new());
        write_frame(&mut out, "{\"type\":\"shutdown\"}".into()).unwrap();
        assert_eq!(out.0, [b"{\"type\":\"shutdown\"}\n".to_vec()]);
    }
}
