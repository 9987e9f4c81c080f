//! The shared HTTP/1.1 client: persistent connections, content-length
//! and chunked-transfer response bodies, and a bounded per-host
//! connection pool.
//!
//! One implementation serves two callers with different error contracts:
//!
//! * the router's upstream path uses [`Connection`] and [`ConnPool`]
//!   directly — every failure surfaces as an `io::Error` so the
//!   scatter/gather layer can retry on a fallback shard;
//! * the end-to-end tests use [`StreamingClient`], a thin facade over
//!   the same framing code that panics on any protocol surprise (a test
//!   wants a backtrace, not a recovery path).
//!
//! Keeping the chunked-transfer reader single-sourced here means the
//! router and the test suite cannot drift apart on framing details.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Network fault injection
// ---------------------------------------------------------------------------

/// One injected network failure — the client-side mirror of the store's
/// [`InjectedFault`](crate::store::InjectedFault) disk faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedNetFault {
    /// The dial fails outright with `ConnectionRefused` — a dead or
    /// firewalled shard, before any socket exists.
    Refuse,
    /// The peer accepted the request and then went silent mid-body; the
    /// read surfaces as `TimedOut` (the shape the socket's read timeout
    /// would produce, without waiting for it).
    Hang,
    /// The connection closes mid-response: the read reports EOF with
    /// bytes still owed, truncating the frame in flight.
    Truncate,
    /// The read's bytes arrive corrupted — garbage frames that fail
    /// chunk framing or the record codec's CRC, never parse.
    Garbage,
}

/// Hooks on the client's dials and reads so tests can break the network
/// on purpose, mirroring the `IoFault` pattern in [`crate::store`]. The
/// default implementation of every hook injects nothing; the router
/// consults them only on its scatter path (never on health probes, so a
/// scripted schedule cannot be consumed by the prober racing the test).
pub trait NetFault: Send + Sync {
    /// Consulted before dialing `addr`.
    fn on_connect(&self, addr: &str) -> Option<InjectedNetFault> {
        let _ = addr;
        None
    }

    /// Consulted before each socket read.
    fn on_read(&self) -> Option<InjectedNetFault> {
        None
    }

    /// Total faults injected so far (surfaced in router `/metrics`).
    fn injected(&self) -> u64 {
        0
    }
}

/// The production no-op fault layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNetFault;

impl NetFault for NoNetFault {}

/// A deterministic scripted network fault injector: each hook pops the
/// next scripted answer for its operation (FIFO) and injects nothing
/// once its script runs dry.
#[derive(Default)]
pub struct ScriptedNetFaults {
    connects: Mutex<VecDeque<Option<InjectedNetFault>>>,
    reads: Mutex<VecDeque<Option<InjectedNetFault>>>,
    injected: AtomicU64,
}

impl ScriptedNetFaults {
    /// An empty script (no faults until scripted).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Scripts the next dial: `None` passes cleanly, `Some` injects.
    pub fn script_connect(&self, fault: Option<InjectedNetFault>) {
        self.connects.lock().expect("fault lock").push_back(fault);
    }

    /// Scripts the next socket read.
    pub fn script_read(&self, fault: Option<InjectedNetFault>) {
        self.reads.lock().expect("fault lock").push_back(fault);
    }

    fn pop(&self, queue: &Mutex<VecDeque<Option<InjectedNetFault>>>) -> Option<InjectedNetFault> {
        let fault = queue.lock().expect("fault lock").pop_front().flatten();
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

impl std::fmt::Debug for ScriptedNetFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedNetFaults")
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl NetFault for ScriptedNetFaults {
    fn on_connect(&self, _addr: &str) -> Option<InjectedNetFault> {
        self.pop(&self.connects)
    }

    fn on_read(&self) -> Option<InjectedNetFault> {
        self.pop(&self.reads)
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The error an injected fault surfaces as — indistinguishable from the
/// organic failure it impersonates, so the recovery path under test is
/// exactly the production one.
fn injected_error(fault: InjectedNetFault) -> io::Error {
    match fault {
        InjectedNetFault::Refuse => io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "injected: connection refused",
        ),
        InjectedNetFault::Hang => {
            io::Error::new(io::ErrorKind::TimedOut, "injected: peer hung mid-body")
        }
        InjectedNetFault::Truncate => io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "injected: connection closed mid-response",
        ),
        InjectedNetFault::Garbage => {
            io::Error::new(io::ErrorKind::ConnectionReset, "injected: connection reset")
        }
    }
}

/// One parsed response head.
#[derive(Debug, Clone)]
pub struct ResponseHead {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the body arrives as chunked transfer encoding.
    #[must_use]
    pub fn chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }

    /// The declared `content-length`, when present and parseable.
    #[must_use]
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length").and_then(|v| v.parse().ok())
    }

    /// Whether the server committed to keeping the connection open after
    /// this response.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// One client connection: request writing plus buffered response
/// reading, reusable across requests when the server answers
/// `connection: keep-alive`.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    fault: Arc<dyn NetFault>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("stream", &self.stream)
            .field("buffered", &(self.buf.len() - self.pos))
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Connects to `addr` (a `host:port` string) with a bounded
    /// handshake, then applies `io_timeout` to every read and write.
    ///
    /// # Errors
    ///
    /// Resolution, connect, and socket-option failures.
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> io::Result<Self> {
        Self::connect_with(addr, connect_timeout, io_timeout, Arc::new(NoNetFault))
    }

    /// [`connect`](Self::connect) with a fault hook consulted before the
    /// dial and before every subsequent read on the connection.
    ///
    /// # Errors
    ///
    /// Resolution, connect, socket-option, and injected failures.
    pub fn connect_with(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
        fault: Arc<dyn NetFault>,
    ) -> io::Result<Self> {
        if let Some(injected) = fault.on_connect(addr) {
            return Err(injected_error(injected));
        }
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| protocol_error(format!("{addr} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&resolved, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            pos: 0,
            fault,
        })
    }

    /// Sends one request and reads the response head. `keep_alive` asks
    /// the server to hold the connection open after the response; check
    /// [`ResponseHead::keep_alive`] for whether it agreed.
    ///
    /// # Errors
    ///
    /// Write failures, a closed or timed-out socket, a malformed head,
    /// or unconsumed bytes left over from the previous response (the
    /// caller must drain each body before the next request).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<ResponseHead> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        if !self.buf.is_empty() {
            return Err(protocol_error("previous response body was not fully read"));
        }
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: fo4depth\r\n");
        if method == "POST" || !body.is_empty() {
            head.push_str("content-type: application/json\r\n");
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_head()
    }

    fn read_head(&mut self) -> io::Result<ResponseHead> {
        let end = loop {
            let pending = &self.buf[self.pos..];
            if let Some(i) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break self.pos + i;
            }
            // Bytes that cannot begin a status line are garbage: fail now
            // instead of waiting for a terminator that may never arrive
            // (a kept-alive peer would hold the read until its idle
            // timeout).
            let n = pending.len().min(5);
            if pending[..n] != b"HTTP/"[..n] {
                return Err(protocol_error("response does not start with a status line"));
            }
            self.fill()?;
        };
        let text = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| protocol_error("response head is not UTF-8"))?;
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| protocol_error("malformed status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
            .collect();
        self.pos = end + 4;
        Ok(ResponseHead { status, headers })
    }

    /// Reads the whole response body for `head`: chunked transfer is
    /// drained to its terminator, a `content-length` body is read
    /// exactly, and anything else is read to connection close.
    ///
    /// # Errors
    ///
    /// Read failures and malformed chunk framing.
    pub fn read_body(&mut self, head: &ResponseHead) -> io::Result<Vec<u8>> {
        if head.chunked() {
            let mut body = Vec::new();
            while let Some(chunk) = self.next_chunk()? {
                body.extend_from_slice(&chunk);
            }
            return Ok(body);
        }
        if let Some(n) = head.content_length() {
            return self.take(n);
        }
        // Close-delimited: read until EOF.
        let mut body = self.buf.split_off(self.pos);
        self.buf.clear();
        self.pos = 0;
        self.stream.read_to_end(&mut body)?;
        Ok(body)
    }

    /// The next data chunk of a chunked-transfer body, blocking until the
    /// server flushes one; `Ok(None)` at the stream terminator.
    ///
    /// # Errors
    ///
    /// Read failures and malformed chunk framing.
    pub fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let line = self.line()?;
        let len = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| protocol_error(format!("bad chunk length {line:?}")))?;
        let data = self.take(len)?;
        let crlf = self.take(2)?;
        if crlf != b"\r\n" {
            return Err(protocol_error("chunk not CRLF-terminated"));
        }
        Ok(if len == 0 { None } else { Some(data) })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut tmp = [0u8; 4096];
        // Garbage corrupts real bytes (the frame arrives, unparseable);
        // every other injected fault replaces the read outright.
        let corrupt = match self.fault.on_read() {
            Some(InjectedNetFault::Garbage) => true,
            Some(injected) => return Err(injected_error(injected)),
            None => false,
        };
        let got = self.stream.read(&mut tmp)?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        if corrupt {
            for b in &mut tmp[..got] {
                *b ^= 0xa5;
            }
        }
        self.buf.extend_from_slice(&tmp[..got]);
        Ok(())
    }

    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(i) = self.buf[self.pos..].windows(2).position(|w| w == b"\r\n") {
                let line = std::str::from_utf8(&self.buf[self.pos..self.pos + i])
                    .map_err(|_| protocol_error("chunk header is not UTF-8"))?
                    .to_string();
                self.pos += i + 2;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        let data = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(data)
    }
}

/// A bounded pool of persistent connections to one host.
///
/// `capacity` is the hard in-flight bound: at most that many connections
/// exist at once, so the pool bounds the load one router can place on
/// one shard. [`checkout`](Self::checkout) reuses an idle kept-alive
/// connection when one exists, dials a fresh one while under capacity,
/// and otherwise waits (bounded) for a checkin. The checkout guard
/// returns its connection on drop — dead by default, so a panic or an
/// error path can never leak a poisoned connection back into the pool;
/// callers [`keep`](PooledConn::keep) a connection only after fully
/// consuming a response that agreed to keep-alive.
pub struct ConnPool {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    capacity: usize,
    fault: Arc<dyn NetFault>,
    state: Mutex<PoolState>,
    available: Condvar,
}

struct PoolState {
    idle: Vec<Connection>,
    outstanding: usize,
}

impl ConnPool {
    /// A pool of at most `capacity` connections to `addr`.
    #[must_use]
    pub fn new(
        addr: String,
        capacity: usize,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Self {
        Self::with_fault(
            addr,
            capacity,
            connect_timeout,
            io_timeout,
            Arc::new(NoNetFault),
        )
    }

    /// [`new`](Self::new) with a fault hook applied to every dial the
    /// pool makes and every read on its connections.
    #[must_use]
    pub fn with_fault(
        addr: String,
        capacity: usize,
        connect_timeout: Duration,
        io_timeout: Duration,
        fault: Arc<dyn NetFault>,
    ) -> Self {
        Self {
            addr,
            connect_timeout,
            io_timeout,
            capacity: capacity.max(1),
            fault,
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                outstanding: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// The host this pool dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Checks out a connection: an idle one if available, a fresh dial
    /// while under capacity, else waits for a checkin.
    ///
    /// # Errors
    ///
    /// Dial failures, and `TimedOut` when the pool stays exhausted for
    /// longer than the I/O timeout.
    pub fn checkout(&self) -> io::Result<PooledConn<'_>> {
        let mut state = self.state.lock().expect("pool lock");
        loop {
            if let Some(conn) = state.idle.pop() {
                state.outstanding += 1;
                drop(state);
                return Ok(PooledConn {
                    pool: self,
                    conn: Some(conn),
                    reusable: false,
                    fresh: false,
                });
            }
            if state.outstanding < self.capacity {
                state.outstanding += 1;
                drop(state);
                // Dial outside the lock; undo the reservation on failure.
                return match Connection::connect_with(
                    &self.addr,
                    self.connect_timeout,
                    self.io_timeout,
                    Arc::clone(&self.fault),
                ) {
                    Ok(conn) => Ok(PooledConn {
                        pool: self,
                        conn: Some(conn),
                        reusable: false,
                        fresh: true,
                    }),
                    Err(e) => {
                        self.checkin(None);
                        Err(e)
                    }
                };
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(state, self.io_timeout)
                .expect("pool lock");
            state = guard;
            if timeout.timed_out() && state.idle.is_empty() && state.outstanding >= self.capacity {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("pool for {} exhausted", self.addr),
                ));
            }
        }
    }

    fn checkin(&self, conn: Option<Connection>) {
        let mut state = self.state.lock().expect("pool lock");
        state.outstanding -= 1;
        if let Some(conn) = conn {
            state.idle.push(conn);
        }
        drop(state);
        self.available.notify_one();
    }
}

/// A checked-out pool connection. Dropped connections return their slot;
/// the socket itself survives only after [`keep`](Self::keep).
pub struct PooledConn<'a> {
    pool: &'a ConnPool,
    conn: Option<Connection>,
    reusable: bool,
    fresh: bool,
}

impl PooledConn<'_> {
    /// Whether this connection was freshly dialed (as opposed to reused
    /// from the idle set). A send failure on a *reused* connection may
    /// just mean the server idled it out; callers retry once on a fresh
    /// dial before blaming the host.
    #[must_use]
    pub fn fresh(&self) -> bool {
        self.fresh
    }

    /// Marks the connection reusable and returns it to the idle set —
    /// call only after fully consuming a response whose head agreed to
    /// keep-alive.
    pub fn keep(mut self) {
        self.reusable = true;
    }
}

impl Deref for PooledConn<'_> {
    type Target = Connection;

    fn deref(&self) -> &Connection {
        self.conn.as_ref().expect("connection present until drop")
    }
}

impl DerefMut for PooledConn<'_> {
    fn deref_mut(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("connection present until drop")
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        let conn = if self.reusable {
            self.conn.take()
        } else {
            None
        };
        self.pool.checkin(conn);
    }
}

/// An incremental client for a chunked-transfer response: the head is
/// read eagerly, then [`next_chunk`](Self::next_chunk) yields each data
/// chunk as the server flushes it — so a test can observe per-point
/// delivery while the sweep is still running on the other end. Panics on
/// any protocol surprise; production callers use [`Connection`].
pub struct StreamingClient {
    conn: Connection,
    /// The response status.
    pub status: u16,
    /// Response header pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl StreamingClient {
    /// Sends a POST and reads the response head. Panics unless the
    /// response announces `transfer-encoding: chunked`.
    ///
    /// # Panics
    ///
    /// Connect, send, and framing failures, and non-chunked responses.
    #[must_use]
    pub fn post(addr: SocketAddr, path: &str, body: &str) -> Self {
        let mut conn = Connection::connect(
            &addr.to_string(),
            Duration::from_secs(10),
            Duration::from_secs(60),
        )
        .expect("connect");
        let head = conn
            .request("POST", path, body.as_bytes(), false)
            .expect("send request");
        assert_eq!(
            head.header("transfer-encoding"),
            Some("chunked"),
            "streamed response must be chunked"
        );
        Self {
            conn,
            status: head.status,
            headers: head.headers,
        }
    }

    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The next data chunk, blocking until the server flushes one; `None`
    /// at the stream terminator.
    ///
    /// # Panics
    ///
    /// Read failures, malformed framing, and non-UTF-8 chunks.
    pub fn next_chunk(&mut self) -> Option<String> {
        self.conn
            .next_chunk()
            .expect("stream read")
            .map(|data| String::from_utf8(data).expect("UTF-8 chunk"))
    }

    /// Drains the stream to its terminator, returning every remaining
    /// data chunk.
    pub fn drain(&mut self) -> Vec<String> {
        let mut chunks = Vec::new();
        while let Some(c) = self.next_chunk() {
            chunks.push(c);
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn scripted_connect_refuse_fails_the_dial_and_counts() {
        let faults = ScriptedNetFaults::new();
        faults.script_connect(Some(InjectedNetFault::Refuse));
        let err = Connection::connect_with(
            "127.0.0.1:1",
            Duration::from_millis(100),
            Duration::from_millis(100),
            Arc::clone(&faults) as Arc<dyn NetFault>,
        )
        .expect_err("injected refuse");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(faults.injected(), 1);
    }

    #[test]
    fn scripted_read_faults_pop_in_fifo_order_and_run_dry() {
        let faults = ScriptedNetFaults::new();
        faults.script_read(Some(InjectedNetFault::Hang));
        faults.script_read(None);
        faults.script_read(Some(InjectedNetFault::Truncate));
        assert_eq!(faults.on_read(), Some(InjectedNetFault::Hang));
        assert_eq!(faults.on_read(), None);
        assert_eq!(faults.on_read(), Some(InjectedNetFault::Truncate));
        // Dry script: clean passes forever, and only injections counted.
        assert_eq!(faults.on_read(), None);
        assert_eq!(faults.injected(), 2);
    }

    #[test]
    fn injected_read_faults_surface_as_their_organic_error_kinds() {
        // A one-connection server that answers with a valid head so the
        // client's *body* read is the one the script intercepts.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            for k in 0..3 {
                let (mut s, _) = listener.accept().expect("accept");
                let mut scratch = [0u8; 1024];
                let _ = s.read(&mut scratch);
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello",
                );
                if k == 2 {
                    // Hold the third connection open, like a kept-alive
                    // peer waiting for the next request.
                    let _ = held.recv();
                }
            }
        });
        let faults = ScriptedNetFaults::new();
        // First connection: head passes, body read hangs.
        faults.script_read(None);
        faults.script_read(Some(InjectedNetFault::Hang));
        let mut conn = Connection::connect_with(
            &addr,
            Duration::from_secs(5),
            Duration::from_secs(5),
            Arc::clone(&faults) as Arc<dyn NetFault>,
        )
        .expect("connect");
        let head = conn.request("GET", "/healthz", b"", false).expect("head");
        // The head and body may arrive in one segment; only a read that
        // actually reaches the socket consumes a scripted answer.
        match conn.read_body(&head) {
            Ok(body) => assert_eq!(body, b"hello"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
        }
        // Second connection: every read truncated — the head never parses.
        let faults2 = ScriptedNetFaults::new();
        faults2.script_read(Some(InjectedNetFault::Truncate));
        let mut conn = Connection::connect_with(
            &addr,
            Duration::from_secs(5),
            Duration::from_secs(5),
            Arc::clone(&faults2) as Arc<dyn NetFault>,
        )
        .expect("connect");
        let err = conn
            .request("GET", "/healthz", b"", false)
            .expect_err("injected truncation");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Third connection: the head arrives garbled and the peer keeps
        // the connection open. The client must reject it at once, not
        // wait out its read timeout for a terminator that never comes.
        let faults3 = ScriptedNetFaults::new();
        faults3.script_read(Some(InjectedNetFault::Garbage));
        let mut conn = Connection::connect_with(
            &addr,
            Duration::from_secs(5),
            Duration::from_secs(5),
            Arc::clone(&faults3) as Arc<dyn NetFault>,
        )
        .expect("connect");
        let err = conn
            .request("GET", "/healthz", b"", false)
            .expect_err("injected garbage");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        release.send(()).expect("server holds the connection");
        server.join().expect("server thread");
    }
}
