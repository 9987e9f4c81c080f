//! A minimal blocking HTTP/1.1 client with keep-alive, timing each
//! exchange from send to first body byte and to last byte.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One completed exchange.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body (de-chunked).
    pub body: Vec<u8>,
    /// Send until the first body byte (the first chunk, when streamed).
    pub ttfb: Duration,
    /// Send until the last byte.
    pub total: Duration,
}

/// A keep-alive connection to one server, re-dialled when the server
/// closes it.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` (`host:port`); connects lazily.
    #[must_use]
    pub fn new(addr: &str, timeout: Duration) -> Self {
        Self {
            addr: addr.to_string(),
            timeout,
            conn: None,
        }
    }

    fn connect(&self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Sends one request and reads the whole response. A kept-alive
    /// connection the server closed in between — the write fails, or the
    /// connection ends before the first byte of the status line — is
    /// re-dialled once; any other error is returned. The times run from
    /// the first send, across a resend.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed, timed-out or malformed exchange.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let start = Instant::now();
        let reused = self.conn.is_some();
        match self.exchange(method, path, body, start) {
            Err(Failure::Stale(_)) if reused => self
                .exchange(method, path, body, start)
                .map_err(Failure::into_error),
            other => other.map_err(Failure::into_error),
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        start: Instant,
    ) -> Result<Response, Failure> {
        if self.conn.is_none() {
            self.conn = Some(self.connect().map_err(Failure::Other)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        let result = read_response(conn, &request, start);
        match result {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// How an exchange failed.
#[derive(Debug)]
enum Failure {
    /// The connection was already closed: the write failed, or it ended
    /// before the first byte of a response. Safe to resend on a new one.
    Stale(io::Error),
    /// Anything else, including a timeout and a cut or malformed response.
    Other(io::Error),
}

impl Failure {
    fn into_error(self) -> io::Error {
        match self {
            Failure::Stale(e) | Failure::Other(e) => e,
        }
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Other(e)
    }
}

fn closed_or_other(e: io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted => Failure::Stale(e),
        _ => Failure::Other(e),
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn read_line(conn: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Writes `request`, then reads status, headers and body. Returns the
/// response and whether the connection may be reused.
fn read_response(
    conn: &mut BufReader<TcpStream>,
    request: &[u8],
    start: Instant,
) -> Result<(Response, bool), Failure> {
    conn.get_mut().write_all(request).map_err(Failure::Stale)?;
    // A kept-alive connection the server closed shows as an immediate
    // end or reset on the first read.
    if conn.fill_buf().map_err(closed_or_other)?.is_empty() {
        return Err(Failure::Stale(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        )));
    }
    let status_line = read_line(conn)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut length = None;
    let mut chunked = false;
    let mut keep_alive = true;
    loop {
        let line = read_line(conn)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed("bad header line").into());
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| malformed("bad content-length"))?,
                );
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    let mut ttfb = None;
    if chunked {
        loop {
            let size_line = read_line(conn)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| malformed("bad chunk size"))?;
            if size == 0 {
                // Trailer section: read until the blank line.
                while !read_line(conn)?.is_empty() {}
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            conn.read_exact(&mut body[at..])?;
            ttfb.get_or_insert_with(|| start.elapsed());
            if !read_line(conn)?.is_empty() {
                return Err(malformed("chunk not followed by CRLF").into());
            }
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        if n > 0 {
            conn.read_exact(&mut body[..1])?;
            ttfb = Some(start.elapsed());
            conn.read_exact(&mut body[1..])?;
        }
    } else {
        conn.read_to_end(&mut body)?;
        keep_alive = false;
    }
    let total = start.elapsed();
    Ok((
        Response {
            status,
            body,
            ttfb: ttfb.unwrap_or(total),
            total,
        },
        keep_alive,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reads one request (head and `Content-Length` body) from `conn`.
    fn read_request(conn: &mut BufReader<TcpStream>) {
        let mut length = 0;
        loop {
            let line = read_line(conn).expect("request line");
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0; length];
        conn.read_exact(&mut body).expect("request body");
    }

    fn answer(conn: &mut BufReader<TcpStream>, body: &str) {
        read_request(conn);
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.get_mut()
            .write_all(response.as_bytes())
            .expect("write");
    }

    /// A server that handles its connections with `script`, one call per
    /// accepted connection, in order.
    fn server(
        scripts: Vec<fn(&mut BufReader<TcpStream>)>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            for script in scripts {
                let (stream, _) = listener.accept().expect("accept");
                script(&mut BufReader::new(stream));
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_keep_alive_connection_closed_in_between_is_resent() {
        let (addr, server) = server(vec![|c| answer(c, "first"), |c| answer(c, "second")]);
        let mut client = Client::new(&addr, Duration::from_secs(5));
        assert_eq!(client.request("POST", "/", b"{}").unwrap().body, b"first");
        // The server closed the first connection after one answer.
        assert_eq!(client.request("POST", "/", b"{}").unwrap().body, b"second");
        server.join().unwrap();
    }

    #[test]
    fn a_cut_or_late_response_is_an_error_not_a_resend() {
        let (addr, server) = server(vec![
            |c| {
                answer(c, "first");
                read_request(c);
                let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
                c.get_mut().write_all(cut).expect("write");
            },
            |c| {
                answer(c, "second");
                read_request(c);
                // Hold the connection past the client's timeout.
                std::thread::sleep(Duration::from_millis(400));
            },
            |c| answer(c, "third"),
        ]);
        let mut client = Client::new(&addr, Duration::from_millis(200));
        assert_eq!(client.request("POST", "/", b"{}").unwrap().body, b"first");
        assert!(client.request("POST", "/", b"{}").is_err());
        assert_eq!(client.request("POST", "/", b"{}").unwrap().body, b"second");
        // A resend would reach the next connection and get "third".
        assert!(client.request("POST", "/", b"{}").is_err());
        assert_eq!(client.request("POST", "/", b"{}").unwrap().body, b"third");
        server.join().unwrap();
    }
}
