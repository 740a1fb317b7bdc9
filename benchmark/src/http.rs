//! A small conforming HTTP/1.1 client and an open-loop load generator.
//!
//! Responses are framed by `Content-Length`, never by reading to EOF,
//! so a server that keeps connections open is served on the same
//! connection. The client reuses a connection until the server closes
//! it (`Connection: close`, HTTP/1.0, or an idle close it notices only
//! when the next request finds the socket dead) and then reconnects.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Cap on one response's header block.
const MAX_HEAD: usize = 16 * 1024;
/// Cap on one response body.
const MAX_BODY: usize = 64 << 20;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
    /// Whether the server ends the connection after this response.
    pub close: bool,
}

/// Where one exchange spent its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// TCP connect time, when this exchange opened a connection.
    pub connect: Option<Duration>,
    /// Request fully written → first response byte.
    pub ttfb: Duration,
}

/// A client holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
}

/// An attempt's failure, and whether it is safe to retry it on a fresh
/// connection: a reused connection the server had already closed fails
/// before any response byte arrives.
struct Failed {
    error: io::Error,
    retry: bool,
}

impl Client {
    /// A client for `addr`; `timeout` bounds every connect, read and
    /// write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            conn: None,
            connects: 0,
        }
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Any transport failure, or a response this client cannot frame.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let reused = self.conn.is_some();
        match self.attempt(method, path, body) {
            Ok(done) => Ok(done),
            Err(f) if reused && f.retry => {
                self.conn = None;
                self.attempt(method, path, body).map_err(|f| f.error)
            }
            Err(f) => {
                self.conn = None;
                Err(f.error)
            }
        }
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(Response, Timing), Failed> {
        let fatal = |error: io::Error| Failed {
            error,
            retry: false,
        };
        let mut connect = None;
        if self.conn.is_none() {
            let started = Instant::now();
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout).map_err(fatal)?;
            connect = Some(started.elapsed());
            self.connects += 1;
            stream.set_nodelay(true).map_err(fatal)?;
            stream.set_read_timeout(Some(self.timeout)).map_err(fatal)?;
            stream
                .set_write_timeout(Some(self.timeout))
                .map_err(fatal)?;
            self.conn = Some(BufReader::new(stream));
        }
        let reused = connect.is_none();
        let conn = self.conn.as_mut().expect("connection just ensured");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        conn.get_mut().write_all(&wire).map_err(|error| Failed {
            error,
            retry: reused,
        })?;
        let written = Instant::now();
        let first = conn.fill_buf().map_err(|error| {
            let reset = matches!(
                error.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
            );
            Failed {
                error,
                retry: reused && reset,
            }
        })?;
        if first.is_empty() {
            let error = io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            );
            return Err(Failed {
                error,
                retry: reused,
            });
        }
        let ttfb = written.elapsed();
        let response = read_response(conn).map_err(fatal)?;
        if response.close {
            self.conn = None;
        }
        Ok((response, Timing { connect, ttfb }))
    }
}

/// Reads one response framed by `Content-Length`.
///
/// # Errors
///
/// Malformed status line or headers, a missing or duplicate length on a
/// kept-alive connection, chunked framing, or a transport failure.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut head_bytes = 0usize;
    let mut line = String::new();
    let mut next_line = |line: &mut String| -> io::Result<()> {
        line.clear();
        let n = reader
            .by_ref()
            .take((MAX_HEAD + 1) as u64)
            .read_line(line)?;
        head_bytes += n;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response head",
            ));
        }
        if head_bytes > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        Ok(())
    };
    next_line(&mut line)?;
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or_default().to_owned();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP/1.x response"));
    }
    let mut close = version == "HTTP/1.0";
    let mut length: Option<usize> = None;
    loop {
        next_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| bad("bad header line"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value.parse().map_err(|_| bad("bad content-length"))?;
            if length.replace(n).is_some() {
                return Err(bad("duplicate content-length"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad("chunked responses are not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    let mut body = Vec::new();
    match length {
        Some(n) if n > MAX_BODY => return Err(bad("response body too large")),
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        // Without a length only the close delimits the body.
        None if close => {
            reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
        }
        None => return Err(bad("kept-alive response without content-length")),
    }
    Ok(Response {
        status,
        body,
        close,
    })
}

/// One request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// Index in the schedule.
    pub index: usize,
    /// Due time → last response byte (ms); what a user waiting on a
    /// stalled connection experiences.
    pub latency_ms: f64,
    /// Due time → the moment the request was actually sent (ms).
    pub late_ms: f64,
    /// Connect time, when this request opened a connection (ms).
    pub connect_ms: Option<f64>,
    /// Written → first response byte (ms).
    pub ttfb_ms: f64,
    /// Response status; `None` for a transport failure.
    pub status: Option<u16>,
}

/// Result of [`open_loop`].
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Every scheduled request, in schedule order.
    pub sent: Vec<Sent>,
    /// Connections opened across all client connections.
    pub connects: u64,
}

/// Sends `count` requests on a fixed schedule — request `i` is due at
/// `start + i · interval` — over `conns` connections, request `i` on
/// connection `i mod conns`. The schedule never waits for replies, so a
/// stall delays the requests queued behind it and is charged to them:
/// latency is measured from each request's due time.
pub fn open_loop<F>(
    addr: SocketAddr,
    start: Instant,
    interval: Duration,
    count: usize,
    conns: usize,
    timeout: Duration,
    request: F,
) -> OpenLoop
where
    F: Fn(usize) -> (&'static str, String, Vec<u8>) + Sync,
{
    assert!(conns >= 1, "need at least one connection");
    let request = &request;
    let per_conn: Vec<(Vec<Sent>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, timeout);
                    let mut sent = Vec::with_capacity(count / conns + 1);
                    for index in (c..count).step_by(conns) {
                        let due = start + interval * index as u32;
                        wait_until(due);
                        let (method, path, body) = request(index);
                        let sending = Instant::now();
                        let outcome = client.request(method, &path, &body);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        let (status, connect_ms, ttfb_ms) = match outcome {
                            Ok((r, t)) => (Some(r.status), t.connect.map(ms), ms(t.ttfb)),
                            Err(_) => (None, None, 0.0),
                        };
                        sent.push(Sent {
                            index,
                            latency_ms: ms(done.saturating_duration_since(due)),
                            late_ms: ms(sending.saturating_duration_since(due)),
                            connect_ms,
                            ttfb_ms,
                            status,
                        });
                    }
                    (sent, client.connects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut out = OpenLoop::default();
    for (sent, connects) in per_conn {
        out.sent.extend(sent);
        out.connects += connects;
    }
    out.sent.sort_by_key(|s| s.index);
    out
}

/// Sleeps until shortly before `due`, then yields until it arrives, so
/// sends start within a few microseconds of their due time without
/// holding a core.
fn wait_until(due: Instant) {
    const GUARD: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + GUARD {
        std::thread::sleep(due - now - GUARD);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}
