//! Load generator: a keep-alive HTTP/1.1 client and the open-loop and
//! closed-loop phases. The generator uses at most two threads and two
//! connections (the calling thread drives the first connection).

use cornet_serve::http::encode_request;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking keep-alive client that returns raw response bodies, so the
/// oracle can compare them byte for byte.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with `TCP_NODELAY` and the client timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Client {
            addr,
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one POST and reads its `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.writer
            .write_all(encode_request("POST", path, Some(body), false).as_bytes())?;
        let invalid = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed before the response"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed in the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| invalid("bad length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok((status, body))
    }

    /// Replaces a broken connection with a fresh one.
    fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }
}

/// The answer to one request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request in its phase's list.
    pub index: usize,
    /// HTTP status, or `None` on a transport error.
    pub status: Option<u16>,
    /// Response body (empty on a transport error).
    pub body: String,
    /// Microseconds from the due time (open loop) or send time (closed
    /// loop) to the end of the response.
    pub latency_us: f64,
    /// Microseconds the send started after its due time (open loop).
    pub late_us: f64,
    /// When the request was sent, in seconds since the phase started.
    pub sent_s: f64,
}

/// Sends `path`/`body` on `client`, reconnecting once after a transport
/// error so one broken socket cannot fail the rest of a phase.
fn call(client: &mut Client, path: &str, body: &str) -> (Option<u16>, String) {
    match client.post(path, body) {
        Ok((status, body)) => (Some(status), body),
        Err(_) => {
            let _ = client.reconnect();
            (None, String::new())
        }
    }
}

/// A request the open loop sends: its index, due offset, path and body.
pub struct Scheduled<'a> {
    pub index: usize,
    pub due_us: u64,
    pub path: &'a str,
    pub body: &'a str,
}

/// Open loop on one connection: each request is sent at its due time,
/// or as soon as the previous response is in when the connection runs
/// late, and is timed from its due time.
pub fn open_loop(client: &mut Client, start: Instant, reqs: &[Scheduled<'_>]) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        let due = start + Duration::from_micros(r.due_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (status, body) = call(client, r.path, r.body);
        let done = Instant::now();
        out.push(Outcome {
            index: r.index,
            status,
            body,
            latency_us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            sent_s: sent.duration_since(start).as_secs_f64(),
        });
    }
    out
}

/// Closed loop on one connection: sends `reqs` in order, cycling, each as
/// soon as the previous response is in, until `secs` have passed.
pub fn closed_loop(
    client: &mut Client,
    reqs: &[Scheduled<'_>],
    start: Instant,
    secs: f64,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for r in reqs.iter().cycle() {
        let sent = Instant::now();
        if sent.duration_since(start).as_secs_f64() >= secs {
            break;
        }
        let (status, body) = call(client, r.path, r.body);
        out.push(Outcome {
            index: r.index,
            status,
            body,
            latency_us: sent.elapsed().as_secs_f64() * 1e6,
            late_us: 0.0,
            sent_s: sent.duration_since(start).as_secs_f64(),
        });
    }
    out
}

/// One timed request outside any phase (the set-up probe and learn
/// passes): `(status, body, latency in µs)`.
pub fn timed(client: &mut Client, path: &str, body: &str) -> (Option<u16>, String, f64) {
    let t = Instant::now();
    let (status, body) = call(client, path, body);
    (status, body, t.elapsed().as_secs_f64() * 1e6)
}
