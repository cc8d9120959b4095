//! A lean keep-alive HTTP/1.1 client. It shares CPUs with the server, so
//! it avoids per-request allocation: requests are pre-built byte strings
//! and responses are read into one reusable buffer.
//!
//! Every request and every response byte goes through the [`Ledger`], the
//! client-side count the server's `osdiv_requests_served` and
//! `osdiv_bytes_out` counters are reconciled against. The ledger also
//! counts the benchmark's own `/metrics` scrapes apart, so that they can
//! be taken out of the read figures.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Requests sent and response bytes received since the server booted,
/// and how many of them were `/metrics` scrapes and their replies.
#[derive(Debug, Default)]
pub struct Ledger {
    requests: AtomicU64,
    bytes: AtomicU64,
    scrapes: AtomicU64,
    scrape_bytes: AtomicU64,
}

impl Ledger {
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::SeqCst)
    }

    pub fn scrape_bytes(&self) -> u64 {
        self.scrape_bytes.load(Ordering::SeqCst)
    }
}

/// One parsed response; the body is `Conn::body()` until the next request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    head_len: usize,
    body_len: usize,
}

impl Reply {
    /// Head plus body bytes: the unit of `osdiv_bytes_out`.
    pub fn wire_len(&self) -> usize {
        self.head_len + self.body_len
    }
}

pub struct Conn {
    stream: TcpStream,
    /// Requests sent on this connection.
    pub sent: usize,
    /// Scratch space for a pipelined batch.
    batch: Vec<u8>,
    /// Receive buffer; only `buf[..filled]` holds received bytes.
    buf: Vec<u8>,
    filled: usize,
    last: Option<Reply>,
}

pub fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: osdiv\r\n\r\n").into_bytes()
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            sent: 0,
            batch: Vec::new(),
            buf: vec![0; 64 * 1024],
            filled: 0,
            last: None,
        })
    }

    /// Sends one pre-built request and reads its response.
    pub fn send(&mut self, ledger: &Ledger, request: &[u8]) -> io::Result<Reply> {
        self.begin(ledger)?;
        self.stream.write_all(request)?;
        self.finish(ledger)
    }

    /// Sends `GET /metrics`, counted as a scrape in the ledger too.
    pub fn scrape(&mut self, ledger: &Ledger) -> io::Result<Reply> {
        ledger.scrapes.fetch_add(1, Ordering::SeqCst);
        let reply = self.send(ledger, &get_request("/metrics"))?;
        ledger
            .scrape_bytes
            .fetch_add(reply.wire_len() as u64, Ordering::SeqCst);
        Ok(reply)
    }

    /// Sends a request whose body goes out as `Transfer-Encoding: chunked`,
    /// one wire chunk per `chunk_size` bytes of `body`.
    pub fn send_chunked(
        &mut self,
        ledger: &Ledger,
        method: &str,
        target: &str,
        body: &[u8],
        chunk_size: usize,
    ) -> io::Result<Reply> {
        self.begin(ledger)?;
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: osdiv\r\nTransfer-Encoding: chunked\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        for chunk in body.chunks(chunk_size) {
            self.stream
                .write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
            self.stream.write_all(chunk)?;
            self.stream.write_all(b"\r\n")?;
        }
        self.stream.write_all(b"0\r\n\r\n")?;
        self.finish(ledger)
    }

    /// Writes `requests` back to back in one write (HTTP/1.1 pipelining),
    /// then reads their responses in order, handing each to `check`.
    pub fn pipeline(
        &mut self,
        ledger: &Ledger,
        requests: &[&[u8]],
        mut check: impl FnMut(usize, Reply, &[u8]),
    ) -> io::Result<()> {
        self.batch.clear();
        for request in requests {
            self.begin(ledger)?;
            self.batch.extend_from_slice(request);
        }
        self.stream.write_all(&self.batch)?;
        for index in 0..requests.len() {
            self.consume_last();
            let reply = self.finish(ledger)?;
            check(index, reply, self.body());
        }
        Ok(())
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        match self.last {
            Some(reply) => &self.buf[reply.head_len..reply.head_len + reply.body_len],
            None => &[],
        }
    }

    fn consume_last(&mut self) {
        if let Some(reply) = self.last.take() {
            self.buf.copy_within(reply.wire_len()..self.filled, 0);
            self.filled -= reply.wire_len();
        }
    }

    fn begin(&mut self, ledger: &Ledger) -> io::Result<()> {
        self.consume_last();
        if self.filled != 0 {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "unsolicited bytes on the connection",
            ));
        }
        ledger.requests.fetch_add(1, Ordering::SeqCst);
        self.sent += 1;
        Ok(())
    }

    fn finish(&mut self, ledger: &Ledger) -> io::Result<Reply> {
        let mut scanned = 0;
        let head_len = loop {
            if let Some(at) = find_head_end(&self.buf[..self.filled], scanned) {
                break at;
            }
            scanned = self.filled.saturating_sub(3);
            self.fill()?;
        };
        let (status, body_len, close) = parse_head(&self.buf[..head_len])?;
        while self.filled < head_len + body_len {
            self.fill()?;
        }
        let reply = Reply {
            status,
            close,
            head_len,
            body_len,
        };
        ledger
            .bytes
            .fetch_add(reply.wire_len() as u64, Ordering::SeqCst);
        self.last = Some(reply);
        Ok(reply)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..])? {
            0 => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }
}

/// End of the head (index just past `\r\n\r\n`), searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .map(|at| from + at + 4)
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let bad = || io::Error::new(ErrorKind::InvalidData, "malformed response head");
    let text = std::str::from_utf8(head).map_err(|_| bad())?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    let mut body_len = 0;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value.parse().map_err(|_| bad())?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    Ok((status, body_len, close))
}
