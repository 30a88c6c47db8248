//! The load generator's HTTP client: one keep-alive connection that sends
//! request bytes encoded before the clock starts and reads buffered or
//! chunked-ndjson responses into buffers it reuses.
//!
//! The bench owns this instead of borrowing `codes_gateway::HttpClient` so
//! that client-side cost stays small and constant while the program under
//! test changes: both run in one process and share `cpu_ms_per_req`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const API_KEY: &str = "e2e-bench-key";
pub const TENANT: &str = "bench";

const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Encode one `POST` with a JSON body as the bytes that go on the wire.
pub fn encode_post(target: &str, json_body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: gateway\r\ncontent-type: application/json\r\n\
         x-api-key: {API_KEY}\r\ncontent-length: {}\r\n\r\n{json_body}",
        json_body.len()
    )
    .into_bytes()
}

pub fn encode_get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: gateway\r\nx-api-key: {API_KEY}\r\n\r\n").into_bytes()
}

/// What one exchange produced. `body` borrows the connection's buffer: a
/// buffered response's JSON, or a stream's terminal ndjson line.
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
    /// Streams only: when the first event line was complete.
    pub first_event: Option<Instant>,
}

pub struct Connection {
    addr: SocketAddr,
    stream: TcpStream,
    /// Bytes read from the socket and not yet consumed.
    buf: Vec<u8>,
    /// De-chunked stream payload of the current response.
    payload: Vec<u8>,
    /// The server announced `connection: close` on the last response.
    must_reconnect: bool,
    pub reconnects: u64,
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        Ok(Connection {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(8192),
            payload: Vec::with_capacity(4096),
            must_reconnect: false,
            reconnects: 0,
        })
    }

    /// Send `wire` and read the whole response. A connection the gateway
    /// closed after its previous response (`max_requests_per_connection`)
    /// is reopened first; a request is never sent twice.
    pub fn exchange(&mut self, wire: &[u8]) -> std::io::Result<Reply<'_>> {
        if self.must_reconnect {
            self.stream = open(self.addr)?;
            self.buf.clear();
            self.must_reconnect = false;
            self.reconnects += 1;
        }
        self.stream.write_all(wire)?;

        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = None;
        let mut chunked = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                self.must_reconnect = value.eq_ignore_ascii_case("close");
            }
        }
        self.buf.drain(..head_end + 4);

        if chunked {
            return self.read_chunked(status);
        }
        let length = content_length.ok_or_else(|| bad("response without a length"))?;
        while self.buf.len() < length {
            self.fill()?;
        }
        // Nothing is pipelined, so the buffer is exactly this body; it is
        // cleared by the next exchange's drain of its own head.
        self.payload.clear();
        self.payload.extend_from_slice(&self.buf[..length]);
        self.buf.drain(..length);
        Ok(Reply {
            status,
            body: &self.payload,
            first_event: None,
        })
    }

    /// Decode `size CRLF data CRLF` frames up to the zero-size chunk; the
    /// payload is ndjson, one event per line.
    fn read_chunked(&mut self, status: u16) -> std::io::Result<Reply<'_>> {
        self.payload.clear();
        let mut first_event = None;
        loop {
            let line_end = loop {
                if let Some(at) = find(&self.buf, b"\r\n") {
                    break at;
                }
                self.fill()?;
            };
            let size_text = std::str::from_utf8(&self.buf[..line_end])
                .map_err(|_| bad("chunk size not UTF-8"))?;
            let size =
                usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            let frame = line_end + 2 + size + 2;
            while self.buf.len() < frame {
                self.fill()?;
            }
            if size == 0 {
                self.buf.drain(..frame);
                break;
            }
            self.payload
                .extend_from_slice(&self.buf[line_end + 2..line_end + 2 + size]);
            self.buf.drain(..frame);
            if first_event.is_none() && self.payload.contains(&b'\n') {
                first_event = Some(Instant::now());
            }
        }
        let text = self.payload.strip_suffix(b"\n").unwrap_or(&self.payload);
        let last = text.rsplit(|b| *b == b'\n').next().unwrap_or(text);
        Ok(Reply {
            status,
            body: last,
            first_event,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// The escaped contents of the `"sql"` string of a served payload, without
/// parsing the rest: `None` when absent or unterminated.
pub fn sql_slice(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"sql\":\"";
    let start = find(body, KEY)? + KEY.len();
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[start..i]),
            _ => i += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn sql_slice_stops_at_the_unescaped_quote() {
        let body = br#"{"v":1,"data":{"sql":"SELECT \"a\" FROM t","cached":false}}"#;
        assert_eq!(sql_slice(body), Some(&br#"SELECT \"a\" FROM t"#[..]));
        assert_eq!(sql_slice(br#"{"v":1,"data":{"sql":""}}"#), Some(&b""[..]));
        assert_eq!(sql_slice(br#"{"v":1,"error":{}}"#), None);
        assert_eq!(sql_slice(br#"{"sql":"unterminated"#), None);
    }

    /// A one-shot server that answers each accepted connection with the
    /// next canned response after reading one request head.
    fn canned_server(responses: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut seen = Vec::new();
                let mut byte = [0u8; 1];
                while !seen.ends_with(b"\r\n\r\n") {
                    stream.read_exact(&mut byte).expect("request byte");
                    seen.push(byte[0]);
                }
                stream.write_all(response).expect("respond");
            }
        });
        addr
    }

    #[test]
    fn reconnects_after_connection_close_and_decodes_chunks() {
        let addr = canned_server(vec![
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n\
              4\r\n{\"a\"\r\n5\r\n:1}\n{\r\n7\r\n\"b\":2}\n\r\n0\r\n\r\n",
        ]);
        let mut conn = Connection::open(addr).expect("connect");
        let wire = encode_get("/x");
        let first = conn.exchange(&wire).expect("first");
        assert_eq!((first.status, first.body), (200, &b"ok"[..]));
        let second = conn.exchange(&wire).expect("second, on a fresh connection");
        assert_eq!(second.body, b"{\"b\":2}");
        assert!(second.first_event.is_some());
        assert_eq!(conn.reconnects, 1);
    }
}
