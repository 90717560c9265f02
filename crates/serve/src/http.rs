//! A minimal HTTP/1.1 implementation.
//!
//! Only what an inference server and its load generator need: request
//! lines, headers, `Content-Length` bodies and keep-alive. Written from
//! scratch on [`bytes`] so both the real server and the real client share
//! one parser.

use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// HTTP methods the server supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }

    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request path (no query parsing — the API does not use queries).
    pub path: String,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Request body.
    pub body: Bytes,
    /// When the request came off the wire ([`parse_request`] stamps the
    /// instant the final byte was parsed; the in-process constructors
    /// stamp creation). Latency budgets anchor here, so any queueing
    /// between parse and handler execution is charged against the
    /// request's deadline rather than silently excluded from it.
    pub arrival: Instant,
}

impl Request {
    /// Creates a POST request.
    pub fn post(path: &str, body: impl Into<Bytes>) -> Request {
        Request {
            method: Method::Post,
            path: path.to_string(),
            headers: BTreeMap::new(),
            body: body.into(),
            arrival: Instant::now(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, key: &str, value: impl Into<String>) -> Request {
        self.headers.insert(key.to_ascii_lowercase(), value.into());
        self
    }

    /// Creates a GET request.
    pub fn get(path: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            headers: BTreeMap::new(),
            body: Bytes::new(),
            arrival: Instant::now(),
        }
    }

    /// Serialises onto the wire.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(128 + self.body.len());
        buf.extend_from_slice(self.method.as_str().as_bytes());
        buf.extend_from_slice(b" ");
        buf.extend_from_slice(self.path.as_bytes());
        buf.extend_from_slice(b" HTTP/1.1\r\n");
        for (k, v) in &self.headers {
            buf.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        buf.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
        buf.freeze()
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, 500, 503...).
    pub status: u16,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// A 200 response with a body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response {
            status: 200,
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    /// An error response with a status code.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Bytes::copy_from_slice(message.as_bytes()),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, key: &str, value: String) -> Response {
        self.headers.insert(key.to_ascii_lowercase(), value);
        self
    }

    /// Serialises onto the wire.
    pub fn encode(&self) -> Bytes {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let mut buf = BytesMut::with_capacity(128 + self.body.len());
        buf.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, reason).as_bytes());
        for (k, v) in &self.headers {
            buf.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        buf.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
        buf.freeze()
    }
}

/// Errors from parsing HTTP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The buffer does not yet hold a complete message.
    Incomplete,
    /// The message is malformed.
    Malformed(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Incomplete => write!(f, "incomplete message"),
            HttpError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Upper bound on a message head (request or status line plus headers,
/// terminator included). Without it a peer dripping a head that never
/// ends would be buffered — and rescanned on every read — up to the
/// connection-level cap, on a server whose point is tens of thousands
/// of connections.
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// Offset just past the head's `\r\n\r\n`, which must fall within the
/// first [`MAX_HEAD_BYTES`].
fn find_header_end(buf: &[u8]) -> Result<usize, HttpError> {
    let head = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    match head.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(p) => Ok(p + 4),
        None if buf.len() >= MAX_HEAD_BYTES => Err(HttpError::Malformed("head too large")),
        None => Err(HttpError::Incomplete),
    }
}

fn parse_headers(block: &str) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    for line in block.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    Ok(headers)
}

/// Upper bound on accepted message bodies. Recommendation requests are a
/// few kilobytes; anything larger is hostile or broken, and an unchecked
/// value would let `header_end + body_len` overflow and panic the worker.
pub const MAX_BODY_BYTES: usize = 1 << 20;

fn content_length(headers: &BTreeMap<String, String>) -> Result<usize, HttpError> {
    match headers.get("content-length") {
        None => Ok(0),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if n > MAX_BODY_BYTES {
                return Err(HttpError::Malformed("body too large"));
            }
            Ok(n)
        }
    }
}

/// Attempts to parse one request from the front of `buf`, consuming it on
/// success. Returns `Err(Incomplete)` when more bytes are needed.
pub fn parse_request(buf: &mut BytesMut) -> Result<Request, HttpError> {
    let header_end = find_header_end(buf)?;
    let head = std::str::from_utf8(&buf[..header_end - 4])
        .map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut lines = head.splitn(2, "\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = Method::parse(parts.next().ok_or(HttpError::Malformed("no method"))?)
        .ok_or(HttpError::Malformed("unsupported method"))?;
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("no path"))?
        .to_string();
    let headers = parse_headers(lines.next().unwrap_or(""))?;
    let body_len = content_length(&headers)?;
    if buf.len() < header_end + body_len {
        return Err(HttpError::Incomplete);
    }
    let _head = buf.split_to(header_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Request {
        method,
        path,
        headers,
        body,
        arrival: Instant::now(),
    })
}

/// Attempts to parse one response from the front of `buf`, consuming it on
/// success.
pub fn parse_response(buf: &mut BytesMut) -> Result<Response, HttpError> {
    let header_end = find_header_end(buf)?;
    let head = std::str::from_utf8(&buf[..header_end - 4])
        .map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut lines = head.splitn(2, "\r\n");
    let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = status_line.split_whitespace();
    let _version = parts.next().ok_or(HttpError::Malformed("no version"))?;
    let status: u16 = parts
        .next()
        .ok_or(HttpError::Malformed("no status"))?
        .parse()
        .map_err(|_| HttpError::Malformed("bad status"))?;
    let headers = parse_headers(lines.next().unwrap_or(""))?;
    let body_len = content_length(&headers)?;
    if buf.len() < header_end + body_len {
        return Err(HttpError::Incomplete);
    }
    let _head = buf.split_to(header_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Encodes a session as a request body: comma-separated item ids.
pub fn encode_session(items: &[u32]) -> String {
    items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Decodes a session request body.
pub fn decode_session(body: &[u8]) -> Result<Vec<u32>, HttpError> {
    let s = std::str::from_utf8(body).map_err(|_| HttpError::Malformed("non-utf8 body"))?;
    if s.trim().is_empty() {
        return Ok(Vec::new());
    }
    s.trim()
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad item id"))
        })
        .collect()
}

/// Encodes recommendations as a response body: `id:score` pairs.
pub fn encode_recommendations(items: &[u32], scores: &[f32]) -> String {
    items
        .iter()
        .zip(scores)
        .map(|(i, s)| format!("{i}:{s}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Decodes a recommendation response body (`id:score,...`) back into
/// parallel id/score vectors — the inverse of [`encode_recommendations`].
/// Scores round-trip bit-exactly: the encoder prints f32s with Rust's
/// shortest-round-trip `Display`, which `parse::<f32>` recovers exactly,
/// so the scatter/gather router can merge shard replies without losing
/// the bit-identity contract.
pub fn decode_recommendations(body: &[u8]) -> Result<(Vec<u32>, Vec<f32>), HttpError> {
    let s = std::str::from_utf8(body).map_err(|_| HttpError::Malformed("non-utf8 body"))?;
    let mut ids = Vec::new();
    let mut scores = Vec::new();
    if s.trim().is_empty() {
        return Ok((ids, scores));
    }
    for pair in s.trim().split(',') {
        let (id, score) = pair
            .split_once(':')
            .ok_or(HttpError::Malformed("pair without colon"))?;
        ids.push(
            id.trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad item id"))?,
        );
        scores.push(
            score
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad score"))?,
        );
    }
    Ok((ids, scores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::post("/predictions/gru4rec", "1,2,3");
        let mut buf = BytesMut::from(&req.encode()[..]);
        let parsed = parse_request(&mut buf).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/predictions/gru4rec");
        assert_eq!(&parsed.body[..], b"1,2,3");
        assert!(buf.is_empty());
    }

    #[test]
    fn response_roundtrip_with_headers() {
        let resp = Response::ok("5:0.9").with_header("X-Inference-Duration-Micros", "42".into());
        let mut buf = BytesMut::from(&resp.encode()[..]);
        let parsed = parse_response(&mut buf).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(
            parsed
                .headers
                .get("x-inference-duration-micros")
                .map(String::as_str),
            Some("42")
        );
        assert_eq!(&parsed.body[..], b"5:0.9");
    }

    #[test]
    fn incomplete_messages_wait_for_more_bytes() {
        let req = Request::post("/p", "abcdef");
        let encoded = req.encode();
        for cut in [3usize, 10, encoded.len() - 1] {
            let mut buf = BytesMut::from(&encoded[..cut]);
            assert!(matches!(
                parse_request(&mut buf),
                Err(HttpError::Incomplete)
            ));
        }
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let a = Request::post("/a", "1").encode();
        let b = Request::post("/b", "22").encode();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        let first = parse_request(&mut buf).unwrap();
        let second = parse_request(&mut buf).unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(second.path, "/b");
        assert!(buf.is_empty());
    }

    /// Parses every complete request at the front of `buf`, reduced to
    /// what the wire carries (`arrival` is the parser's own stamp).
    type Parsed = (Method, String, BTreeMap<String, String>, Vec<u8>);
    fn drain(buf: &mut BytesMut, into: &mut Vec<Parsed>) -> Result<(), HttpError> {
        loop {
            match parse_request(buf) {
                Ok(r) => into.push((r.method, r.path, r.headers, r.body.to_vec())),
                Err(HttpError::Incomplete) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    proptest::proptest! {
        /// However the network slices a pipelined byte stream, the
        /// incremental parser yields the request sequence one write
        /// would have — bodies that contain `\r\n\r\n` included.
        #[test]
        fn any_chunking_of_a_pipelined_stream_parses_identically(
            bodies in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
                1..6,
            ),
            cuts in proptest::collection::vec(1usize..40, 1..32),
        ) {
            let mut wire = Vec::new();
            for (i, body) in bodies.iter().enumerate() {
                let mut body = body.clone();
                if i % 2 == 1 {
                    body.extend_from_slice(b"\r\n\r\n");
                }
                let req = Request::post(&format!("/p{i}"), body)
                    .with_header("x-request-id", format!("r{i}"));
                wire.extend_from_slice(&req.encode());
                if i % 3 == 2 {
                    wire.extend_from_slice(&Request::get("/ping").encode());
                }
            }
            let mut whole = Vec::new();
            drain(&mut BytesMut::from(&wire[..]), &mut whole).unwrap();
            proptest::prop_assert!(whole.len() >= bodies.len());

            let (mut buf, mut chunked) = (BytesMut::new(), Vec::new());
            let mut rest = &wire[..];
            for cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at((*cut).min(rest.len()));
                buf.extend_from_slice(now);
                rest = later;
                drain(&mut buf, &mut chunked).unwrap();
            }
            proptest::prop_assert!(buf.is_empty(), "bytes left unparsed");
            proptest::prop_assert_eq!(chunked, whole);
        }
    }

    #[test]
    fn heads_without_a_terminator_are_rejected_at_the_cap() {
        let mut head = b"POST /p HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES - 1, b'a');
        let mut buf = BytesMut::from(&head[..]);
        assert_eq!(parse_request(&mut buf).unwrap_err(), HttpError::Incomplete);
        buf.extend_from_slice(b"a");
        assert_eq!(
            parse_request(&mut buf).unwrap_err(),
            HttpError::Malformed("head too large")
        );
        assert_eq!(
            parse_response(&mut buf).unwrap_err(),
            HttpError::Malformed("head too large")
        );
        // A head that ends exactly at the cap is still a request, and
        // its body does not count against the head.
        let mut head = b"POST /p HTTP/1.1\r\ncontent-length: 3\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES - 4, b'a');
        head.extend_from_slice(b"\r\n\r\nxyz");
        let parsed = parse_request(&mut BytesMut::from(&head[..])).unwrap();
        assert_eq!(&parsed.body[..], b"xyz");
    }

    #[test]
    fn malformed_messages_are_rejected() {
        let mut buf = BytesMut::from(&b"NOTAMETHOD / HTTP/1.1\r\n\r\n"[..]);
        assert!(matches!(
            parse_request(&mut buf),
            Err(HttpError::Malformed(_))
        ));
        let mut buf = BytesMut::from(&b"HTTP/1.1 abc OK\r\n\r\n"[..]);
        assert!(matches!(
            parse_response(&mut buf),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn session_body_roundtrip() {
        let items = vec![1u32, 42, 16_777_999];
        let body = encode_session(&items);
        assert_eq!(decode_session(body.as_bytes()).unwrap(), items);
        assert_eq!(decode_session(b"").unwrap(), Vec::<u32>::new());
        assert!(decode_session(b"1,x,3").is_err());
    }

    #[test]
    fn recommendation_body_format() {
        let body = encode_recommendations(&[7, 9], &[0.5, 0.25]);
        assert_eq!(body, "7:0.5,9:0.25");
    }

    #[test]
    fn recommendation_body_roundtrips_bit_exactly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let ids: Vec<u32> = (0..50).map(|_| rng.gen()).collect();
        let scores: Vec<f32> = (0..50)
            .map(|_| {
                f32::from_bits(rng.gen::<u32>() & 0x7f7f_ffff) * if rng.gen() { 1.0 } else { -1.0 }
            })
            .collect();
        let body = encode_recommendations(&ids, &scores);
        let (rids, rscores) = decode_recommendations(body.as_bytes()).unwrap();
        assert_eq!(rids, ids);
        for (a, b) in rscores.iter().zip(&scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            decode_recommendations(b"").unwrap(),
            (Vec::new(), Vec::new())
        );
        assert!(decode_recommendations(b"7:0.5,9").is_err());
        assert!(decode_recommendations(b"x:0.5").is_err());
        assert!(decode_recommendations(b"7:zz").is_err());
    }
}
