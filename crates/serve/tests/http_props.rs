//! Property tests for the HTTP/1.1 request parser: arbitrary bytes never
//! panic it, and a valid request parses the same however the peer splits
//! it across reads.
//!
//! The parser reads from a [`BufRead`]; here that is a `BufReader` of a
//! scripted peer that hands out its bytes in fixed chunks and can report
//! a read timeout, the way a socket with a read timeout does.

use std::io::{BufReader, ErrorKind, Read};

use ds_serve::http::{read_request, HttpError, ReadOutcome, MAX_LINE};
use proptest::prelude::*;

/// Body cap the properties run against.
const CAP: usize = 256;

/// A peer that delivers `chunks` one per read (a read never spans two
/// chunks); an empty chunk is a read timeout.
struct ScriptedPeer {
    chunks: Vec<Vec<u8>>,
    next: usize,
    offset: usize,
}

impl ScriptedPeer {
    fn new(chunks: Vec<Vec<u8>>) -> ScriptedPeer {
        ScriptedPeer {
            chunks,
            next: 0,
            offset: 0,
        }
    }
}

impl Read for ScriptedPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.chunks.get(self.next) else {
            return Ok(0);
        };
        if chunk.is_empty() {
            self.next += 1;
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(chunk.len() - self.offset);
        buf[..n].copy_from_slice(&chunk[self.offset..self.offset + n]);
        self.offset += n;
        if self.offset == chunk.len() {
            self.next += 1;
            self.offset = 0;
        }
        Ok(n)
    }
}

/// Cut `bytes` at the given points (taken modulo its length).
fn split_at(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = cuts
        .iter()
        .map(|c| c % (bytes.len() + 1))
        .chain([0, bytes.len()])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| bytes[w[0]..w[1]].to_vec())
        .collect()
}

fn parse(chunks: Vec<Vec<u8>>, buffer: usize) -> Result<ReadOutcome, HttpError> {
    read_request(
        &mut BufReader::with_capacity(buffer, ScriptedPeer::new(chunks)),
        CAP,
    )
}

/// A well-formed request: method, path, extra headers, a declared
/// `Content-Length` (possibly over [`CAP`]) and, when within the cap, a
/// body of exactly that length.
#[derive(Debug, Clone)]
struct ValidRequest {
    method: &'static str,
    path: String,
    headers: Vec<(&'static str, String)>,
    length: usize,
    body: Vec<u8>,
}

impl ValidRequest {
    fn bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.path).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.length).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// `Connection` headers apply in order; HTTP/1.1 keeps alive by
    /// default.
    fn keep_alive(&self) -> bool {
        self.headers
            .iter()
            .filter(|(name, _)| name.eq_ignore_ascii_case("connection"))
            .fold(true, |keep, (_, value)| match value.as_str() {
                "close" => false,
                "keep-alive" => true,
                _ => keep,
            })
    }
}

fn valid_request() -> impl Strategy<Value = ValidRequest> {
    let header = (
        prop::sample::select(vec![
            "Host",
            "Accept",
            "X-Meter",
            "Connection",
            "connection",
        ]),
        prop::sample::select(vec!["close", "keep-alive", "localhost", "*/*", "m-17"]),
    )
        .prop_map(|(name, value)| (name, value.to_string()));
    (
        prop::sample::select(vec!["GET", "POST", "PUT"]),
        "/[a-z0-9/_-]{0,40}",
        prop::collection::vec(header, 0..6),
        prop_oneof![3 => (0..=CAP).boxed(), 1 => (CAP + 1..4 * CAP).boxed()],
        0u8..=255,
    )
        .prop_map(|(method, path, headers, length, fill)| ValidRequest {
            method,
            path,
            headers,
            length,
            body: if length <= CAP {
                (0..length).map(|i| fill.wrapping_add(i as u8)).collect()
            } else {
                Vec::new()
            },
        })
}

/// Bytes that reach the header and body parsers often: a plausible
/// request line and header names, with arbitrary bytes mixed in.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let literal = |bytes: &[u8]| Just(bytes.to_vec()).boxed();
    let piece = prop_oneof![
        literal(b"POST /api/v1/detect HTTP/1.1\r\n"),
        literal(b"GET / HTTP/1.0\r\n"),
        literal(b"Content-Length: "),
        literal(b"Transfer-Encoding: chunked\r\n"),
        literal(b"Connection: close\r\n"),
        literal(b"\r\n"),
        literal(b":"),
        "[0-9]{1,25}".prop_map(String::into_bytes).boxed(),
        "[0-9]{1,4}"
            .prop_map(|n| format!("Content-Length: {n}\r\n").into_bytes())
            .boxed(),
        prop::collection::vec(0u8..=255, 0..64).boxed(),
    ];
    prop_oneof![
        prop::collection::vec(0u8..=255, 0..512).boxed(),
        prop::collection::vec(piece, 0..24)
            .prop_map(|pieces| pieces.concat())
            .boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the peer sends, the parser returns a typed outcome — it
    /// never panics and never hands back a body past the cap. With an
    /// in-memory peer the only I/O error is the peer ending mid-request.
    #[test]
    fn arbitrary_bytes_yield_a_typed_outcome(
        bytes in hostile_bytes(),
        cuts in prop::collection::vec(0usize..100_000, 0..8),
        buffer in 1usize..64,
    ) {
        match parse(split_at(&bytes, &cuts), buffer) {
            Ok(ReadOutcome::Request(request)) => {
                prop_assert!(request.body.len() <= CAP);
                prop_assert!(request.method.len() + request.path.len() <= MAX_LINE);
            }
            Ok(ReadOutcome::Closed) => prop_assert!(bytes.is_empty()),
            Ok(ReadOutcome::Idle) => panic!("Idle without a read timeout"),
            Err(HttpError::Malformed(_)) => {}
            Err(HttpError::BodyTooLarge { limit }) => prop_assert_eq!(limit, CAP),
            Err(HttpError::Io(e)) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        }
    }

    /// A valid request parses to itself however it is split across reads
    /// and whatever the read buffer size, and a declared body past the
    /// cap is refused with `BodyTooLarge` before any of it is read.
    #[test]
    fn split_valid_requests_parse_or_refuse_by_declared_length(
        request in valid_request(),
        cuts in prop::collection::vec(0usize..100_000, 0..12),
        buffer in 1usize..64,
    ) {
        let outcome = parse(split_at(&request.bytes(), &cuts), buffer);
        if request.length > CAP {
            prop_assert!(
                matches!(outcome, Err(HttpError::BodyTooLarge { limit: CAP })),
                "declared {} > cap {}: {:?}", request.length, CAP, outcome
            );
        } else {
            match outcome {
                Ok(ReadOutcome::Request(parsed)) => {
                    prop_assert_eq!(parsed.method.as_str(), request.method);
                    prop_assert_eq!(&parsed.path, &request.path);
                    prop_assert_eq!(&parsed.body, &request.body);
                    prop_assert_eq!(parsed.keep_alive, request.keep_alive());
                }
                other => panic!("valid request failed: {other:?}"),
            }
        }
    }

    /// A read timeout before the first byte is `Idle`, and the request
    /// behind it then parses normally on the next call.
    #[test]
    fn timeout_before_the_first_byte_is_idle(request in valid_request(), buffer in 1usize..64) {
        if request.length > CAP {
            return Ok(());
        }
        let mut reader = BufReader::with_capacity(
            buffer,
            ScriptedPeer::new(vec![Vec::new(), request.bytes()]),
        );
        prop_assert!(matches!(read_request(&mut reader, CAP), Ok(ReadOutcome::Idle)));
        prop_assert!(matches!(read_request(&mut reader, CAP), Ok(ReadOutcome::Request(_))));
        prop_assert!(matches!(read_request(&mut reader, CAP), Ok(ReadOutcome::Closed)));
    }
}
