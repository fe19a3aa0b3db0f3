//! Newline-delimited-JSON TCP service over one or more [`Engine`]s.
//!
//! # Protocol
//!
//! One request per line, one response line per request, on a plain TCP
//! connection. Requests are flat JSON objects with string values:
//!
//! * `{"cmd":"optimize","id":"bus7","net":"driver 300 2e-11\n..."}` —
//!   optimize one net (the `.net` text with newlines escaped). `cmd`
//!   may be omitted when `net` is present; `id` defaults to `"net"`.
//!   The response is the pipeline's per-net JSONL record followed by its
//!   envelope: `"cache":"hit"|"miss"`, `"worker":<index>` and the run's
//!   telemetry (`wall_ms` and the DP counters).
//! * `{"cmd":"stats"}` — the engine's [`MetricsSnapshot`] as JSON; when
//!   serving runs across several per-shard engines the snapshot is the
//!   aggregated fleet view plus a per-shard breakdown.
//! * `{"cmd":"shutdown"}` — acknowledge with `{"ok":"shutdown"}` and
//!   stop the accept loop. Shutdown *drains*: every engine stops
//!   admitting new work first, in-flight requests finish and their
//!   responses are written, and requests that arrive during the drain
//!   get an explicit `{"error":"shutting_down"}` instead of a silently
//!   dropped line.
//!
//! A request line may be wrapped in a length+CRC frame
//! (`!F <len:8hex> <crc64:16hex> <json>`), a prefix no plain request can
//! start with; the response mirrors the framing, a damaged or truncated
//! frame gets a typed `{"error":"bad_frame","detail":...}`, and plain
//! lines keep working untouched on the same connection (per-line
//! negotiation, so old clients never see a frame).
//!
//! Malformed request lines get `{"error":"..."}` responses; a net that
//! fails to *parse* is not a protocol error — it produces a regular
//! `parse_error` record, so batch drivers see the same taxonomy the CLI
//! emits. Requests refused by admission control get
//! `{"error":"overloaded"}` / `{"error":"deadline_exceeded"}` responses
//! (see [`Rejection`]).
//!
//! # Front end
//!
//! [`serve_sharded`](crate::serve_sharded) serves this protocol on a
//! readiness-driven event loop (`epoll` via `buffopt-netpoll`). One
//! acceptor hands connections round-robin to N reactor shards; each
//! shard owns its connections' state machines and its own [`Engine`].
//! A shard answers protocol errors, `stats`, `shutdown`, cache hits and
//! admission refusals on the spot; an admitted miss goes straight to its
//! engine's queue, and the worker's completion posts the response back
//! to the shard. Optimize requests route to engines by a rendezvous hash
//! of the net digest so cache and memo state shard cleanly. Client
//! disconnects surface as readiness (`EPOLLRDHUP`) and trip the
//! in-flight request's [`CancelToken`] — no polling monitor thread.
//!
//! # Hardening
//!
//! Connections are bounded in every dimension ([`ServeOptions`]): a
//! request line longer than `max_line_bytes` gets one structured error
//! response and the connection is closed — the cap is enforced
//! *incrementally*, so a half-written oversized line is refused as soon
//! as its bytes exceed the cap, newline or not; a connection that sends
//! no complete request within `read_timeout` is closed the same way
//! (trickling single bytes does not reset the clock, so a slow-loris
//! client cannot pin a shard); and with `max_conns` set, accepts beyond
//! the ceiling get one typed `{"error":"overloaded"}` refusal line and
//! are counted in `connections.rejected_max_conns`. A panic while
//! serving a request — in the injected [`NetDecoder`] or anywhere else
//! on the shard — is contained to one `{"error":...}` response; the
//! connection and the server survive.
//!
//! The service does not link the text-format parser (that would make the
//! crate graph cyclic); callers inject a [`NetDecoder`] closure, which
//! the CLI builds from `buffopt_netlist::parse`.
//!
//! [`CancelToken`]: buffopt::CancelToken
//! [`Engine`]: crate::Engine
//! [`MetricsSnapshot`]: crate::metrics::MetricsSnapshot
//! [`Rejection`]: crate::Rejection

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use buffopt::Solution;
use buffopt_pipeline::{push_json_str, NetInput, NetOutcome};

use crate::engine::Served;

/// Turns a request's `(id, net text)` into a [`NetInput`] — parsed, or a
/// `Failed` record carrying the parser's message.
pub type NetDecoder = Arc<dyn Fn(&str, &str) -> NetInput + Send + Sync>;

/// Per-connection hardening knobs for
/// [`serve_sharded`](crate::serve_sharded).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Close a connection that sends no complete request for this long;
    /// `None` waits forever (not recommended outside tests). The clock
    /// arms when the connection starts waiting for a request and is NOT
    /// reset by partial bytes, so byte-trickling clients cannot evade it.
    pub read_timeout: Option<Duration>,
    /// Maximum accepted request-line length in bytes; longer lines get
    /// one structured error response and the connection is closed. The
    /// cap is enforced incrementally as bytes arrive, before any newline.
    pub max_line_bytes: usize,
    /// Maximum concurrently open client connections; `0` means
    /// unlimited. Accepts beyond the ceiling get one typed
    /// `{"error":"overloaded","detail":"max_conns"}` line and are closed
    /// immediately, counted in `connections.rejected_max_conns`.
    pub max_conns: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(120)),
            max_line_bytes: 1 << 20,
            max_conns: 0,
        }
    }
}

/// The typed response for a frame that failed validation.
pub(crate) fn bad_frame_json(detail: &str) -> String {
    let mut s = String::from("{\"error\":\"bad_frame\",\"detail\":");
    push_json_str(&mut s, detail);
    s.push('}');
    s
}

/// A parsed, validated request — the protocol's commands.
#[derive(Debug)]
pub(crate) enum Command {
    /// Optimize one net.
    Optimize {
        /// The request's `id` field (default `"net"`).
        id: String,
        /// The `.net` text.
        net: String,
    },
    /// Report the metrics snapshot.
    Stats,
    /// Acknowledge and drain the server.
    Shutdown,
}

/// Parses and validates one request line into a [`Command`], or the
/// exact error-response line to send back.
pub(crate) fn classify_request(line: &str) -> Result<Command, String> {
    let fields = match parse_request(line) {
        Ok(f) => f,
        Err(e) => return Err(error_json(&format!("bad request: {e}"))),
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    match get("cmd").unwrap_or("optimize") {
        "optimize" => match get("net") {
            None => Err(error_json("optimize request needs a \"net\" field")),
            Some(net_text) => Ok(Command::Optimize {
                id: get("id").unwrap_or("net").to_string(),
                net: net_text.to_string(),
            }),
        },
        "stats" => Ok(Command::Stats),
        "shutdown" => Ok(Command::Shutdown),
        other => Err(error_json(&format!("unknown cmd {other:?}"))),
    }
}

/// The response line for a served request: the answer record, then its
/// envelope — serving provenance (`cache`, `worker`) and the run's
/// telemetry ([`push_telemetry`]).
pub(crate) fn served_json(served: &Served) -> String {
    let mut json = served.outcome.to_json();
    let closed = json.pop();
    debug_assert_eq!(closed, Some('}'));
    let _ = write!(
        json,
        ",\"cache\":\"{}\",\"worker\":{}",
        served.cache.as_str(),
        served.worker
    );
    push_telemetry(&mut json, &served.outcome);
    json.push('}');
    json
}

/// Appends the envelope's telemetry keys for `o`: the measured `wall_ms`
/// and the serving DP run's `candidate_peak`, `merge_peak`,
/// `merge_enumerated`, `merge_pruned` and `arena_peak` (0 when no DP
/// rung served the net). A cache hit's `wall_ms` is the hit's own time,
/// from admission to the cache answer; its DP counters replay the
/// computing run's.
pub(crate) fn push_telemetry(out: &mut String, o: &NetOutcome) {
    let stat = |f: fn(&Solution) -> usize| o.solution.as_ref().map_or(0, f);
    let _ = write!(
        out,
        ",\"wall_ms\":{:e},\"candidate_peak\":{},\"merge_peak\":{},\
         \"merge_enumerated\":{},\"merge_pruned\":{},\"arena_peak\":{}",
        o.wall.as_secs_f64() * 1e3,
        stat(|s| s.peak_candidates),
        stat(|s| s.peak_merge_product),
        stat(|s| s.merge_products_enumerated),
        stat(|s| s.merge_products_pruned),
        stat(|s| s.peak_arena_bytes),
    );
}

/// Test-only export of the request-line parser so the fuzz suite can
/// drive it directly; not part of the crate's API.
#[doc(hidden)]
pub fn parse_request_line(line: &str) -> Result<Vec<(String, String)>, String> {
    parse_request(line)
}

pub(crate) fn error_json(msg: &str) -> String {
    let mut s = String::from("{\"error\":");
    push_json_str(&mut s, msg);
    s.push('}');
    s
}

/// Parses one request line: a flat JSON object whose values are strings.
/// Returns the key/value pairs in document order. This is deliberately
/// the whole grammar the protocol needs — nested objects, arrays, and
/// non-string values are rejected with a descriptive error.
fn parse_request(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = line.chars().peekable();
    let mut out = Vec::new();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return finish(chars, out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        if chars.peek() != Some(&'"') {
            return Err(format!("value of {key:?} must be a JSON string"));
        }
        let value = parse_string(&mut chars)?;
        out.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return finish(chars, out),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn finish(
    mut rest: std::iter::Peekable<std::str::Chars<'_>>,
    out: Vec<(String, String)>,
) -> Result<Vec<(String, String)>, String> {
    skip_ws(&mut rest);
    match rest.next() {
        None => Ok(out),
        Some(c) => Err(format!("trailing content after object: {c:?}")),
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000c}'),
                Some('u') => out.push(parse_unicode_escape(chars)?),
                other => return Err(format!("bad escape \\{other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn hex4(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<u32, String> {
    let mut v = 0u32;
    for _ in 0..4 {
        let c = chars.next().ok_or("truncated \\u escape")?;
        v = v * 16
            + c.to_digit(16)
                .ok_or_else(|| format!("bad hex digit {c:?}"))?;
    }
    Ok(v)
}

fn parse_unicode_escape(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<char, String> {
    let hi = hex4(chars)?;
    if (0xD800..0xDC00).contains(&hi) {
        // High surrogate: a \uXXXX low surrogate must follow.
        if chars.next() != Some('\\') || chars.next() != Some('u') {
            return Err("high surrogate without a low surrogate".to_string());
        }
        let lo = hex4(chars)?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(format!("invalid low surrogate {lo:04x}"));
        }
        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(cp).ok_or_else(|| format!("invalid code point {cp:x}"))
    } else {
        char::from_u32(hi).ok_or_else(|| format!("invalid code point {hi:x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_string_objects() {
        let f = parse_request(r#" {"cmd":"stats"} "#).expect("parses");
        assert_eq!(f, vec![("cmd".to_string(), "stats".to_string())]);
        let f = parse_request(r#"{"id":"a","net":"line1\nline2\t\"x\""}"#).expect("parses");
        assert_eq!(f[0], ("id".to_string(), "a".to_string()));
        assert_eq!(f[1].1, "line1\nline2\t\"x\"");
        assert!(parse_request("{}").expect("empty object").is_empty());
    }

    #[test]
    fn unicode_escapes_decode() {
        let f = parse_request(r#"{"k":"µm 😀"}"#).expect("parses");
        assert_eq!(f[0].1, "µm 😀");
    }

    #[test]
    fn rejects_everything_else() {
        for bad in [
            "",
            "stats",
            "[1]",
            r#"{"k":1}"#,
            r#"{"k":["a"]}"#,
            r#"{"k":{"x":"y"}}"#,
            r#"{"k":"v"} trailing"#,
            r#"{"k":"unterminated"#,
            r#"{"k":"\ud800 lonely"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn error_json_escapes() {
        assert_eq!(
            error_json("a \"b\"\nc"),
            r#"{"error":"a \"b\"\nc"}"#.to_string()
        );
    }

    #[test]
    fn classify_preserves_the_error_taxonomy() {
        assert!(matches!(
            classify_request(r#"{"cmd":"stats"}"#),
            Ok(Command::Stats)
        ));
        assert!(matches!(
            classify_request(r#"{"cmd":"shutdown"}"#),
            Ok(Command::Shutdown)
        ));
        match classify_request(r#"{"net":"x","id":"a"}"#) {
            Ok(Command::Optimize { id, net }) => {
                assert_eq!(id, "a");
                assert_eq!(net, "x");
            }
            _ => panic!("implicit optimize"),
        }
        assert_eq!(
            classify_request(r#"{"cmd":"optimize"}"#).unwrap_err(),
            "{\"error\":\"optimize request needs a \\\"net\\\" field\"}"
        );
        assert_eq!(
            classify_request(r#"{"cmd":"dance"}"#).unwrap_err(),
            "{\"error\":\"unknown cmd \\\"dance\\\"\"}"
        );
        assert!(classify_request("not json")
            .unwrap_err()
            .starts_with("{\"error\":\"bad request:"));
    }
}
