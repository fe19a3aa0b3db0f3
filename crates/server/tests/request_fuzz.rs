//! Fuzzing the service's flat-string JSON request parser and the
//! one-line-response protocol contract.
//!
//! Three parser generators — raw byte soup, escape soup (backslash/quote/
//! brace/surrogate fragments), and truncation of valid requests — assert
//! the parser never panics, plus a serialize→parse round-trip for
//! arbitrary key/value pairs. A fourth, TCP-level property drives random
//! request lines at a live server and asserts the protocol invariant:
//! every non-empty request line gets exactly one response line, whatever
//! the bytes were.

use buffopt_server::service::parse_request_line;
use proptest::prelude::*;

/// Serializes a string the way the protocol's own responses do.
fn escape_json(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0..256)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        // Whatever comes back, it came back — no panic, no hang.
        let _ = parse_request_line(&line);
    }
}

/// A fragment alphabet tuned to hurt an escape-handling parser: lone
/// backslashes, quote boundaries, surrogate halves, braces, and colons.
fn arb_fragment() -> impl Strategy<Value = String> {
    (0u8..12).prop_map(|i| {
        match i {
            0 => "\\",
            1 => "\"",
            2 => "\\\"",
            3 => "\\u",
            4 => "\\ud800",
            5 => "\\udc00",
            6 => "\\u0041",
            7 => "{",
            8 => "}",
            9 => ":",
            10 => ",",
            _ => "key",
        }
        .to_string()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escape_soup_never_panics(frags in prop::collection::vec(arb_fragment(), 0..32)) {
        let line = frags.concat();
        let _ = parse_request_line(&line);
    }
}

/// One arbitrary key/value pair over a compact but spicy char alphabet
/// (quotes, backslashes, control chars, astral-plane text).
fn arb_pair() -> impl Strategy<Value = (String, String)> {
    let arb_text = || {
        prop::collection::vec(0u8..10, 0..8).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| match i {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\t',
                    4 => '\u{0007}',
                    5 => 'µ',
                    6 => '😀',
                    7 => ' ',
                    8 => 'a',
                    _ => 'Z',
                })
                .collect::<String>()
        })
    };
    (arb_text(), arb_text())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A request serialized with the protocol's own escaping parses back
    /// to exactly the pairs that went in.
    #[test]
    fn serialize_parse_round_trip(pairs in prop::collection::vec(arb_pair(), 0..6)) {
        let mut line = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        line.push('}');
        let parsed = parse_request_line(&line);
        prop_assert_eq!(parsed.as_deref(), Ok(&pairs[..]), "line was {:?}", line);
    }

    /// Chopping a valid request anywhere never panics; the truncation is
    /// either rejected or (only when the cut removed zero-or-whole pairs
    /// plus the closing brace) parses to a prefix.
    #[test]
    fn truncations_never_panic(
        pairs in prop::collection::vec(arb_pair(), 1..4),
        cut in 0usize..200,
    ) {
        let mut line = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        line.push('}');
        let chars: Vec<char> = line.chars().collect();
        let cut = cut % (chars.len() + 1);
        let truncated: String = chars[..cut].iter().collect();
        let _ = parse_request_line(&truncated);
    }
}

mod protocol {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    use buffopt_pipeline::{NetInput, PipelineConfig};
    use buffopt_server::{serve_sharded, Engine, EngineOptions, NetDecoder, ServeOptions};
    use proptest::prelude::*;

    fn decoder() -> NetDecoder {
        Arc::new(
            |name: &str, body: &str| match buffopt_netlist::parse(body) {
                Ok(net) => NetInput::Parsed {
                    name: name.to_string(),
                    tree: net.tree,
                    scenario: net.scenario,
                },
                Err(e) => NetInput::Failed {
                    name: name.to_string(),
                    error: e.to_string(),
                },
            },
        )
    }

    /// One random request line: printable soup with protocol punctuation
    /// mixed in, newlines excluded by construction.
    fn arb_request_line() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..14, 1..64).prop_map(|picks| {
            let line: String = picks
                .into_iter()
                .map(|i| match i {
                    0 => '{',
                    1 => '}',
                    2 => '"',
                    3 => '\\',
                    4 => ':',
                    5 => ',',
                    6 => 'c',
                    7 => 'm',
                    8 => 'd',
                    9 => 'n',
                    10 => 'e',
                    11 => 't',
                    12 => ' ',
                    _ => '1',
                })
                .collect();
            // `shutdown` cannot be assembled from this alphabet, but keep
            // the guard explicit in case the alphabet grows.
            debug_assert!(!line.contains("shutdown"));
            if line.trim().is_empty() {
                "x".to_string()
            } else {
                line
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Protocol contract under fire: every non-empty request line —
        /// garbage or not — gets exactly one response line, and the
        /// connection stays usable for the next request.
        #[test]
        fn every_request_line_gets_exactly_one_response_line(
            lines in prop::collection::vec(arb_request_line(), 1..8),
        ) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let engine = Arc::new(Engine::new(
                PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
                EngineOptions { jobs: 1, ..EngineOptions::default() },
            ));
            let server = std::thread::spawn(move || {
                serve_sharded(listener, vec![engine], decoder(), ServeOptions::default())
                    .expect("serve runs");
            });

            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            for line in &lines {
                (&stream)
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("send");
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("response");
                prop_assert!(
                    resp.ends_with('\n'),
                    "request {:?} got no complete response (connection died?)",
                    line
                );
                prop_assert!(
                    !resp.trim_end_matches('\n').contains('\n'),
                    "response is one line"
                );
                prop_assert!(
                    resp.trim().starts_with('{') && resp.trim().ends_with('}'),
                    "response {:?} is a JSON object",
                    resp
                );
            }
            (&stream)
                .write_all(b"{\"cmd\":\"shutdown\"}\n")
                .expect("send shutdown");
            server.join().expect("accept loop exits");
        }
    }
}
