//! Reactor front-end hardening: slow-loris starvation, half-written
//! oversized lines, the max-conns ceiling, multi-shard routing and
//! stats aggregation, request deadlines over a live connection, and the
//! golden protocol transcript.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buffopt::DpWorkspace;
use buffopt_buffers::catalog;
use buffopt_integrity::{decode_frame, encode_frame};
use buffopt_netlist::{parse, write as write_net, ParsedNet};
use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
use buffopt_pipeline::{optimize_input_with, NetInput, PipelineConfig};
use buffopt_server::{serve_sharded, Engine, EngineOptions, NetDecoder, ServeOptions};
use buffopt_workload::{adversarial, WorkloadConfig};

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    }
}

fn decoder() -> NetDecoder {
    Arc::new(|name: &str, body: &str| match parse(body) {
        Ok(net) => NetInput::Parsed {
            name: name.to_string(),
            tree: net.tree,
            scenario: net.scenario,
        },
        Err(e) => NetInput::Failed {
            name: name.to_string(),
            error: e.to_string(),
        },
    })
}

fn healthy_net_text() -> String {
    let (tree, scenario) = adversarial::valid_net(&WorkloadConfig::default());
    let node_names = (0..tree.len()).map(|_| None).collect();
    write_net(&ParsedNet {
        name: None,
        tree,
        scenario,
        node_names,
    })
}

fn net_request(id: &str, text: &str) -> String {
    let escaped = text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{\"id\":\"{id}\",\"net\":\"{escaped}\"}}")
}

fn healthy_net_request(id: &str) -> String {
    net_request(id, &healthy_net_text())
}

fn new_engine(jobs: usize) -> Arc<Engine> {
    // A live Engine hushes the process-wide panic hook (so a panicking
    // net in a parallel batch doesn't spray backtraces); reinstall a
    // printing hook afterwards or assertion failures in these tests
    // vanish silently.
    let engine = Arc::new(Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs,
            // Deep enough that the burst tests here exercise the
            // reactor, not the engine's admission shedding (which has
            // its own chaos coverage).
            queue_depth: 32,
            ..EngineOptions::default()
        },
    ));
    std::panic::set_hook(Box::new(|info| eprintln!("test panic: {info}")));
    engine
}

fn start_reactor(
    engines: Vec<Arc<Engine>>,
    opts: ServeOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_sharded(listener, engines, decoder(), opts).expect("serve runs");
    });
    (addr, handle)
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), request: &str) -> String {
    conn.1
        .write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    conn.0.read_line(&mut line).expect("response");
    line.trim_end().to_string()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn slow_loris_cannot_evade_the_read_timeout_or_pin_the_shard() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![Arc::clone(&engine)],
        ServeOptions {
            read_timeout: Some(Duration::from_millis(300)),
            ..ServeOptions::default()
        },
    );

    // The loris trickles one byte at a time, always "active" but never
    // completing a line. The deadline arms when the connection starts
    // waiting and is NOT refreshed by partial bytes, so the trickle
    // cannot push it out.
    let loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let started = Instant::now();
    let writer = {
        let mut w = loris.try_clone().expect("clone");
        std::thread::spawn(move || {
            for _ in 0..100 {
                if w.write_all(b"x").is_err() {
                    return; // server already cut us off
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };

    // Meanwhile the same single shard keeps serving a healthy client:
    // the loris holds no thread, only a connection slot.
    let mut healthy = connect(addr);
    let served = roundtrip(&mut healthy, &healthy_net_request("alive"));
    assert!(
        served.contains("\"outcome\":\"optimized\""),
        "healthy client starved by the loris: {served}"
    );

    let mut line = String::new();
    BufReader::new(loris.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("loris gets a response");
    assert!(
        line.contains("read timed out; closing connection"),
        "loris got: {line}"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "timeout fired on schedule, not after the trickle ended: {elapsed:?}"
    );
    writer.join().expect("writer thread");
    wait_for("the timeout to be counted", || {
        engine.metrics_snapshot().conn_errors >= 1
    });

    // The healthy connection has been idle past the timeout too by now;
    // shut down from a fresh one.
    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn half_written_oversized_line_gets_the_typed_error_not_a_hang() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![engine],
        ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        },
    );

    // 500 bytes, no terminating newline: the cap must trip on the bytes
    // alone — a client that never finishes its line cannot park an
    // unbounded buffer or wait out the server.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn.write_all(&[b'y'; 500]).expect("send");
    let mut line = String::new();
    BufReader::new(conn.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("typed error");
    assert!(
        line.contains("request line exceeds 128 bytes; closing connection"),
        "got: {line}"
    );
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "connection closed after the error");

    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn max_conns_ceiling_refuses_with_a_typed_line_and_recovers() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![Arc::clone(&engine)],
        ServeOptions {
            max_conns: 2,
            ..ServeOptions::default()
        },
    );

    let mut first = connect(addr);
    let mut second = connect(addr);
    // Prove both slots are held (and force the accepts to happen).
    assert!(roundtrip(&mut first, &healthy_net_request("one")).contains("optimized"));
    assert!(roundtrip(&mut second, &healthy_net_request("two")).contains("optimized"));

    // The third accept is refused with the typed overload line, then EOF.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut line = String::new();
    BufReader::new(refused.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("refusal line");
    assert_eq!(
        line.trim_end(),
        "{\"error\":\"overloaded\",\"detail\":\"max_conns\"}"
    );
    let mut rest = Vec::new();
    refused.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());

    // The refusal is counted and visible from a held connection.
    let stats = roundtrip(&mut first, "{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"rejected_max_conns\":1"), "got: {stats}");

    // Releasing a slot re-opens admission.
    drop(second);
    let mut third = loop {
        let mut c = connect(addr);
        let r = roundtrip(&mut c, "{\"cmd\":\"stats\"}");
        if r.contains("\"rejected_max_conns\":") && !r.starts_with("{\"error\":\"overloaded\"") {
            break c;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let ack = roundtrip(&mut third, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn sharded_serving_routes_consistently_and_aggregates_stats() {
    let engines: Vec<_> = (0..3).map(|_| new_engine(1)).collect();
    let (addr, server) = start_reactor(engines.clone(), ServeOptions::default());

    // Distinct nets from parallel clients: every response must carry its
    // own id, wherever it was routed.
    const CLIENTS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let first = roundtrip(&mut conn, &healthy_net_request(&format!("net{c}")));
                // A repeat of the same net must route to the same engine
                // and hit its cache.
                let again = roundtrip(&mut conn, &healthy_net_request(&format!("net{c}")));
                (first, again)
            })
        })
        .collect();
    let mut total_hits = 0;
    for (c, h) in handles.into_iter().enumerate() {
        let (first, again) = h.join().expect("client");
        assert!(
            first.contains(&format!("\"net\":\"net{c}\""))
                && first.contains("\"outcome\":\"optimized\""),
            "client {c}: {first}"
        );
        assert!(
            again.contains("\"cache\":\"hit\""),
            "repeat of net{c} missed its engine's cache: {again}"
        );
        total_hits += 1;
    }

    // The aggregated snapshot sums the engines and carries a per-shard
    // breakdown with one entry per shard.
    let mut conn = connect(addr);
    let stats = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    let engine_requests: u64 = engines.iter().map(|e| e.metrics_snapshot().requests).sum();
    assert!(
        stats.contains(&format!("\"requests\":{engine_requests}")),
        "aggregate requests: {stats}"
    );
    assert!(
        stats.contains(&format!("\"hits\":{total_hits}")),
        "aggregate cache hits: {stats}"
    );
    for shard in 0..3 {
        assert!(
            stats.contains(&format!("{{\"shard\":{shard},")),
            "missing shard {shard} breakdown: {stats}"
        );
    }

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
    // Shutdown closed admission on every engine, not just the routed one.
    for engine in &engines {
        assert!(engine.is_shutting_down());
    }
}

/// Blanks the volatile envelope fields (`wall_ms` always; `worker` is
/// stable at jobs=1 but normalized anyway) so responses compare bytewise.
fn normalize(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"wall_ms\":", "\"worker\":"] {
        if let Some(start) = out.find(key) {
            let vstart = start + key.len();
            let vend = out[vstart..]
                .find([',', '}'])
                .map(|i| vstart + i)
                .unwrap_or(out.len());
            out.replace_range(vstart..vend, "_");
        }
    }
    out
}

/// Every key path in a JSON document (`a.b`, `list[].c`), sorted and
/// deduplicated: the document's shape without its values.
fn key_paths(json: &str) -> Vec<String> {
    let b = json.as_bytes();
    let mut paths = std::collections::BTreeSet::new();
    // Open containers: (is_object, path of the container itself).
    let mut stack: Vec<(bool, String)> = Vec::new();
    let mut last_key = String::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                while b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let s = &json[start..i];
                let mut j = i + 1;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < b.len() && b[j] == b':' {
                    let parent = stack.last().map(|(_, p)| p.as_str()).unwrap_or("");
                    last_key = if parent.is_empty() {
                        s.to_string()
                    } else {
                        format!("{parent}.{s}")
                    };
                    paths.insert(last_key.clone());
                }
            }
            open @ (b'{' | b'[') => {
                let path = match stack.last() {
                    None => String::new(),
                    Some((true, _)) => last_key.clone(),
                    Some((false, p)) => format!("{p}[]"),
                };
                stack.push((open == b'{', path));
            }
            b'}' | b']' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    paths.into_iter().collect()
}

/// Compares `actual` against a committed fixture line by line, printing
/// the whole actual text on a mismatch so a deliberate protocol change
/// can be re-recorded by hand.
fn assert_matches_fixture(name: &str, expected: &str, actual: &[String]) {
    let expected: Vec<&str> = expected.lines().collect();
    let shown = actual.join("\n");
    assert_eq!(
        expected.len(),
        actual.len(),
        "{name}: line count differs; actual:\n{shown}"
    );
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        assert_eq!(e, a, "{name}: line {i} differs; actual:\n{shown}");
    }
}

/// The protocol's golden transcript: one request per protocol path, the
/// responses' envelopes normalized (`wall_ms`, `worker`) and compared
/// bytewise with
/// `fixtures/protocol_transcript.jsonl`, which was recorded from the
/// front end as it stood before the serving path was rebuilt around
/// completion callbacks. The `stats` response's values vary run to run,
/// so only its key set is pinned (`fixtures/stats_keys.txt`).
#[test]
fn protocol_transcript_matches_the_recorded_bytes() {
    let (addr, server) = start_reactor(
        vec![new_engine(1)],
        ServeOptions {
            max_line_bytes: 4096,
            ..ServeOptions::default()
        },
    );

    let mut conn = connect(addr);
    // Healthy net (then its cache hit), unparsable net, malformed JSON,
    // missing net field, unknown cmd.
    let mut responses = vec![
        normalize(&roundtrip(&mut conn, &healthy_net_request("same"))),
        normalize(&roundtrip(&mut conn, &healthy_net_request("same"))),
        normalize(&roundtrip(
            &mut conn,
            "{\"id\":\"broken\",\"net\":\"tree{\\n\"}",
        )),
        roundtrip(&mut conn, "not json at all"),
        roundtrip(&mut conn, "{\"cmd\":\"optimize\",\"id\":\"x\"}"),
        roundtrip(&mut conn, "{\"cmd\":\"bogus\"}"),
    ];

    // A framed healthy request must come back framed, same payload.
    let framed = encode_frame(healthy_net_request("framed").as_bytes());
    conn.1.write_all(&framed).expect("send frame");
    conn.1.write_all(b"\n").expect("send newline");
    let mut line = Vec::new();
    conn.0
        .read_until(b'\n', &mut line)
        .expect("framed response");
    let payload = decode_frame(line.strip_suffix(b"\n").unwrap_or(&line))
        .expect("well-formed response frame");
    responses.push(normalize(
        std::str::from_utf8(payload).expect("utf8 payload"),
    ));

    let oversize = format!("{{\"id\":\"big\",\"net\":\"{}\"}}", "z".repeat(8192));
    let mut over = connect(addr);
    responses.push(roundtrip(&mut over, &oversize));

    let stats = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    responses.push(roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}"));
    server.join().expect("serve exits");

    assert_matches_fixture(
        "protocol transcript",
        include_str!("fixtures/protocol_transcript.jsonl"),
        &responses,
    );
    assert_matches_fixture(
        "stats key set",
        include_str!("fixtures/stats_keys.txt"),
        &key_paths(&stats),
    );
}

/// The keys a served response appends after the record: serving
/// provenance, then the run's telemetry.
const ENVELOPE_KEYS: [&str; 8] = [
    "cache",
    "worker",
    "wall_ms",
    "candidate_peak",
    "merge_peak",
    "merge_enumerated",
    "merge_pruned",
    "arena_peak",
];

/// `response` with every envelope key and its (number or plain string)
/// value removed.
fn strip_envelope(response: &str) -> String {
    let mut out = response.to_string();
    for key in ENVELOPE_KEYS {
        let pat = format!(",\"{key}\":");
        let start = out
            .find(&pat)
            .unwrap_or_else(|| panic!("no {key} in {response}"));
        let vstart = start + pat.len();
        let end = out[vstart..]
            .find([',', '}'])
            .map_or(out.len(), |i| vstart + i);
        out.replace_range(start..end, "");
    }
    out
}

/// A served response is the pipeline's record plus an envelope: with the
/// envelope keys removed, the miss and the hit are each byte-identical to
/// the record a fresh workspace computes for the same net — a healthy
/// net, one whose timing cannot be met, and one that does not parse.
#[test]
fn responses_are_the_pipeline_record_plus_an_envelope() {
    let (addr, server) = start_reactor(vec![new_engine(1)], ServeOptions::default());
    let mut conn = connect(addr);
    // 20 mm of wire to a sink required 1 ps after the driver switches.
    let late = "driver 400 3e-11\nwire source rx 1600 5e-12 20000 5.04e9\n\
                sink rx 2e-14 1e-12 0.8\n";
    for (id, text, rung) in [
        ("healthy", healthy_net_text(), "\"rung\":\"problem3\""),
        ("late", late.to_string(), "\"rung\":\"problem2\""),
        ("broken", "tree{\n".to_string(), "\"rung\":null"),
    ] {
        let input = decoder()(id, &text);
        let record =
            optimize_input_with(&mut DpWorkspace::new(), &input, &pipeline_config()).to_json();
        assert!(record.contains(rung), "{record}");
        for cache in ["miss", "hit"] {
            let response = roundtrip(&mut conn, &net_request(id, &text));
            assert!(
                response.contains(&format!("\"cache\":\"{cache}\"")),
                "{response}"
            );
            assert_eq!(strip_envelope(&response), record, "{id} on a {cache}");
        }
    }
    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn pipelined_requests_before_disconnect_are_still_served_in_order() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(vec![Arc::clone(&engine)], ServeOptions::default());

    // Write three requests back-to-back, then close the write half. The
    // reactor must collect the pipelined tail on RDHUP and serve all
    // three responses to the still-open read half, in order.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut batch = String::new();
    for i in 0..3 {
        batch.push_str(&healthy_net_request(&format!("pipe{i}")));
        batch.push('\n');
    }
    w.write_all(batch.as_bytes()).expect("send");
    w.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut reader = BufReader::new(stream);
    for i in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        assert!(
            line.contains(&format!("\"net\":\"pipe{i}\"")),
            "response {i} out of order or dropped: {line}"
        );
    }
    let mut line = String::new();
    // After the pipelined tail the server closes its side too.
    match reader.read_line(&mut line) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected extra response: {line}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::TimedOut),
            "unexpected error {e}"
        ),
    }

    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn request_deadline_over_tcp_is_answered_once_and_the_connection_serves_on() {
    let engine = Arc::new(Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            request_deadline: Some(Duration::from_millis(80)),
            // Stall inside the per-net boundary: the run is reliably in
            // flight when the deadline passes, and aborts at its first
            // checkpoint once the sleep ends.
            fault_plan: Some(Arc::new(FaultPlan::new().on_nth(
                Seam::Optimize,
                1,
                FaultAction::StallMs(600),
            ))),
            ..EngineOptions::default()
        },
    ));
    std::panic::set_hook(Box::new(|info| eprintln!("test panic: {info}")));
    let (addr, server) = start_reactor(vec![Arc::clone(&engine)], ServeOptions::default());
    let mut conn = connect(addr);

    // The shard's timer answers the stalled request, long before the
    // stall ends.
    let started = Instant::now();
    let expired = roundtrip(&mut conn, &healthy_net_request("too-slow"));
    let waited = started.elapsed();
    assert_eq!(expired, "{\"error\":\"deadline_exceeded\"}");
    assert!(
        waited < Duration::from_millis(400),
        "answered by the deadline, not the stalled run: {waited:?}"
    );

    // The connection takes its next request at once; the surplus worker
    // serves it while the stalled one still sleeps.
    let next = roundtrip(&mut conn, &healthy_net_request("next"));
    assert!(
        next.contains("\"net\":\"next\"") && next.contains("\"outcome\":\"optimized\""),
        "the next request got its own record: {next}"
    );

    // Let the stalled run finish: its late completion must not reach the
    // socket.
    std::thread::sleep(
        (started + Duration::from_millis(800)).saturating_duration_since(Instant::now()),
    );
    conn.1
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");
    let mut extra = String::new();
    match conn.0.read_line(&mut extra) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a second line for the expired request: {other:?} {extra:?}"),
    }
    conn.1.set_read_timeout(None).expect("timeout");

    // The expired run left nothing in the cache: asking again computes.
    let again = roundtrip(&mut conn, &healthy_net_request("too-slow"));
    assert!(
        again.contains("\"outcome\":\"optimized\"") && again.contains("\"cache\":\"miss\""),
        "{again}"
    );

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.rejections[1], 1, "one deadline_exceeded");
    assert_eq!(
        snap.cancellations,
        [1, 0, 0, 0],
        "one deadline cancellation"
    );
    wait_for("the pool to return to one worker", || {
        engine.live_workers() == 1
    });

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}
