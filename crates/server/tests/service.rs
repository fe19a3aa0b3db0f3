//! End-to-end exercise of the newline-JSON TCP service: concurrent
//! clients, cache hits across connections, stats, malformed requests,
//! and orderly shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use buffopt_buffers::catalog;
use buffopt_netlist::{parse, write as write_net, ParsedNet};
use buffopt_pipeline::{NetInput, PipelineConfig};
use buffopt_server::{serve_sharded, Engine, EngineOptions, NetDecoder, ServeOptions};
use buffopt_workload::{adversarial, WorkloadConfig};

/// The text of a healthy net, as a client would hold it.
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

fn start_server(jobs: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let engine = Arc::new(Engine::new(
        PipelineConfig::new(catalog::ibm_like()),
        EngineOptions {
            jobs,
            ..EngineOptions::default()
        },
    ));
    let handle = std::thread::spawn(move || {
        serve_sharded(listener, vec![engine], decoder(), ServeOptions::default())
            .expect("serve runs");
    });
    (addr, handle)
}

/// Sends one request line and reads one response line.
fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), request: &str) -> String {
    conn.1
        .write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    conn.0.read_line(&mut line).expect("response");
    line.trim_end().to_string()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[test]
fn concurrent_clients_get_correct_answers_and_cache_works() {
    let (addr, server) = start_server(4);
    let net = healthy_net_text();
    let escaped = json_escape(&net);

    // Several client threads, each asking for its own net id plus one
    // shared id — the shared one must be computed once and then hit.
    const CLIENTS: usize = 4;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let escaped = escaped.clone();
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let own = roundtrip(
                    &mut conn,
                    &format!("{{\"id\":\"client{c}\",\"net\":\"{escaped}\"}}"),
                );
                let shared = roundtrip(
                    &mut conn,
                    &format!("{{\"cmd\":\"optimize\",\"id\":\"shared\",\"net\":\"{escaped}\"}}"),
                );
                (own, shared)
            })
        })
        .collect();
    let responses: Vec<(String, String)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    for (c, (own, shared)) in responses.iter().enumerate() {
        assert!(
            own.contains(&format!("\"net\":\"client{c}\""))
                && own.contains("\"outcome\":\"optimized\""),
            "client {c} got someone else's answer: {own}"
        );
        assert!(own.contains("\"cache\":\"miss\""), "distinct ids never hit");
        assert!(
            shared.contains("\"net\":\"shared\"") && shared.contains("\"outcome\":\"optimized\""),
            "shared answer wrong: {shared}"
        );
    }
    let shared_hits = responses
        .iter()
        .filter(|(_, s)| s.contains("\"cache\":\"hit\""))
        .count();
    let shared_misses = responses
        .iter()
        .filter(|(_, s)| s.contains("\"cache\":\"miss\""))
        .count();
    assert_eq!(shared_hits + shared_misses, CLIENTS);
    assert!(shared_misses >= 1, "someone computed it first");
    // All hits replay the original record byte-for-byte; each stamps its
    // own `wall_ms`.
    let without_wall = |line: &str| {
        let at = line.find("\"wall_ms\":").expect("wall_ms") + "\"wall_ms\":".len();
        let end = at + line[at..].find(',').expect("more keys");
        format!("{}_{}", &line[..at], &line[end..])
    };
    let hit_bodies: Vec<String> = responses
        .iter()
        .filter(|(_, s)| s.contains("\"cache\":\"hit\""))
        .map(|(_, s)| without_wall(s))
        .collect();
    for pair in hit_bodies.windows(2) {
        assert_eq!(pair[0], pair[1], "cache hits are identical");
    }

    let mut conn = connect(addr);

    // Malformed request lines get an error object, not a dropped
    // connection; an unparsable net gets a parse_error record.
    let bad = roundtrip(&mut conn, "not json at all");
    assert!(bad.starts_with("{\"error\":"), "got {bad}");
    let unparsable = roundtrip(
        &mut conn,
        &format!(
            "{{\"id\":\"broken\",\"net\":\"{}\"}}",
            json_escape(adversarial::malformed_net_text())
        ),
    );
    assert!(
        unparsable.contains("\"outcome\":\"parse_error\""),
        "got {unparsable}"
    );

    // Stats reflect everything served on this engine so far.
    let stats = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    let expect_requests = 2 * CLIENTS + 1; // per-client pairs + the parse error
    assert!(
        stats.contains(&format!("\"requests\":{expect_requests}")),
        "got {stats}"
    );
    assert!(stats.contains("\"workers\":4"), "got {stats}");
    assert!(
        stats.contains(&format!("\"hits\":{shared_hits}")),
        "got {stats}"
    );

    // Shutdown acknowledges, then the accept loop exits.
    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("accept loop exits cleanly");
}

#[test]
fn requests_without_a_net_field_are_rejected() {
    let (addr, server) = start_server(1);
    let mut conn = connect(addr);
    let r = roundtrip(&mut conn, "{\"cmd\":\"optimize\",\"id\":\"x\"}");
    assert!(r.contains("\"error\""), "got {r}");
    let r = roundtrip(&mut conn, "{\"cmd\":\"bogus\"}");
    assert!(r.contains("unknown cmd"), "got {r}");
    roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    server.join().expect("accept loop exits");
}
