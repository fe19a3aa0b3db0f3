//! Serving saturation snapshot: the sharded epoll reactor under
//! connection-count sweeps.
//!
//! Spawns the server as a child process (its own fd budget — the 10k+
//! tiers need ~10k sockets on each side of the loopback), ramps N
//! concurrent connections with a nonblocking `buffopt-netpoll` client
//! loop, and drives two waves per tier:
//!
//! * **hot** — every connection asks for the same (primed) net, so each
//!   response is a solution-cache hit and the measured latency is the
//!   serving stack itself: accept fan-out, shard event loops, the
//!   inline cache probe, write backpressure. p50/p99/p999 and throughput
//!   per tier.
//! * **cold** — every connection asks for a distinct net, flooding the
//!   engines' bounded admission queue: the shed-rate curve (typed
//!   `overloaded` refusals / total) per tier, the degrade-under-overload
//!   contract at the TCP layer.
//!
//! The run fails on any socket error, on any shed hot request (cache-hit
//! serving must never touch admission), and on any cold request that is
//! neither served nor shed. It carries no timing gate: latencies and
//! throughput are recorded, not judged.
//!
//! Usage: `serve_snapshot [--quick] [--out PATH]`
//!
//! The full sweep (default) runs tiers 64–10240; `--quick` stops at
//! 1024 (CI smoke). Writes `BENCH_serve.json` by default.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buffopt_netlist::{parse, write as write_net, ParsedNet};
use buffopt_netpoll::{
    set_nonblocking, Event, FillOutcome, FlushOutcome, Interest, Poller, RecvBuf, SendBuf, TakeLine,
};
use buffopt_pipeline::{NetInput, PipelineConfig};
use buffopt_server::{serve_sharded, Engine, EngineOptions, NetDecoder, ServeOptions};
use buffopt_workload::{adversarial, WorkloadConfig};

/// Request-line cap mirrored on the client's receive side.
const MAX_LINE: usize = 1 << 20;
/// Hard wall per wave; a stuck wave fails the snapshot instead of
/// hanging CI.
const WAVE_DEADLINE: Duration = Duration::from_secs(300);
/// Connections per ramp burst (the listener backlog is finite; bursting
/// past it would throw the client into SYN-retransmit stalls).
const RAMP_BURST: usize = 256;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(buffopt_buffers::catalog::ibm_like())
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

/// The one healthy net every request carries (deterministic).
fn net_text_escaped() -> String {
    let (tree, scenario) = adversarial::valid_net(&WorkloadConfig::default());
    let node_names = (0..tree.len()).map(|_| None).collect();
    let text = write_net(&ParsedNet {
        name: None,
        tree,
        scenario,
        node_names,
    });
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn request(id: &str, escaped_net: &str) -> String {
    format!("{{\"id\":\"{id}\",\"net\":\"{escaped_net}\"}}\n")
}

// ---------------------------------------------------------------------
// Child-process server (--server): its own pid, its own fd budget.
// ---------------------------------------------------------------------

fn run_server(shards: usize, jobs: usize, queue_depth: usize) -> ! {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    println!("listening on {addr}");
    std::io::stdout().flush().expect("flush");
    let mk = || {
        Arc::new(Engine::new(
            pipeline_config(),
            EngineOptions {
                jobs,
                queue_depth,
                ..EngineOptions::default()
            },
        ))
    };
    serve_sharded(
        listener,
        (0..shards).map(|_| mk()).collect(),
        decoder(),
        ServeOptions::default(),
    )
    .expect("serve runs");
    std::process::exit(0)
}

fn spawn_server(shards: usize, jobs: usize, queue_depth: usize) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args([
            "--server",
            "--shards",
            &shards.to_string(),
            "--jobs",
            &jobs.to_string(),
            "--queue-depth",
            &queue_depth.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening prefix")
        .parse()
        .expect("socket addr");
    (child, addr)
}

fn shutdown_server(addr: SocketAddr, mut child: Child) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).expect("ack");
    assert_eq!(ack.trim_end(), "{\"ok\":\"shutdown\"}", "shutdown ack");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "server child exited cleanly");
}

/// One blocking round-trip: primes the solution cache so hot waves are
/// pure cache-hit serving.
fn prime(addr: SocketAddr, req: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect for prime");
    stream.write_all(req.as_bytes()).expect("send prime");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("primed");
    assert!(
        line.contains("\"outcome\":\"optimized\""),
        "prime failed: {line}"
    );
}

// ---------------------------------------------------------------------
// Nonblocking client driver.
// ---------------------------------------------------------------------

/// Per-connection wave state; the `TcpStream` itself stays in the
/// caller's slab (no `try_clone` — at 10k+ connections a cloned fd per
/// stream would double the descriptor bill).
struct ClientConn {
    recv: RecvBuf,
    send: SendBuf,
    issued: Instant,
    done: bool,
}

struct WaveResult {
    n: usize,
    served: usize,
    shed: usize,
    errors: usize,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    wall_ms: f64,
    throughput_rps: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Opens `n` connections, bursting below the listener backlog.
fn ramp(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && i % RAMP_BURST == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stream = TcpStream::connect(addr).expect("ramp connect");
        set_nonblocking(stream.as_raw_fd(), true).expect("nonblocking");
        conns.push(stream);
    }
    conns
}

/// Sends one request per connection and collects every response,
/// entirely readiness-driven.
fn run_wave(conns: &mut [TcpStream], requests: &[String]) -> WaveResult {
    assert_eq!(conns.len(), requests.len());
    let poller = Poller::new().expect("poller");
    let started = Instant::now();
    let mut clients: Vec<ClientConn> = requests
        .iter()
        .map(|req| {
            let mut send = SendBuf::new();
            send.queue(req.as_bytes());
            ClientConn {
                recv: RecvBuf::new(),
                send,
                issued: Instant::now(),
                done: false,
            }
        })
        .collect();
    for (i, stream) in conns.iter().enumerate() {
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::BOTH)
            .expect("register");
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(clients.len());
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut errors = 0usize;
    let mut done = 0usize;
    let mut events: Vec<Event> = Vec::new();
    while done < clients.len() {
        assert!(
            started.elapsed() < WAVE_DEADLINE,
            "wave stuck: {done}/{} responses after {WAVE_DEADLINE:?}",
            clients.len()
        );
        poller
            .wait(&mut events, 1024, Some(Duration::from_millis(100)))
            .expect("wait");
        for ev in &events {
            let idx = ev.token as usize;
            let c = &mut clients[idx];
            let stream = &mut conns[idx];
            if c.done {
                continue;
            }
            if ev.error {
                let _ = poller.deregister(stream.as_raw_fd());
                c.done = true;
                errors += 1;
                done += 1;
                continue;
            }
            if ev.writable && !c.send.is_empty() {
                match c.send.flush_to(stream) {
                    FlushOutcome::Closed => {
                        let _ = poller.deregister(stream.as_raw_fd());
                        c.done = true;
                        errors += 1;
                        done += 1;
                        continue;
                    }
                    FlushOutcome::Done => {
                        poller
                            .modify(stream.as_raw_fd(), ev.token, Interest::READ)
                            .expect("modify");
                    }
                    FlushOutcome::Pending => {}
                }
            }
            if ev.readable || ev.rdhup || ev.hup {
                let outcome = c.recv.fill_from(stream, MAX_LINE + 4096);
                let at_eof = matches!(outcome, Err(_) | Ok(FillOutcome::Eof));
                if let TakeLine::Line(line) = c.recv.take_line(MAX_LINE) {
                    latencies.push(c.issued.elapsed().as_micros() as u64);
                    if line.starts_with(b"{\"error\":\"overloaded\"") {
                        shed += 1;
                    } else {
                        served += 1;
                    }
                    let _ = poller.deregister(stream.as_raw_fd());
                    c.done = true;
                    done += 1;
                } else if at_eof {
                    // EOF before a full line: the server cut us off.
                    let _ = poller.deregister(stream.as_raw_fd());
                    c.done = true;
                    errors += 1;
                    done += 1;
                }
            }
        }
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    WaveResult {
        n: clients.len(),
        served,
        shed,
        errors,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            latencies.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

fn wave_json(w: &WaveResult) -> String {
    format!(
        "{{\"n\":{},\"served\":{},\"shed\":{},\"errors\":{},\"shed_rate\":{:.4},\
         \"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"wall_ms\":{:.1},\
         \"throughput_rps\":{:.0}}}",
        w.n,
        w.served,
        w.shed,
        w.errors,
        w.shed as f64 / w.n.max(1) as f64,
        w.p50_us,
        w.p99_us,
        w.p999_us,
        w.wall_ms,
        w.throughput_rps,
    )
}

/// Hot wave (primed id, cache hits) then cold wave (distinct ids,
/// admission flood) at one connection count.
fn run_tier(addr: SocketAddr, conns_n: usize, escaped: &str) -> (WaveResult, WaveResult) {
    let mut conns = ramp(addr, conns_n);
    let hot_reqs: Vec<String> = (0..conns_n).map(|_| request("hot", escaped)).collect();
    let hot = run_wave(&mut conns, &hot_reqs);
    let cold_reqs: Vec<String> = (0..conns_n)
        .map(|i| request(&format!("cold-r{conns_n}-{i}"), escaped))
        .collect();
    let cold = run_wave(&mut conns, &cold_reqs);
    (hot, cold)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut server_mode = false;
    let mut shards = 2usize;
    let mut jobs = 1usize;
    let mut queue_depth = 64usize;
    let mut quick = false;
    let mut out = "BENCH_serve.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" => server_mode = true,
            "--shards" => shards = args.next().expect("--shards value").parse().expect("usize"),
            "--jobs" => jobs = args.next().expect("--jobs value").parse().expect("usize"),
            "--queue-depth" => {
                queue_depth = args
                    .next()
                    .expect("--queue-depth value")
                    .parse()
                    .expect("usize")
            }
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out value"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if server_mode {
        run_server(shards, jobs, queue_depth);
    }

    let tiers: &[usize] = if quick {
        &[64, 256, 1024]
    } else {
        &[64, 256, 1024, 4096, 10240]
    };
    let escaped = net_text_escaped();

    let (child, addr) = spawn_server(shards, jobs, queue_depth);
    prime(addr, &request("hot", &escaped));
    let mut tier_rows = Vec::new();
    for &n in tiers {
        eprintln!("tier {n} ...");
        let (hot, cold) = run_tier(addr, n, &escaped);
        assert_eq!(hot.errors, 0, "hot wave at {n} conns had socket errors");
        assert_eq!(
            hot.shed, 0,
            "hot wave at {n} conns was shed; cache-hit serving must not touch admission"
        );
        assert_eq!(
            hot.served, n,
            "hot wave at {n} conns left requests unserved"
        );
        assert_eq!(cold.errors, 0, "cold wave at {n} conns had socket errors");
        assert_eq!(
            cold.served + cold.shed,
            n,
            "cold wave at {n} conns: a request was neither served nor shed"
        );
        eprintln!(
            "  hot p50/p99/p999 {}/{}/{} us, {:.0} rps; cold shed {}/{}",
            hot.p50_us, hot.p99_us, hot.p999_us, hot.throughput_rps, cold.shed, n
        );
        tier_rows.push(format!(
            "    {{\"conns\":{n},\"hot\":{},\"cold\":{}}}",
            wave_json(&hot),
            wave_json(&cold),
        ));
    }
    shutdown_server(addr, child);

    let json = format!(
        "{{\n  \"meta\":{{\"quick\":{quick},\"shards\":{shards},\"jobs\":{jobs},\
         \"queue_depth\":{queue_depth}}},\n  \"tiers\":[\n{}\n  ]\n}}\n",
        tier_rows.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write snapshot");
    eprintln!("wrote {out}");
}
