//! The `eco-serve` workload: ECO sessions against the TCP service.
//!
//! Each pass is one session against a freshly started server (default
//! reactor front end, one shard, solution cache and subtree memo on), so
//! every pass does identical work: a base net per family, then its
//! `perturbed_family` variants (as many as `PerturbationConfig` makes by
//! default), each new net followed by one re-request of the new net sent
//! before it. New nets miss the cache (and seed from the memo where a
//! family shares structure); re-requests hit, so hits and misses are
//! about one to one. That ratio is an assumption, not taken from a
//! measured ECO trace (NOTES.md). One client thread drives two
//! connections closed loop. A re-request is held back while its original
//! is still in flight, so which requests hit is deterministic.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use buffopt::{DpWorkspace, MemoTable};
use buffopt_buffers::catalog;
use buffopt_netpoll::{Event, Interest, Poller};
use buffopt_pipeline::{optimize_input_with, NetInput, PipelineConfig};
use buffopt_server::{serve_sharded, CacheStatus, Engine, EngineOptions, Job, ServeOptions};
use buffopt_tree::segment;
use buffopt_workload::{
    estimation_scenario, generate, perturbed_family, PerturbationConfig, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::batch::{decode, net_text};
use crate::layers::{self, Counters};
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{Args, Report};

const JOBS: usize = 2;
const QUEUE_DEPTH: usize = 4;
const CACHE_CAPACITY: usize = 4096;
const MEMO_MB: usize = 64;
const SEGMENT_UM: f64 = 500.0;
/// Families per session, plus warm-up families.
const FAMILIES: usize = 96;
const WARMUP_FAMILIES: usize = 4;
/// Each phase runs at least this many sessions.
const MIN_PASSES: usize = 20;
/// Share of sessions the estimators keep (the fastest ones).
const FAST_SHARE: f64 = 0.1;
/// The kept sessions hold at least this many misses, so that at least
/// 100 lie beyond the miss p90.
const MIN_POOLED_MISSES: usize = 1000;
/// A server that has not answered for this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Answer fields compared with the direct pipeline answer; telemetry
/// (`wall_ms`, peaks, merge counts, `worker`) is left out.
const ANSWER_FIELDS: [&str; 6] = [
    "net",
    "outcome",
    "rung",
    "buffers",
    "slack",
    "worst_headroom",
];

/// The configuration recorded in this workload's `why`.
pub fn config_tag() -> String {
    format!(
        "shards=1 jobs={JOBS} queue={QUEUE_DEPTH} cache={CACHE_CAPACITY} memo_mb={MEMO_MB} \
         lib=ibm_like seg_um={SEGMENT_UM}"
    )
}

fn pipeline_config(memo: Option<Arc<MemoTable>>) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(catalog::ibm_like());
    cfg.max_segment = Some(SEGMENT_UM);
    cfg.memo = memo;
    cfg
}

fn engine() -> Arc<Engine> {
    let memo = Arc::new(MemoTable::new(MEMO_MB << 20, 8));
    Arc::new(Engine::new(
        pipeline_config(Some(memo)),
        EngineOptions {
            jobs: JOBS,
            cache_capacity: CACHE_CAPACITY,
            queue_depth: QUEUE_DEPTH,
            ..EngineOptions::default()
        },
    ))
}

/// One distinct net of the session.
struct SNet {
    id: String,
    text: String,
    /// The request line, newline included.
    line: String,
    /// The direct pipeline answer as JSON, for field comparison.
    direct: String,
}

/// One request: which net, and whether it re-requests an earlier one.
#[derive(Clone, Copy)]
struct Req {
    net: usize,
    repeat: bool,
}

struct Session {
    nets: Vec<SNet>,
    warmup: Vec<Req>,
    timed: Vec<Req>,
}

fn request_line(id: &str, text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 64);
    s.push_str("{\"cmd\":\"optimize\",\"id\":\"");
    s.push_str(id);
    s.push_str("\",\"net\":\"");
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s.push_str("\"}\n");
    s
}

/// Builds the session from the seed's Table-I population: families of a
/// multi-sink base net and its variants, each new net followed by a
/// re-request of the new net sent before it in the same sequence.
fn session(seed: u64) -> Result<Session, String> {
    let wl = WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    };
    // Bases are the multi-sink nets at evenly spaced quantiles of
    // segmented size, so every seed's session spans the same size range
    // and the miss tail does not hang on which few large nets a seed
    // happens to draw. Every `stride`-th quantile warms the server up.
    let population = generate(&wl);
    let mut by_size: Vec<(usize, usize)> = population
        .iter()
        .enumerate()
        .filter(|(_, g)| g.sink_count() >= 2)
        .map(|(i, g)| {
            let nodes = segment::segment_wires(&g.tree, SEGMENT_UM).map_or(0, |s| s.tree.len());
            (nodes, i)
        })
        .collect();
    by_size.sort_unstable();
    let total = FAMILIES + WARMUP_FAMILIES;
    let m = by_size.len();
    if m < total {
        return Err("population has too few multi-sink nets".into());
    }
    let stride = total / WARMUP_FAMILIES;
    let mut nets = Vec::new();
    let mut seqs: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    let mut previous: [Option<usize>; 2] = [None, None];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0EC0_5E55);
    // Families arrive in a seeded order, not sorted by size.
    let mut order: Vec<usize> = (0..total).collect();
    order.shuffle(&mut rng);
    for k in order {
        let base = &population[by_size[(2 * k + 1) * m / (2 * total)].1].tree;
        let timed = usize::from(k % stride != stride / 2);
        let variants = perturbed_family(
            base,
            &PerturbationConfig {
                seed: seed ^ (k as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                ..PerturbationConfig::default()
            },
        );
        for (v, tree) in std::iter::once(base.clone()).chain(variants).enumerate() {
            let id = format!("{}{k}v{v}", ["w", "f"][timed]);
            let scenario = estimation_scenario(&tree, &wl);
            let text = net_text(&id, tree, scenario);
            nets.push(SNet {
                line: request_line(&id, &text),
                id,
                text,
                direct: String::new(),
            });
            let seq = &mut seqs[timed];
            seq.push(Req {
                net: nets.len() - 1,
                repeat: false,
            });
            if let Some(prev) = previous[timed].replace(nets.len() - 1) {
                seq.push(Req {
                    net: prev,
                    repeat: true,
                });
            }
        }
    }
    // Direct answers, memo off, for the field-by-field check.
    let cfg = pipeline_config(None);
    let mut ws = DpWorkspace::new();
    for net in &mut nets {
        net.direct = optimize_input_with(&mut ws, &decode(&net.id, &net.text), &cfg).to_json();
    }
    let [warmup, timed] = seqs;
    Ok(Session {
        nets,
        warmup,
        timed,
    })
}

/// The value of top-level `key` in a flat response line (the first
/// occurrence; the schema puts every compared key before `attempts`).
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Whether `resp` carries the direct answer's fields and the expected
/// cache status (a refusal such as `{"error":"overloaded"}` has neither).
fn answer_ok(resp: &str, net: &SNet, repeat: bool) -> bool {
    let cache = if repeat { "\"hit\"" } else { "\"miss\"" };
    field(resp, "cache") == Some(cache)
        && ANSWER_FIELDS
            .iter()
            .all(|k| field(resp, k).is_some() && field(resp, k) == field(&net.direct, k))
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// A running server with two client connections.
struct Server {
    engine: Arc<Engine>,
    handle: JoinHandle<std::io::Result<()>>,
    conns: Vec<Conn>,
    poller: Poller,
}

impl Server {
    fn start() -> Result<Server, String> {
        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let decoder: buffopt_server::NetDecoder = Arc::new(decode);
        let engines = vec![Arc::clone(&engine)];
        let handle = std::thread::spawn(move || {
            serve_sharded(listener, engines, decoder, ServeOptions::default())
        });
        let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        let mut conns = Vec::new();
        for token in 0..2u64 {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .map_err(|e| format!("register: {e}"))?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            conns.push(Conn { stream, reader });
        }
        Ok(Server {
            engine,
            handle,
            conns,
            poller,
        })
    }

    /// Drains the server and joins its acceptor thread.
    fn stop(mut self) -> Result<(), String> {
        self.conns[0].send("{\"cmd\":\"shutdown\"}\n")?;
        let ack = self.conns[0].recv()?;
        if !ack.contains("shutdown") {
            return Err(format!("unexpected shutdown reply {ack:?}"));
        }
        drop(self.conns);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))
    }

    /// Runs `reqs` closed loop over both connections, in order, and
    /// returns per request its round trip in seconds and the response
    /// line. With a tracer, each round trip is also recorded as a
    /// `server.roundtrip` span with request id `req_base + i`, whose span
    /// id is returned.
    fn drive(
        &mut self,
        nets: &[SNet],
        reqs: &[Req],
        mut tr: Option<(&mut Tracer, u64)>,
    ) -> Result<Vec<Reply>, String> {
        let mut out: Vec<Reply> = Vec::with_capacity(reqs.len());
        out.resize_with(reqs.len(), Reply::default);
        let mut done = vec![false; nets.len()];
        let mut inflight: [Option<(usize, Instant, usize)>; 2] = [None, None];
        let mut next = 0;
        let mut events: Vec<Event> = Vec::with_capacity(2);
        loop {
            for (c, slot) in inflight.iter_mut().enumerate() {
                if slot.is_some() || next == reqs.len() {
                    continue;
                }
                let r = reqs[next];
                if r.repeat && !done[r.net] {
                    break;
                }
                let span = match &mut tr {
                    Some((tr, base)) => tr.open("server.roundtrip", *base + next as u64, None),
                    None => usize::MAX,
                };
                *slot = Some((next, Instant::now(), span));
                self.conns[c].send(&nets[r.net].line)?;
                next += 1;
            }
            if inflight.iter().all(Option::is_none) {
                if next == reqs.len() {
                    return Ok(out);
                }
                return Err("client stalled".into());
            }
            let ready = self
                .poller
                .wait(&mut events, 2, Some(REPLY_TIMEOUT))
                .map_err(|e| format!("poll: {e}"))?;
            if ready == 0 {
                return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
            }
            for ev in &events {
                let c = ev.token as usize;
                let Some((i, sent, span)) = inflight[c].take() else {
                    return Err("response without a request".into());
                };
                let line = self.conns[c].recv()?;
                let rt = sent.elapsed().as_secs_f64();
                if let Some((tr, _)) = &mut tr {
                    tr.close(span);
                }
                out[i] = Reply { rt, line, span };
                done[reqs[i].net] = true;
            }
        }
    }
}

/// One answered request.
#[derive(Default)]
struct Reply {
    /// Round trip, seconds.
    rt: f64,
    line: String,
    /// Its `server.roundtrip` span in a traced session.
    span: usize,
}

/// Latency samples of one session, split by cache status.
#[derive(Default)]
struct Latencies {
    hit: Vec<f64>,
    miss: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let s = session(args.seed)?;
    let per_pass = s.timed.len() as u64;
    let buffers_total: u64 = s
        .timed
        .iter()
        .filter_map(|r| field(&s.nets[r.net].direct, "buffers")?.parse::<u64>().ok())
        .sum();

    let untraced_for = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut setup_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut lat: Vec<Latencies> = Vec::new();
    let mut digest = None;
    // Read after the first session, the first server's whole life: each
    // session starts a fresh server, and the allocator's high-water mark
    // keeps creeping up with the session count (threads land on different
    // malloc arenas), which would tie this metric to machine speed.
    let mut peak_rss = 0.0;
    let (mut attempted, mut ok, mut optimized) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < untraced_for || pass_s.len() < MIN_PASSES {
        // Set-up: engine (pool, cache, memo), reactor, connections, and a
        // warm-up family distinct from the timed ones.
        let t = Instant::now();
        let mut server = Server::start()?;
        server.drive(&s.nets, &s.warmup, None)?;
        setup_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let answers = server.drive(&s.nets, &s.timed, None)?;
        pass_s.push(t.elapsed().as_secs_f64());
        server.stop()?;

        let mut l = Latencies::default();
        for (r, reply) in s.timed.iter().zip(&answers) {
            let good = answer_ok(&reply.line, &s.nets[r.net], r.repeat);
            attempted += 1;
            ok += u64::from(good);
            optimized += u64::from(field(&reply.line, "outcome") == Some("\"optimized\""));
            if r.repeat {
                l.hit.push(reply.rt);
            } else {
                l.miss.push(reply.rt);
            }
        }
        lat.push(l);
        if pass_s.len() == 1 {
            peak_rss = crate::peak_rss_mb();
        }
        if digest.is_none() {
            digest = Some(answers.iter().fold(Fnv::new(), |h, reply| {
                ANSWER_FIELDS.iter().chain(&["cache"]).fold(h, |h, k| {
                    h.bytes(field(&reply.line, k).unwrap_or("").as_bytes())
                })
            }));
        }
    }

    // Latency percentiles pool the responses of the fastest tenth of
    // sessions; see NOTES.md.
    let misses_per_pass = s.timed.iter().filter(|r| !r.repeat).count();
    let fast = stats::fastest_indices(
        &pass_s,
        FAST_SHARE,
        MIN_POOLED_MISSES.div_ceil(misses_per_pass),
    );
    let pooled = |pick: fn(&Latencies) -> &Vec<f64>| -> Vec<f64> {
        fast.iter()
            .flat_map(|&i| pick(&lat[i]).iter().copied())
            .collect()
    };
    let (hits, misses) = (pooled(|l| &l.hit), pooled(|l| &l.miss));
    let all_hits: Vec<f64> = lat.iter().flat_map(|l| l.hit.iter().copied()).collect();
    let all_misses: Vec<f64> = lat.iter().flat_map(|l| l.miss.iter().copied()).collect();
    let fast_pass = stats::fastest_mean(&pass_s, FAST_SHARE);
    let mut report = Report {
        attempted,
        failed: attempted - ok,
        metrics: Vec::new(),
        notes: vec![
            format!(
                "answer_digest {:016x} over {per_pass} requests",
                digest.map_or(0, Fnv::finish)
            ),
            format!(
                "{} sessions of {per_pass} requests ({} misses each); requests/s: fastest-tenth {:.1}, mean {:.1}",
                pass_s.len(),
                misses_per_pass,
                per_pass as f64 / fast_pass,
                per_pass as f64 / stats::mean(&pass_s),
            ),
            format!(
                "fastest-tenth pool: {} hits, {} misses; hit p50 {:.4} ms, p99 {:.4} ms; \
                 miss p50 {:.4} ms, p90 {:.4} ms",
                hits.len(),
                misses.len(),
                stats::median(&hits) * 1e3,
                stats::quantile(&hits, 0.99) * 1e3,
                stats::median(&misses) * 1e3,
                stats::quantile(&misses, 0.9) * 1e3
            ),
            format!(
                "all sessions: hit p50 {:.4} ms, miss p50 {:.4} ms, miss p90 {:.4} ms",
                stats::median(&all_hits) * 1e3,
                stats::median(&all_misses) * 1e3,
                stats::quantile(&all_misses, 0.9) * 1e3
            ),
        ],
    };
    if !args.trace {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("nets_per_s", per_pass as f64 / fast_pass, "1/s");
        report.metric("ok_share", ok as f64 / attempted as f64, "share");
        report.metric(
            "optimized_share",
            optimized as f64 / attempted as f64,
            "share",
        );
        report.metric("buffers_total", buffers_total as f64, "count");
        report.metric("peak_rss_mb", peak_rss, "MiB");
        return Ok(report);
    }
    traced(args, &s, untraced_for, fast_pass, report)
}

/// Traced sessions, driven like the untraced ones, with each round trip
/// recorded as a `server.roundtrip` span. After each session, with its
/// server stopped, the benchmark replays the server's layer calls on a
/// second in-process engine fed the same sequence in send order (parse,
/// `Engine::try_optimize`, serialization) as children of each round
/// trip, whose self time is then the front end's share (reactor,
/// service, netpoll, socket, and queueing behind the other connection).
/// A miss is also replayed through the pipeline (`pipeline.optimize`,
/// under the engine span) and its ladder under that, each with a memo
/// table of its own fed the same misses as the engine's, so the DP seeds
/// as it did in the engine. `trace.overhead` covers only the span
/// recording.
fn traced(
    args: &Args,
    s: &Session,
    untraced_for: Duration,
    fast_pass: f64,
    mut report: Report,
) -> Result<Report, String> {
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut traced_s = Vec::new();
    let mut ws = DpWorkspace::new();
    let memo_config = || pipeline_config(Some(Arc::new(MemoTable::new(MEMO_MB << 20, 8))));
    let started = Instant::now();
    while started.elapsed() < args.seconds - untraced_for || traced_s.len() < MIN_PASSES {
        let req_base = (traced_s.len() * s.timed.len()) as u64;
        let mut server = Server::start()?;
        server.drive(&s.nets, &s.warmup, None)?;
        let t = Instant::now();
        let replies = server.drive(&s.nets, &s.timed, Some((&mut tr, req_base)))?;
        traced_s.push(t.elapsed().as_secs_f64());
        c.note_engine(&server.engine.metrics_snapshot());
        server.stop()?;

        let replay = engine();
        let (pipe_cfg, ladder_cfg) = (memo_config(), memo_config());
        for r in &s.warmup {
            let net = &s.nets[r.net];
            let input = decode(&net.id, &net.text);
            if !r.repeat {
                optimize_input_with(&mut ws, &input, &pipe_cfg);
                optimize_input_with(&mut ws, &input, &ladder_cfg);
            }
            let job = Job {
                input,
                cache_key: Some(replay.key_for(&net.id, &net.text)),
            };
            replay
                .try_optimize(job)
                .map_err(|e| e.as_str().to_string())?;
        }
        for (k, (r, reply)) in s.timed.iter().zip(&replies).enumerate() {
            let net = &s.nets[r.net];
            let req = req_base + k as u64;
            let rt = reply.span;
            let p = tr.open("netlist.parse", req, Some(rt));
            let input = decode(&net.id, &net.text);
            tr.close(p);
            c.parse_bytes += net.text.len() as u64;
            let job = Job {
                input: input.clone(),
                cache_key: Some(replay.key_for(&net.id, &net.text)),
            };
            let e = tr.open("server.engine", req, Some(rt));
            let served = replay.try_optimize(job);
            tr.close(e);
            let served = served.map_err(|e| e.as_str().to_string())?;
            tr.spans[e].name = match served.cache {
                CacheStatus::Hit => "server.engine_hit",
                CacheStatus::Miss => "server.engine_miss",
            };
            if let (CacheStatus::Miss, NetInput::Parsed { tree, scenario, .. }) =
                (served.cache, &input)
            {
                let o = tr.open("pipeline.optimize", req, Some(e));
                let out = optimize_input_with(&mut ws, &input, &pipe_cfg);
                tr.close(o);
                let replayed = layers::replay_ladder(
                    &mut tr,
                    req,
                    o,
                    &mut ws,
                    &ladder_cfg,
                    tree,
                    scenario,
                    &mut c,
                );
                c.note_answer(&out, replayed);
            }
            let z = tr.open("server.serialize", req, Some(rt));
            let mut json = served.outcome.to_json();
            json.pop();
            json.push_str(&format!(
                ",\"cache\":\"{}\",\"worker\":{}}}",
                served.cache.as_str(),
                served.worker
            ));
            tr.close(z);
            let h = tr.open("integrity.crc", req, None);
            std::hint::black_box(buffopt_integrity::crc64(reply.line.as_bytes()));
            tr.close(h);

            report.attempted += 1;
            let good = answer_ok(&reply.line, net, r.repeat)
                && field(&json, "cache") == field(&reply.line, "cache");
            report.failed += u64::from(!good);
        }
    }
    report.failed += c.replay_mismatch;
    let path = std::path::PathBuf::from(format!(".bench_trace/eco-serve-seed{}.jsonl", args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        path.display()
    ));
    report.notes.push(format!(
        "per request: engine hit {:.2} us, front end {:.2} us, crc {:.2} us",
        tr.mean_us("server.engine_hit").0,
        tr.mean_self_us("server.roundtrip"),
        tr.mean_us("integrity.crc").0,
    ));
    layers::report(
        &mut report,
        &tr,
        &c,
        traced_s.len() as f64,
        "server.roundtrip",
        true,
        stats::fastest_mean(&traced_s, FAST_SHARE) / fast_pass - 1.0,
    );
    Ok(report)
}
