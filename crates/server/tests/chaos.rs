//! Chaos suite: deterministic faults against the serving stack's
//! self-healing guarantees.
//!
//! Every test builds a small engine, injects a fault, and asserts the
//! blast radius the design promises: a killed worker costs a respawn and
//! at most one request; an over-watermark burst is shed with explicit
//! `overloaded` errors while admitted work completes; optimizer-seam
//! faults stay inside one record; a panicking decoder costs one error
//! line on one connection; shutdown drains in-flight requests instead of
//! dropping them. Worker-loop faults come from a [`FaultPlan`]; every
//! other fault goes through the interface that produces it for real (the
//! injected decoder, raw client bytes, the cache and memo corruption
//! hooks, the arena cap).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buffopt_buffers::catalog;
use buffopt_integrity::{decode_frame, encode_frame};
use buffopt_netlist::{parse, write as write_net, ParsedNet};
use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
use buffopt_pipeline::{NetInput, NetOutcome, Outcome, PipelineConfig};
use buffopt_server::{
    serve_sharded, CacheStatus, Engine, EngineOptions, Job, NetDecoder, Rejection, ServeOptions,
};
use buffopt_tree::{Driver, SinkSpec, Technology, TreeBuilder};
use buffopt_workload::{adversarial, estimation_scenario, WorkloadConfig};

fn healthy(name: &str) -> NetInput {
    let (tree, scenario) = adversarial::valid_net(&WorkloadConfig::default());
    NetInput::Parsed {
        name: name.to_string(),
        tree,
        scenario,
    }
}

fn job(name: &str) -> Job {
    Job {
        input: healthy(name),
        cache_key: None,
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    }
}

fn engine_with(plan: FaultPlan, opts: EngineOptions) -> (Engine, Arc<FaultPlan>) {
    let plan = Arc::new(plan);
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            fault_plan: Some(Arc::clone(&plan)),
            ..opts
        },
    );
    (engine, plan)
}

/// Spins until `cond` holds, failing the test after a generous timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn killed_worker_is_respawned_and_the_request_retried_to_success() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::KillWorker),
        EngineOptions {
            jobs: 2,
            max_retries: 1,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("kill-me"));
    assert_eq!(served.outcome.name, "kill-me");
    assert_eq!(
        served.outcome.outcome,
        Outcome::Optimized,
        "the retry must succeed: {:?}",
        served.outcome.error
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.worker_deaths, 1, "the death was detected");
    assert_eq!(snap.retries, 1, "the orphaned request was retried once");
    assert!(snap.respawns >= 1, "the supervisor repaired the pool");
    wait_for("pool back at target strength", || {
        engine.live_workers() == 2
    });
}

#[test]
fn injected_worker_panic_is_detected_like_a_death() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::Panic),
        EngineOptions {
            jobs: 1,
            max_retries: 1,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("panic-me"));
    assert_eq!(served.outcome.outcome, Outcome::Optimized);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.worker_deaths, 1);
    assert_eq!(snap.retries, 1);
    wait_for("pool back at target strength", || {
        engine.live_workers() == 1
    });
}

#[test]
fn worker_kill_fails_only_the_request_it_held() {
    const NETS: usize = 6;
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 3, FaultAction::KillWorker),
        EngineOptions {
            jobs: 2,
            max_retries: 0, // no retry: the orphaned request must fail alone
            ..EngineOptions::default()
        },
    );
    let jobs = (0..NETS).map(|i| job(&format!("net{i}"))).collect();
    let report = engine.run_jobs(jobs);

    assert_eq!(report.outcomes.len(), NETS, "no record lost");
    let failed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Failed)
        .map(|o| o.name.as_str())
        .collect();
    assert_eq!(failed.len(), 1, "exactly one request died: {failed:?}");
    let victim = report
        .outcomes
        .iter()
        .find(|o| o.outcome == Outcome::Failed)
        .expect("one failure");
    assert!(
        victim
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("worker died while holding the request"),
        "failure names the cause: {:?}",
        victim.error
    );
    for o in report.outcomes.iter().filter(|o| o.name != victim.name) {
        assert_eq!(o.outcome, Outcome::Optimized, "{} suffered", o.name);
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.worker_deaths, 1);
    assert_eq!(snap.retries, 0);
    assert!(snap.respawns >= 1);
    wait_for("pool back at target strength", || {
        engine.live_workers() == 2
    });
}

#[test]
fn arena_cap_degrades_in_place_with_a_feasible_record() {
    let engine = Engine::new(
        PipelineConfig {
            max_arena_bytes: Some(512),
            ..pipeline_config()
        },
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("squeezed"));
    assert!(
        matches!(
            served.outcome.outcome,
            Outcome::Optimized | Outcome::Degraded
        ),
        "pressure degrades, never fails: {:?} {:?}",
        served.outcome.outcome,
        served.outcome.error
    );
    assert_eq!(
        served.outcome.degraded_by,
        Some(buffopt::BudgetResource::ArenaBytes),
        "the record attributes the degradation to the memory cap"
    );
    let arena_peak = served.outcome.solution.as_ref().map(|s| s.peak_arena_bytes);
    assert!(
        arena_peak > Some(512),
        "the solution's peak shows the cap was actually hit: {arena_peak:?}"
    );

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.degraded_pressure, 1);
    assert!(snap.arena_peak_bytes > 512);
    assert_eq!(snap.worker_deaths, 0, "pressure is not a death");
}

#[test]
fn cancel_run_fault_fails_fast_with_the_supervisor_reason() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Optimize, 1, FaultAction::CancelRun),
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("killed"));
    assert_eq!(served.outcome.outcome, Outcome::Failed);
    assert!(
        served
            .outcome
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("cancelled: supervisor"),
        "the record names the cancellation reason: {:?}",
        served.outcome.error
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.cancellations,
        [0, 0, 0, 1],
        "attributed to the supervisor reason"
    );
    assert_eq!(snap.worker_deaths, 0, "a cancelled run is not a death");
    assert_eq!(snap.respawns, 0);

    let clean = engine.optimize(job("clean"));
    assert_eq!(clean.outcome.outcome, Outcome::Optimized);
}

#[test]
fn deadline_cancellation_aborts_the_stalled_run_and_is_counted() {
    let (engine, _plan) = engine_with(
        // Stall INSIDE the per-net boundary: when the sleep ends the
        // token is already tripped, so the optimizer aborts at its first
        // checkpoint instead of computing to completion for nobody.
        FaultPlan::new().on_nth(Seam::Optimize, 1, FaultAction::StallMs(600)),
        EngineOptions {
            jobs: 1,
            request_deadline: Some(Duration::from_millis(80)),
            ..EngineOptions::default()
        },
    );
    let r = engine.try_optimize(job("too-slow"));
    assert_eq!(r.unwrap_err(), Rejection::DeadlineExceeded);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cancellations, [1, 0, 0, 0], "deadline cancel counted");
    assert_eq!(snap.rejections[1], 1);

    // The cancelled worker aborts right after the stall and, finding its
    // request expired, retires in the surplus worker's place: back to
    // one worker.
    wait_for("the cancelled worker to retire", || {
        engine.live_workers() == 1
    });
    let served = engine.optimize(job("after-recovery"));
    assert_eq!(served.outcome.outcome, Outcome::Optimized);
}

#[test]
fn optimizer_seam_faults_stay_inside_one_record() {
    let (engine, _plan) = engine_with(
        FaultPlan::new()
            .on_nth(Seam::Optimize, 1, FaultAction::Panic)
            .on_nth(Seam::Optimize, 2, FaultAction::IoError),
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
    );
    let panicked = engine.optimize(job("panics"));
    assert_eq!(panicked.outcome.outcome, Outcome::Failed);
    let io = engine.optimize(job("io-errors"));
    assert_eq!(io.outcome.outcome, Outcome::Failed);
    assert!(
        io.outcome
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("injected I/O error"),
        "{:?}",
        io.outcome.error
    );
    let clean = engine.optimize(job("clean"));
    assert_eq!(clean.outcome.outcome, Outcome::Optimized);

    // Contained faults never look like deaths: the pool was untouched.
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.worker_deaths, 0);
    assert_eq!(snap.respawns, 0);
    assert_eq!(snap.retries, 0);
    assert_eq!(engine.live_workers(), 1);
}

#[test]
fn wrong_output_is_caught_by_the_integrity_check_and_retried() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::WrongOutput),
        EngineOptions {
            jobs: 1,
            max_retries: 1,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("verify-me"));
    assert_eq!(served.outcome.name, "verify-me", "corrupt record rejected");
    assert_eq!(served.outcome.outcome, Outcome::Optimized);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.bad_outputs, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.worker_deaths, 0, "corruption is not a thread death");
}

#[test]
fn wrong_output_with_retries_exhausted_fails_the_request() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::WrongOutput),
        EngineOptions {
            jobs: 1,
            max_retries: 0,
            ..EngineOptions::default()
        },
    );
    let served = engine.optimize(job("doomed"));
    assert_eq!(served.outcome.name, "doomed");
    assert_eq!(served.outcome.outcome, Outcome::Failed);
    assert!(
        served
            .outcome
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("wrong net"),
        "{:?}",
        served.outcome.error
    );
    assert_eq!(engine.metrics_snapshot().bad_outputs, 1);
}

#[test]
fn over_watermark_burst_is_shed_while_in_flight_completes() {
    const BURST: usize = 4;
    let (engine, plan) = engine_with(
        // The first dequeued task stalls its worker long enough for the
        // whole burst to arrive while the single queue slot is occupied.
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::StallMs(1500)),
        EngineOptions {
            jobs: 1,
            queue_depth: 1,
            ..EngineOptions::default()
        },
    );
    let engine = Arc::new(engine);

    let in_flight = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.try_optimize(job("in-flight")))
    };
    // The worker has dequeued the in-flight request (arming the seam)
    // and is now stalled; the queue slot is free for exactly one more.
    wait_for("the stalled worker to hold the first request", || {
        plan.armed(Seam::Worker) >= 1
    });

    let burst: Vec<_> = (0..BURST)
        .map(|i| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.try_optimize(job(&format!("burst{i}"))))
        })
        .collect();
    let results: Vec<Result<_, _>> = burst
        .into_iter()
        .map(|t| t.join().expect("burst thread"))
        .collect();

    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(Rejection::Overloaded)))
        .count();
    let admitted = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(admitted, 1, "one burst request fit the queue: {results:?}");
    assert_eq!(shed, BURST - 1, "the rest were shed: {results:?}");
    for r in results.iter().flatten() {
        assert_eq!(r.outcome.outcome, Outcome::Optimized);
    }

    let served = in_flight
        .join()
        .expect("in-flight thread")
        .expect("in-flight request was admitted");
    assert_eq!(
        served.outcome.outcome,
        Outcome::Optimized,
        "shedding never touches admitted work"
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.rejections[0], (BURST - 1) as u64, "overloaded counted");
    assert_eq!(snap.worker_deaths, 0);
}

#[test]
fn deadline_expiry_sheds_the_request_and_the_pool_recovers() {
    let (engine, _plan) = engine_with(
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::StallMs(600)),
        EngineOptions {
            jobs: 1,
            request_deadline: Some(Duration::from_millis(80)),
            ..EngineOptions::default()
        },
    );
    let r = engine.try_optimize(job("too-slow"));
    assert_eq!(r.unwrap_err(), Rejection::DeadlineExceeded);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.rejections[1], 1, "deadline_exceeded counted");
    assert_eq!(
        snap.respawns, 1,
        "a surplus worker backfilled the stalled slot"
    );
    assert_eq!(snap.worker_deaths, 0, "a stall is not a death");

    // The stalled worker eventually finishes and, finding its request
    // expired, retires in the surplus worker's place: back to one worker.
    wait_for("the stalled worker to retire", || {
        engine.live_workers() == 1
    });
    // The blocking path (no deadline) proves the pool serves again —
    // through the surplus worker that replaced the stalled slot.
    let served = engine.optimize(job("after-recovery"));
    assert_eq!(served.outcome.outcome, Outcome::Optimized);
}

#[test]
fn surplus_worker_death_during_a_stall_leaves_the_pool_at_strength() {
    let (engine, _plan) = engine_with(
        FaultPlan::new()
            // The first request stalls its worker past its deadline ...
            .on_nth(Seam::Optimize, 1, FaultAction::StallMs(600))
            // ... and the surplus worker spawned around the stall dies on
            // the next request it dequeues.
            .on_nth(Seam::Worker, 2, FaultAction::KillWorker),
        EngineOptions {
            jobs: 1,
            max_retries: 1,
            request_deadline: Some(Duration::from_millis(80)),
            ..EngineOptions::default()
        },
    );
    let r = engine.try_optimize(job("too-slow"));
    assert_eq!(r.unwrap_err(), Rejection::DeadlineExceeded);

    // The killed request is retried. When the stalled worker retires in
    // the dead surplus worker's place, the supervisor must top the pool
    // back up, or the retry would wait forever.
    let served = engine.optimize(job("survivor"));
    assert_eq!(served.outcome.outcome, Outcome::Optimized);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.worker_deaths, 1);
    assert_eq!(snap.retries, 1);
    wait_for("pool back at target strength", || {
        engine.live_workers() == 1
    });
}

// ---------------------------------------------------------------------
// TCP-level chaos: a defective decoder, connection hardening, and the
// shutdown drain, exercised over a real socket.
// ---------------------------------------------------------------------

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

fn healthy_net_request(id: &str) -> String {
    let (tree, scenario) = adversarial::valid_net(&WorkloadConfig::default());
    let node_names = (0..tree.len()).map(|_| None).collect();
    let text = write_net(&ParsedNet {
        name: None,
        tree,
        scenario,
        node_names,
    });
    let escaped = text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{\"id\":\"{id}\",\"net\":\"{escaped}\"}}")
}

type ChaosServer = (
    std::net::SocketAddr,
    Arc<Engine>,
    Arc<FaultPlan>,
    std::thread::JoinHandle<()>,
);

fn start_chaos_server(plan: FaultPlan, opts: ServeOptions) -> ChaosServer {
    serve_with_decoder(decoder(), plan, opts)
}

fn serve_with_decoder(decode: NetDecoder, plan: FaultPlan, opts: ServeOptions) -> ChaosServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let plan = Arc::new(plan);
    let engine = Arc::new(Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            fault_plan: Some(Arc::clone(&plan)),
            ..EngineOptions::default()
        },
    ));
    let server_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || {
        serve_sharded(listener, vec![server_engine], decode, opts).expect("serve runs");
    });
    (addr, engine, plan, handle)
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

#[test]
fn decoder_panic_costs_one_error_line_and_the_server_survives() {
    let parse_net = decoder();
    let defective: NetDecoder = Arc::new(move |id: &str, body: &str| {
        if id == "boom" {
            panic!("defective decoder");
        }
        parse_net(id, body)
    });
    let (addr, engine, _plan, server) =
        serve_with_decoder(defective, FaultPlan::new(), ServeOptions::default());
    let mut conn = connect(addr);

    let panicked = roundtrip(&mut conn, &healthy_net_request("boom"));
    assert_eq!(
        panicked, "{\"error\":\"internal error while serving the request\"}",
        "a decoder panic is contained to one structured error"
    );
    let clean = roundtrip(&mut conn, &healthy_net_request("c"));
    assert!(
        clean.contains("\"outcome\":\"optimized\""),
        "the connection and server outlive the panic: {clean}"
    );
    assert_eq!(engine.metrics_snapshot().conn_errors, 1, "panic counted");

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("accept loop exits");
}

#[test]
fn oversized_lines_and_idle_connections_are_cut_with_structured_errors() {
    let (addr, engine, _plan, server) = start_chaos_server(
        FaultPlan::new(),
        ServeOptions {
            read_timeout: Some(Duration::from_millis(200)),
            max_line_bytes: 256,
            ..ServeOptions::default()
        },
    );

    // A request line over the limit: one error response, then EOF.
    let mut conn = connect(addr);
    let huge = format!("{{\"id\":\"x\",\"net\":\"{}\"}}", "a".repeat(1024));
    let resp = roundtrip(&mut conn, &huge);
    assert!(resp.contains("exceeds 256 bytes"), "{resp}");
    let mut rest = String::new();
    conn.0.read_line(&mut rest).expect("read");
    assert!(
        rest.is_empty(),
        "connection closed after the error: {rest:?}"
    );

    // An idle connection: timed out with an error line, then EOF.
    let mut idle = connect(addr);
    let mut line = String::new();
    idle.0.read_line(&mut line).expect("read");
    assert!(line.contains("read timed out"), "{line}");

    // The server itself is unharmed and counted both terminations.
    wait_for("both connection errors to be recorded", || {
        engine.metrics_snapshot().conn_errors == 2
    });
    let mut conn = connect(addr);
    let ok = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    assert!(
        ok.contains("\"connections\":{\"errors\":2,\"bad_frames\":0,\"rejected_max_conns\":0}"),
        "{ok}"
    );
    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("accept loop exits");
}

#[test]
fn shutdown_drains_in_flight_requests_instead_of_dropping_them() {
    let (addr, _engine, plan, server) = start_chaos_server(
        // Stall the in-flight request long enough for the shutdown to
        // land squarely while it is being computed.
        FaultPlan::new().on_nth(Seam::Worker, 1, FaultAction::StallMs(400)),
        ServeOptions::default(),
    );

    let mut in_flight = connect(addr);
    in_flight
        .1
        .write_all(format!("{}\n", healthy_net_request("survivor")).as_bytes())
        .expect("send");
    wait_for("the worker to hold the in-flight request", || {
        plan.armed(Seam::Worker) >= 1
    });

    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");

    // The drain must deliver the stalled request's record, not cut it.
    let mut resp = String::new();
    in_flight.0.read_line(&mut resp).expect("drained response");
    assert!(
        resp.contains("\"net\":\"survivor\"") && resp.contains("\"outcome\":\"optimized\""),
        "in-flight request completed through the drain: {resp}"
    );
    server.join().expect("accept loop exits after the drain");
}

#[test]
fn client_disconnect_mid_optimize_cancels_the_run_and_frees_the_worker() {
    let (addr, engine, plan, server) = start_chaos_server(
        // Stall inside the per-net boundary so the request is reliably
        // in flight when the client vanishes; after the sleep the token
        // is tripped and the run aborts at its first checkpoint.
        FaultPlan::new().on_nth(Seam::Optimize, 1, FaultAction::StallMs(400)),
        ServeOptions::default(),
    );

    {
        let mut doomed = connect(addr);
        doomed
            .1
            .write_all(format!("{}\n", healthy_net_request("abandoned")).as_bytes())
            .expect("send");
        wait_for("the worker to hold the request", || {
            plan.armed(Seam::Optimize) >= 1
        });
        // Hang up mid-optimize: both handles drop here, closing the
        // socket while the worker is still grinding.
    }

    // The disconnect monitor trips the token and attributes it.
    wait_for("the disconnect cancellation to be recorded", || {
        engine.metrics_snapshot().cancellations[2] == 1
    });

    // The worker shook off the abandoned run and serves the next client.
    let mut conn = connect(addr);
    let clean = roundtrip(&mut conn, &healthy_net_request("next"));
    assert!(
        clean.contains("\"outcome\":\"optimized\""),
        "the freed worker serves the next request: {clean}"
    );
    let stats = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    assert!(
        stats.contains(
            "\"cancellations\":{\"deadline\":0,\"shutdown\":0,\"disconnect\":1,\"supervisor\":0}"
        ),
        "{stats}"
    );
    assert!(stats.contains("\"cancelled\":1"), "{stats}");

    // The cancelled run's record answered nobody and was not cached:
    // asking for the same net again computes it.
    let again = roundtrip(&mut conn, &healthy_net_request("abandoned"));
    assert!(
        again.contains("\"outcome\":\"optimized\"") && again.contains("\"cache\":\"miss\""),
        "{again}"
    );

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("accept loop exits");
}

// ---------------------------------------------------------------------
// Integrity chaos: corrupted state must be detected, counted, and
// answered with a recompute or a typed error — never served.
// ---------------------------------------------------------------------

/// The fields a recompute must reproduce bit-for-bit (everything except
/// wall-clock timings and serving provenance).
fn assert_same_record(a: &NetOutcome, b: &NetOutcome) {
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.rung, b.rung);
    assert_eq!(a.buffers, b.buffers);
    assert_eq!(a.slack.map(f64::to_bits), b.slack.map(f64::to_bits));
    assert_eq!(
        a.worst_headroom.map(f64::to_bits),
        b.worst_headroom.map(f64::to_bits)
    );
}

/// A branchy net (the memo only engages at 2-child merge points).
fn branchy(name: &str) -> NetInput {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
    let j = b
        .add_internal(b.source(), tech.wire(6_000.0))
        .expect("trunk");
    b.add_sink(j, tech.wire(4_000.0), SinkSpec::new(20e-15, 2.5e-9, 0.8))
        .expect("far sink");
    b.add_sink(j, tech.wire(5_200.0), SinkSpec::new(15e-15, 2.5e-9, 0.8))
        .expect("near sink");
    let tree = b.build().expect("tree");
    let scenario = estimation_scenario(&tree, &WorkloadConfig::default());
    NetInput::Parsed {
        name: name.to_string(),
        tree,
        scenario,
    }
}

/// Sends a raw (already framed or deliberately damaged) request line and
/// decodes the framed response.
fn framed_roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), request: &[u8]) -> String {
    conn.1.write_all(request).expect("send");
    conn.1.write_all(b"\n").expect("send newline");
    let mut line = Vec::new();
    conn.0.read_until(b'\n', &mut line).expect("response");
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    let payload = decode_frame(&line).expect("response frame is intact");
    String::from_utf8(payload.to_vec()).expect("utf-8 payload")
}

#[test]
fn cache_bit_flip_is_detected_evicted_and_recomputed_identically() {
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
    );
    let key = engine.key_for("victim", "same-body");
    let keyed = || Job {
        input: healthy("victim"),
        cache_key: Some(key),
    };

    let first = engine.optimize(keyed());
    assert_eq!(first.cache, CacheStatus::Miss);
    // Bit rot between the insert and the next read.
    assert!(engine.corrupt_cache_entry(key, false), "entry found");

    // The flipped bit must never be served: verify-on-hit catches it,
    // evicts the entry, and the request recomputes from scratch.
    let second = engine.optimize(keyed());
    assert_eq!(second.cache, CacheStatus::Miss, "corrupt entry not served");
    assert_same_record(&first.outcome, &second.outcome);

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cache.corrupt_evictions, 1);
    assert!(snap.cache.integrity_checks >= 1);

    // The recompute re-installed a good entry: the cache is healed.
    let third = engine.optimize(keyed());
    assert_eq!(third.cache, CacheStatus::Hit);
    assert_same_record(&first.outcome, &third.outcome);
}

#[test]
fn memo_bit_flip_is_detected_evicted_and_recomputed_identically() {
    let memo = Arc::new(buffopt::MemoTable::new(32 << 20, 4));
    let mut cfg = pipeline_config();
    cfg.memo = Some(Arc::clone(&memo));
    let engine = Engine::new(
        cfg,
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
    );

    // Distinct cache keys so the second request re-runs the DP (which is
    // what consults the memo); between the two requests one bit of a
    // stored frontier row flips.
    let first = engine.optimize(Job {
        input: branchy("y-one"),
        cache_key: Some(engine.key_for("y-one", "b1")),
    });
    assert!(
        memo.stats().stores > 0,
        "the branchy net stored frontiers: {:?}",
        memo.stats()
    );
    assert!(memo.corrupt_any(), "a stored row to flip");

    let second = engine.optimize(Job {
        input: branchy("y-two"),
        cache_key: Some(engine.key_for("y-two", "b2")),
    });
    let stats = memo.stats();
    assert_eq!(
        stats.corrupt_evictions, 1,
        "flipped row caught at lookup: {stats:?}"
    );
    assert!(stats.integrity_checks >= 1);
    // The poisoned frontier seeded nothing; the cold merge reproduces
    // the exact same record.
    assert_same_record(&first.outcome, &second.outcome);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.memo.corrupt_evictions, 1, "surfaced in the snapshot");
}

#[test]
fn damaged_frames_get_typed_errors_and_the_connection_survives() {
    let (addr, engine, _plan, server) =
        start_chaos_server(FaultPlan::new(), ServeOptions::default());
    let mut conn = connect(addr);

    // An unframed client on the same socket is untouched by framing.
    let plain = roundtrip(&mut conn, &healthy_net_request("plain"));
    assert!(plain.contains("\"outcome\":\"optimized\""), "{plain}");

    // A framed request gets a framed response with the same schema.
    let ok = framed_roundtrip(
        &mut conn,
        &encode_frame(healthy_net_request("framed").as_bytes()),
    );
    assert!(
        ok.contains("\"net\":\"framed\"") && ok.contains("\"outcome\":\"optimized\""),
        "{ok}"
    );

    // Flip one payload byte: typed bad_frame error, connection lives.
    let mut bent = encode_frame(healthy_net_request("bent").as_bytes());
    let n = bent.len();
    bent[n - 3] ^= 0x01;
    let err = framed_roundtrip(&mut conn, &bent);
    assert!(err.contains("\"error\":\"bad_frame\""), "{err}");

    // Tear a frame in half, as a sender that died mid-write: the length
    // check answers with a typed bad_frame error again, and the intact
    // retry goes through on the same connection.
    let torn = encode_frame(healthy_net_request("torn").as_bytes());
    let err = framed_roundtrip(&mut conn, &torn[..torn.len() / 2]);
    assert!(err.contains("\"error\":\"bad_frame\""), "{err}");
    let retry = framed_roundtrip(&mut conn, &torn);
    assert!(
        retry.contains("\"net\":\"torn\"") && retry.contains("\"outcome\":\"optimized\""),
        "{retry}"
    );

    assert_eq!(engine.metrics_snapshot().bad_frames, 2);
    // The connection survived both and the stats line reports the damage.
    let stats = framed_roundtrip(&mut conn, &encode_frame(b"{\"cmd\":\"stats\"}"));
    assert!(stats.contains("\"bad_frames\":2"), "{stats}");
    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("accept loop exits");
}

#[test]
fn verify_sampling_audits_hits_and_misses_with_zero_failures() {
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            verify_sample_rate: 1.0,
            ..EngineOptions::default()
        },
    );
    let key = engine.key_for("audited", "body");
    let keyed = || Job {
        input: healthy("audited"),
        cache_key: Some(key),
    };

    let first = engine.optimize(keyed());
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = engine.optimize(keyed());
    assert_eq!(second.cache, CacheStatus::Hit, "hits are sampled too");

    wait_for("both responses to be audited", || {
        engine.metrics_snapshot().verify_samples == 2
    });
    assert_eq!(
        engine.metrics_snapshot().verify_failures,
        0,
        "honest records pass the audit"
    );
    // Nothing was invalidated: the entry still serves.
    assert_eq!(engine.optimize(keyed()).cache, CacheStatus::Hit);
}

#[test]
fn rehashed_corruption_slips_verify_on_hit_but_the_sampled_audit_catches_it() {
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            verify_sample_rate: 1.0,
            ..EngineOptions::default()
        },
    );
    let key = engine.key_for("sneaky", "body");
    let keyed = || Job {
        input: healthy("sneaky"),
        cache_key: Some(key),
    };

    let honest = engine.optimize(keyed());
    assert_eq!(honest.cache, CacheStatus::Miss);
    wait_for("the honest record to be audited", || {
        engine.metrics_snapshot().verify_samples == 1
    });

    // An adversarial corruption that also recomputes the stored
    // checksum: verify-on-hit is blind to it by construction.
    assert!(
        engine.corrupt_cache_entry(key, true),
        "entry found and doctored"
    );
    let lied = engine.optimize(keyed());
    assert_eq!(lied.cache, CacheStatus::Hit, "the checksum matched the lie");
    assert_ne!(
        lied.outcome.slack.map(f64::to_bits),
        honest.outcome.slack.map(f64::to_bits),
        "the served record really was doctored"
    );

    // The off-path audit re-derives the summaries from the input,
    // catches the disagreement, and invalidates the entry.
    wait_for("the audit to flag the doctored record", || {
        engine.metrics_snapshot().verify_failures == 1
    });
    assert_eq!(
        engine.metrics_snapshot().cache.corrupt_evictions,
        0,
        "verify-on-hit never fired; only the audit saw through it"
    );

    // The poison is gone — the next request recomputes honestly.
    let healed = engine.optimize(keyed());
    assert_eq!(healed.cache, CacheStatus::Miss);
    assert_same_record(&honest.outcome, &healed.outcome);
}
