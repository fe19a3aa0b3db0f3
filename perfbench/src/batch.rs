//! The batch workloads, closed loop on one thread (one worker):
//!
//! * `paper500` — the Table-I population (500 nets) as `.net` text; each
//!   pass parses and optimizes every net down the pipeline ladder, as
//!   `buffopt-cli --batch` does, with memo and cache off. Most nets have
//!   one sink, so per-net fixed costs dominate.
//! * `large-nets` — 48–160-sink scaling nets, already segmented at
//!   400 µm, as `.net` text through the same parse and ladder with the
//!   full 11-buffer library, where DP merge and prune take nearly all
//!   the time. Their wires are all shorter than the 500 µm segment
//!   length, so segmenting copies the tree unchanged.
//!
//! Each answer is serialized to its JSON record, as the CLI writes it.

use std::time::Instant;

use buffopt::DpWorkspace;
use buffopt_buffers::catalog;
use buffopt_netlist::{parse, write, ParsedNet};
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::{
    optimize_input_with, reverify_outcome, NetInput, NetOutcome, Outcome, PipelineConfig, Reverify,
    Rung,
};
use buffopt_server::{CacheStatus, Engine, EngineOptions, Job};
use buffopt_tree::RoutingTree;
use buffopt_workload::{estimation_scenario, generate, scaling_net, ScalingConfig, WorkloadConfig};

use crate::layers::{self, Counters};
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{Args, Report};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Paper500,
    LargeNets,
}

/// Wire segment length (µm), as the CLI's default.
const SEGMENT_UM: f64 = 500.0;
/// Sink counts of the `large-nets` set: 48 to 160 in steps of 4, 29
/// nets. Per-net time varies about ±40 % between nets of one size, so
/// the set must be this large for its total to vary little between seeds.
const LARGE_MIN_SINKS: usize = 48;
const LARGE_MAX_SINKS: usize = 160;
const LARGE_SINK_STEP: usize = 4;
/// Each set-up warms up on the `1/WARMUP_DIVISOR` of the nets with the
/// most sinks of the `WARMUP_SEED` inputs, the same nets whatever
/// `--seed` is.
const WARMUP_DIVISOR: usize = 20;
const WARMUP_SEED: u64 = 0;
/// The traced phase runs at least this many passes.
const MIN_PASSES: usize = 2;
/// Share of passes the secondary fastest-passes estimator keeps.
const FAST_SHARE: f64 = 0.1;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Paper500 => "paper500",
            Kind::LargeNets => "large-nets",
        }
    }

    /// The configuration recorded in this workload's `why`.
    pub fn config_tag(self) -> String {
        format!("jobs=1 cache=off memo=off lib=ibm_like seg_um={SEGMENT_UM}")
    }

    /// Set-ups per run; `setup_s` is their median. A `paper500` set-up
    /// takes about 15 ms and its samples within one run are bimodal, so
    /// it takes many; a `large-nets` set-up takes about 0.5 s.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Paper500 => 31,
            Kind::LargeNets => 7,
        }
    }

    /// Passes the `nets_per_s` floors are taken over (see `run`); a run
    /// makes at least this many. `large-nets` makes about six in 30 s.
    fn floor_passes(self) -> usize {
        match self {
            Kind::Paper500 => 32,
            Kind::LargeNets => 4,
        }
    }
}

fn pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(catalog::ibm_like());
    cfg.max_segment = Some(SEGMENT_UM);
    cfg
}

/// One input. Nets are optimized from `text`; `tree` and `scenario` are
/// its parse, kept for re-verification and trace replay.
struct Net {
    name: String,
    text: String,
    tree: RoutingTree,
    scenario: NoiseScenario,
}

fn inputs(kind: Kind, seed: u64) -> Result<Vec<Net>, String> {
    let wl = WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    };
    let generated: Vec<(String, RoutingTree)> = match kind {
        Kind::Paper500 => generate(&wl)
            .into_iter()
            .map(|g| (format!("net{:03}", g.id), g.tree))
            .collect(),
        Kind::LargeNets => (LARGE_MIN_SINKS..=LARGE_MAX_SINKS)
            .step_by(LARGE_SINK_STEP)
            .enumerate()
            .map(|(i, sinks)| {
                let tree = scaling_net(&ScalingConfig {
                    seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                    sinks,
                    ..ScalingConfig::default()
                });
                (format!("large{sinks}"), tree)
            })
            .collect(),
    };
    generated
        .into_iter()
        .map(|(name, tree)| {
            let scenario = estimation_scenario(&tree, &wl);
            let text = net_text(&name, tree, scenario);
            let back = parse(&text).map_err(|e| format!("{name} does not parse: {e}"))?;
            Ok(Net {
                name,
                text,
                tree: back.tree,
                scenario: back.scenario,
            })
        })
        .collect()
}

/// Encodes a net in the `.net` text format.
pub fn net_text(name: &str, tree: RoutingTree, scenario: NoiseScenario) -> String {
    let node_names = tree
        .node_ids()
        .map(|v| {
            Some(if v == tree.source() {
                "source".to_string()
            } else {
                format!("n{}", v.index())
            })
        })
        .collect();
    write(&ParsedNet {
        name: Some(name.to_string()),
        tree,
        scenario,
        node_names,
    })
}

/// Parses a net as the CLI's batch mode does: a parse failure becomes a
/// `parse_error` record, not an abort.
pub fn decode(name: &str, text: &str) -> NetInput {
    match parse(text) {
        Ok(net) => NetInput::Parsed {
            name: net.name.unwrap_or_else(|| name.to_string()),
            tree: net.tree,
            scenario: net.scenario,
        },
        Err(e) => NetInput::Failed {
            name: name.to_string(),
            error: e.to_string(),
        },
    }
}

/// Parses, optimizes and serializes one net, as the CLI's batch mode
/// does for each input file.
fn answer(ws: &mut DpWorkspace, cfg: &PipelineConfig, net: &Net) -> NetOutcome {
    let out = optimize_input_with(ws, &decode(&net.name, &net.text), cfg);
    std::hint::black_box(out.to_json());
    out
}

/// Digest of the answer fields (telemetry such as `wall` and peak
/// counters excluded).
fn answer_digest(o: &NetOutcome) -> u64 {
    let bits = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits).to_le_bytes();
    Fnv::new()
        .bytes(o.name.as_bytes())
        .bytes(o.outcome.as_str().as_bytes())
        .bytes(o.rung.map_or("", Rung::as_str).as_bytes())
        .bytes(&o.buffers.map_or(u64::MAX, |b| b as u64).to_le_bytes())
        .bytes(&bits(o.slack))
        .bytes(&bits(o.worst_headroom))
        .finish()
}

/// One untraced pass; fills `outs` and `per_net` (seconds) and returns
/// the pass time in seconds.
fn pass(
    ws: &mut DpWorkspace,
    cfg: &PipelineConfig,
    nets: &[Net],
    outs: &mut Vec<NetOutcome>,
    per_net: &mut [f64],
) -> f64 {
    outs.clear();
    let start = Instant::now();
    for (net, slot) in nets.iter().zip(per_net.iter_mut()) {
        let t = Instant::now();
        let out = answer(ws, cfg, std::hint::black_box(net));
        *slot = t.elapsed().as_secs_f64();
        outs.push(out);
    }
    start.elapsed().as_secs_f64()
}

/// One traced pass: per net a `request` span holding the parse, the
/// real `optimize_input_with` call (`pipeline.optimize`) and the record's
/// serialization. After the request span closes, the ladder is replayed
/// under `pipeline.optimize`, and the net is answered once more by the
/// engine the CLI's batch mode runs its nets through (`server.engine_*`,
/// which `answer` leaves out). Returns the time spent in `request` spans,
/// so that the replays do not count as tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    ws: &mut DpWorkspace,
    cfg: &PipelineConfig,
    engine: &Engine,
    nets: &[Net],
    outs: &mut Vec<NetOutcome>,
    tr: &mut Tracer,
    c: &mut Counters,
    req_base: u64,
) -> Result<f64, String> {
    outs.clear();
    let mut busy = 0.0;
    for (i, net) in nets.iter().enumerate() {
        let req = req_base + i as u64;
        let start = Instant::now();
        let root = tr.open("request", req, None);
        let p = tr.open("netlist.parse", req, Some(root));
        let input = decode(&net.name, &net.text);
        tr.close(p);
        c.parse_bytes += net.text.len() as u64;
        let o = tr.open("pipeline.optimize", req, Some(root));
        let out = optimize_input_with(ws, &input, cfg);
        tr.close(o);
        let z = tr.open("server.serialize", req, Some(root));
        std::hint::black_box(out.to_json());
        tr.close(z);
        tr.close(root);
        busy += start.elapsed().as_secs_f64();

        let replayed = layers::replay_ladder(tr, req, o, ws, cfg, &net.tree, &net.scenario, c);
        c.note_answer(&out, replayed);
        let job = Job {
            cache_key: Some(engine.key_for(&net.name, &net.text)),
            input,
        };
        let e = tr.open("server.engine", req, Some(root));
        let served = engine.try_optimize(job);
        tr.close(e);
        let served = served.map_err(|e| format!("engine refused {}: {}", net.name, e.as_str()))?;
        tr.spans[e].name = match served.cache {
            CacheStatus::Hit => "server.engine_hit",
            CacheStatus::Miss => "server.engine_miss",
        };
        if answer_digest(&served.outcome) != answer_digest(&out) {
            c.replay_mismatch += 1;
        }
        outs.push(out);
    }
    Ok(busy)
}

/// Counts, per net, the passes whose answer fields equal the reference's
/// (`matches`), and returns how many answers were `optimized`.
fn tally(outs: &[NetOutcome], ref_digest: &[u64], matches: &mut [u64]) -> u64 {
    for ((o, d), m) in outs.iter().zip(ref_digest).zip(matches.iter_mut()) {
        *m += u64::from(answer_digest(o) == *d);
    }
    outs.iter()
        .filter(|o| o.outcome == Outcome::Optimized)
        .count() as u64
}

/// Re-verifies each reference answer with the independent audit and
/// returns how many answers were ok: those equal to a reference answer
/// that is not a failure and that the audit agrees with.
fn ok_answers(
    ws: &mut DpWorkspace,
    cfg: &PipelineConfig,
    nets: &[Net],
    reference: &[NetOutcome],
    matches: &[u64],
) -> u64 {
    nets.iter()
        .zip(reference)
        .zip(matches)
        .map(|((net, out), &m)| {
            let input = NetInput::Parsed {
                name: net.name.clone(),
                tree: net.tree.clone(),
                scenario: net.scenario.clone(),
            };
            let failed = matches!(out.outcome, Outcome::Failed | Outcome::ParseError);
            match reverify_outcome(ws, &input, cfg, out) {
                Reverify::Consistent | Reverify::NotApplicable if !failed => m,
                Reverify::Mismatch(why) => {
                    eprintln!("perfbench: {} failed re-verification: {why}", out.name);
                    0
                }
                _ => 0,
            }
        })
        .sum()
}

pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    // The warm-up inputs are made first, so that their generation and the
    // run's do not both count towards the peak resident set.
    let mut warm = inputs(kind, WARMUP_SEED)?;
    let nets = inputs(kind, args.seed)?;
    let n = nets.len();
    let mut per_net = vec![0.0; n];

    // Set-up: build the system under test (library, pipeline config, DP
    // workspace) and warm it on the nets with the most sinks of a fixed
    // input set, which grow the workspace to its working size. The
    // warm-up nets do not depend on `--seed`, so `setup_s` measures the
    // set-up, not the seed's largest nets. It is repeated at evenly
    // spaced times through the timed phase, and `setup_s` is the median:
    // a shared machine's speed can change within seconds, so set-ups
    // made back to back all land in one state. Only one system under test is
    // alive at a time, as in the CLI, so the previous one is dropped
    // before the next is built; the passes run on the latest.
    warm.sort_by_key(|net| std::cmp::Reverse(net.tree.sinks().len()));
    warm.truncate(n.div_ceil(WARMUP_DIVISOR));
    let set_up = |sut: &mut Option<(PipelineConfig, DpWorkspace)>| {
        drop(sut.take());
        let t = Instant::now();
        let cfg = pipeline_config();
        let mut ws = DpWorkspace::new();
        for net in &warm {
            std::hint::black_box(answer(&mut ws, &cfg, net));
        }
        *sut = Some((cfg, ws));
        t.elapsed().as_secs_f64()
    };

    // Timed, untraced passes (half the run when tracing). The first
    // pass's answers are the reference every later pass must repeat.
    let untraced_for = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let setup_reps = kind.setup_reps();
    let setup_every = untraced_for / setup_reps as u32;
    let floor_passes = kind.floor_passes();
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut sut = None;
    let mut pass_s = Vec::new();
    let mut pass_net_s: Vec<Vec<f64>> = Vec::new();
    let mut peak_rss = 0.0;
    let mut reference = Vec::new();
    let mut ref_digest = Vec::new();
    let mut matches = vec![0u64; n];
    let (mut optimized, mut attempted) = (0u64, 0u64);
    let mut outs = Vec::with_capacity(n);
    let started = Instant::now();
    loop {
        while setup_s.len() < setup_reps && started.elapsed() >= setup_every * setup_s.len() as u32
        {
            setup_s.push(set_up(&mut sut));
        }
        if started.elapsed() >= untraced_for
            && pass_s.len() >= floor_passes
            && setup_s.len() == setup_reps
        {
            break;
        }
        let (cfg, ws) = sut.as_mut().expect("set up before the first pass");
        pass_s.push(pass(ws, cfg, &nets, &mut outs, &mut per_net));
        pass_net_s.push(per_net.clone());
        if pass_s.len() == 1 {
            peak_rss = crate::peak_rss_mb();
            ref_digest = outs.iter().map(answer_digest).collect();
            reference = outs.clone();
        }
        optimized += tally(&outs, &ref_digest, &mut matches);
        attempted += n as u64;
    }
    let (cfg, mut ws) = sut.expect("set up before the first pass");

    let fast_pass = stats::fastest_mean(&pass_s, FAST_SHARE);
    // `nets_per_s` divides by the sum of each net's fastest time over
    // `floor_passes` passes spread evenly through the run. Interference
    // only slows a net down and every pass repeats the same work, so the
    // floors are the steadiest estimate (NOTES.md); a fixed count keeps it
    // from growing more optimistic as a faster program fits in more passes.
    let p = pass_s.len();
    let picked: Vec<usize> = (0..floor_passes)
        .map(|j| j * (p - 1) / (floor_passes - 1))
        .collect();
    let floor_sum: f64 = (0..n)
        .map(|i| {
            picked
                .iter()
                .map(|&k| pass_net_s[k][i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let nets_per_s = n as f64 / floor_sum;
    let set_digest = ref_digest
        .iter()
        .fold(Fnv::new(), |h, d| h.bytes(&d.to_le_bytes()))
        .finish();
    let mut report = Report {
        attempted,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![
            format!("answer_digest {set_digest:016x} over {n} nets"),
            format!(
                "{p} passes; nets/s: floor over {floor_passes} {:.1}, fastest-tenth {:.1}, mean {:.1}, median pass {:.1}",
                nets_per_s,
                n as f64 / fast_pass,
                n as f64 / stats::mean(&pass_s),
                n as f64 / stats::median(&pass_s),
            ),
            format!(
                "setup_s over {setup_reps} set-ups of {} warm-up nets: min {:.4}, median {:.4}, max {:.4}",
                warm.len(),
                stats::quantile(&setup_s, 0.0),
                stats::median(&setup_s),
                stats::quantile(&setup_s, 1.0)
            ),
        ],
    };

    if !args.trace {
        let ok = ok_answers(&mut ws, &cfg, &nets, &reference, &matches);
        report.failed = attempted - ok;
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("nets_per_s", nets_per_s, "1/s");
        report.metric("ok_share", ok as f64 / attempted as f64, "share");
        report.metric(
            "optimized_share",
            optimized as f64 / attempted as f64,
            "share",
        );
        let buffers_total: usize = reference.iter().filter_map(|o| o.buffers).sum();
        report.metric("buffers_total", buffers_total as f64, "count");
        report.metric("peak_rss_mb", peak_rss, "MiB");
        return Ok(report);
    }

    // Traced passes for the rest of the run, beside an engine as the
    // CLI's batch mode builds it: one worker, cache and memo off.
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut traced_s = Vec::new();
    let started = Instant::now();
    while started.elapsed() < args.seconds - untraced_for || traced_s.len() < MIN_PASSES {
        let base = (traced_s.len() * n) as u64;
        traced_s.push(traced_pass(
            &mut ws, &cfg, &engine, &nets, &mut outs, &mut tr, &mut c, base,
        )?);
        tally(&outs, &ref_digest, &mut matches);
        report.attempted += n as u64;
    }
    c.note_engine(&engine.metrics_snapshot());
    let ok = ok_answers(&mut ws, &cfg, &nets, &reference, &matches);
    report.failed = report.attempted - ok + c.replay_mismatch;
    let path = std::path::PathBuf::from(format!(
        ".bench_trace/{}-seed{}.jsonl",
        kind.name(),
        args.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        path.display()
    ));
    // The batch path has no front end: the request span is the caller's.
    layers::report(
        &mut report,
        &tr,
        &c,
        traced_s.len() as f64,
        "request",
        false,
        stats::fastest_mean(&traced_s, FAST_SHARE) / fast_pass - 1.0,
    );
    Ok(report)
}
