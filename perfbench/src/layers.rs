//! The per-layer metrics of the traced run. Every workload reports the
//! same set, from the same spans and counters: a layer that is not on a
//! workload's request path reports what it did there, which is nothing
//! (`memo.*` with the memo off, no front end on the batch path). Layer
//! times that only some workloads have are reported as shares of the
//! request time, so they read 0 where the layer is absent rather than
//! being left out.

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{algorithm2, audit, Assignment, DpWorkspace, RunBudget, Solution};
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::{NetOutcome, PipelineConfig, Rung};
use buffopt_server::MetricsSnapshot;
use buffopt_tree::{segment, RoutingTree};

use crate::trace::Tracer;
use crate::Report;

/// Exact counts gathered by the traced passes.
#[derive(Default)]
pub struct Counters {
    /// Answers the ladder was replayed for.
    pub answers: u64,
    pub attempts: u64,
    pub rungs: [u64; 4],
    pub parse_bytes: u64,
    pub nodes: u64,
    pub segmented: u64,
    pub problem2: u64,
    pub algorithm2: u64,
    pub candidates_peak: usize,
    pub arena_peak: usize,
    pub merge_enumerated: u64,
    pub merge_pruned: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_seeded: u64,
    pub memo_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    /// Replays that ended on another rung than the real call.
    pub replay_mismatch: u64,
}

impl Counters {
    fn note_solution(&mut self, sol: &Solution) {
        self.candidates_peak = self.candidates_peak.max(sol.peak_candidates);
        self.arena_peak = self.arena_peak.max(sol.peak_arena_bytes);
        self.merge_enumerated += sol.merge_products_enumerated as u64;
        self.merge_pruned += sol.merge_products_pruned as u64;
    }

    /// Adds an engine's memo, cache and admission counters.
    pub fn note_engine(&mut self, snap: &MetricsSnapshot) {
        self.memo_hits += snap.memo.hits;
        self.memo_misses += snap.memo.misses;
        self.memo_seeded += snap.memo.seeded;
        self.memo_bytes += snap.memo.bytes as u64;
        self.cache_hits += snap.cache.hits;
        self.cache_misses += snap.cache.misses;
        self.rejected += snap.rejections.iter().sum::<u64>();
    }

    /// Counts the real answer `out` and the rung its replay ended on.
    pub fn note_answer(&mut self, out: &NetOutcome, replayed: Option<Rung>) {
        if replayed != out.rung {
            self.replay_mismatch += 1;
        }
        self.answers += 1;
        self.attempts += out.attempts.len() as u64 + u64::from(out.rung.is_some());
        if let Some(r) = out.rung {
            self.rungs[rung_index(r)] += 1;
        }
    }
}

fn rung_index(r: Rung) -> usize {
    match r {
        Rung::Problem3 => 0,
        Rung::Problem2 => 1,
        Rung::NoiseOnly => 2,
        Rung::Unbuffered => 3,
    }
}

/// Replays the pipeline ladder's inner calls for one net, each in a span
/// under `parent`, and returns the rung the ladder ends on. The replay
/// follows `optimize_net_with` rung for rung: segment, Problem 3, then
/// Problem 2, Algorithm 2 and the unbuffered diagnosis as each fails.
#[allow(clippy::too_many_arguments)]
pub fn replay_ladder(
    tr: &mut Tracer,
    req: u64,
    parent: usize,
    ws: &mut DpWorkspace,
    cfg: &PipelineConfig,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    c: &mut Counters,
) -> Option<Rung> {
    let lib = &cfg.library;
    let budget = RunBudget::default();
    let opts = BuffOptOptions {
        conservative_pruning: cfg.conservative,
        polarity_aware: cfg.polarity,
        budget: budget.clone(),
        memo: cfg.memo.clone(),
        ..BuffOptOptions::default()
    };
    let segmented;
    let work = match cfg.max_segment {
        None => Some((tree, scenario)),
        Some(len) => {
            let s = tr.open("tree.segment", req, Some(parent));
            segmented = segment::segment_wires(tree, len).ok().map(|seg| {
                let sc = scenario.for_segmented(&seg);
                (seg.tree, sc)
            });
            tr.close(s);
            if let Some((t, _)) = &segmented {
                c.nodes += t.len() as u64;
                c.segmented += 1;
            }
            segmented.as_ref().map(|(t, s)| (t, s))
        }
    };
    let audit_dp = |tr: &mut Tracer, ws: &mut DpWorkspace, t, s, sol: &Solution| {
        let a = tr.open("core.audit", req, Some(parent));
        let _ = audit::noise_summary_with(ws.analysis(), t, s, lib, &sol.assignment);
        tr.close(a);
    };
    if let Some((wt, wsc)) = work {
        let s = tr.open("core.problem3", req, Some(parent));
        let p3 = algo3::min_buffers_with(ws, wt, wsc, lib, &opts);
        tr.close(s);
        if let Ok(sol) = p3 {
            c.note_solution(&sol);
            if sol.slack >= 0.0 || sol.degraded_by.is_some() {
                audit_dp(tr, ws, wt, wsc, &sol);
                return Some(Rung::Problem3);
            }
        }
        c.problem2 += 1;
        let s = tr.open("core.problem2", req, Some(parent));
        let p2 = algo3::optimize_with(ws, wt, wsc, lib, &opts);
        tr.close(s);
        if let Ok(sol) = p2 {
            c.note_solution(&sol);
            audit_dp(tr, ws, wt, wsc, &sol);
            return Some(Rung::Problem2);
        }
    }
    c.algorithm2 += 1;
    let s = tr.open("core.algorithm2", req, Some(parent));
    let a2 = algorithm2::avoid_noise_budgeted_with(ws, tree, scenario, lib, &budget);
    tr.close(s);
    let a = tr.open("core.audit", req, Some(parent));
    let served = match a2 {
        Ok(sol) => {
            let _ = audit::noise_summary_with(
                ws.analysis(),
                &sol.tree,
                &sol.scenario,
                lib,
                &sol.assignment,
            );
            let _ = audit::delay_summary_with(ws.analysis(), &sol.tree, lib, &sol.assignment);
            Some(Rung::NoiseOnly)
        }
        Err(_) => {
            let empty = Assignment::empty(tree);
            let noise = audit::noise_summary_with(ws.analysis(), tree, scenario, lib, &empty);
            let delay = audit::delay_summary_with(ws.analysis(), tree, lib, &empty);
            (noise.is_ok() && delay.is_ok()).then_some(Rung::Unbuffered)
        }
    };
    tr.close(a);
    served
}

/// Reports every per-layer metric of `BENCHMARK.json`, in its order.
/// `request` names the span that holds one whole request (its total is
/// the denominator of the time shares); `frontend` says whether that
/// span is a client round trip through a front end, whose self time is
/// then the front end's. `passes` normalizes the per-pass counts.
pub fn report(
    report: &mut Report,
    tr: &Tracer,
    c: &Counters,
    passes: f64,
    request: &str,
    frontend: bool,
    overhead: f64,
) {
    let request_us = tr.total_us(request);
    let share = |us: f64| us / request_us;
    let answers = c.answers.max(1) as f64;
    report.metric("netlist.parse_us", tr.mean_us("netlist.parse").0, "us");
    report.metric(
        "netlist.parse_mb_s",
        c.parse_bytes as f64 / tr.total_us("netlist.parse"),
        "MB/s",
    );
    report.metric("tree.segment_us", tr.mean_us("tree.segment").0, "us");
    report.metric(
        "tree.nodes_per_net",
        c.nodes as f64 / c.segmented.max(1) as f64,
        "count",
    );
    report.metric("core.problem3_us", tr.mean_us("core.problem3").0, "us");
    report.metric("core.problem2_calls", c.problem2 as f64 / passes, "count");
    report.metric(
        "core.algorithm2_calls",
        c.algorithm2 as f64 / passes,
        "count",
    );
    report.metric("core.audit_us", tr.mean_us("core.audit").0, "us");
    report.metric("core.candidates_peak", c.candidates_peak as f64, "count");
    report.metric(
        "core.merge_enumerated",
        c.merge_enumerated as f64 / passes,
        "count",
    );
    report.metric(
        "core.merge_skip_share",
        c.merge_pruned as f64 / (c.merge_enumerated + c.merge_pruned).max(1) as f64,
        "share",
    );
    report.metric("core.arena_peak_kb", c.arena_peak as f64 / 1024.0, "KiB");
    report.metric(
        "memo.hit_share",
        c.memo_hits as f64 / (c.memo_hits + c.memo_misses).max(1) as f64,
        "share",
    );
    report.metric("memo.seeded", c.memo_seeded as f64 / passes, "count");
    report.metric("memo.bytes", c.memo_bytes as f64 / passes, "bytes");
    report.metric(
        "pipeline.optimize_us",
        tr.mean_us("pipeline.optimize").0,
        "us",
    );
    report.metric(
        "pipeline.self_us",
        tr.mean_self_us("pipeline.optimize"),
        "us",
    );
    report.metric(
        "pipeline.attempts_per_net",
        c.attempts as f64 / answers,
        "count",
    );
    for (i, name) in [
        "pipeline.rung_share.problem3",
        "pipeline.rung_share.problem2",
        "pipeline.rung_share.noise_only",
        "pipeline.rung_share.unbuffered",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(name, c.rungs[i] as f64 / answers, "share");
    }
    report.metric(
        "server.engine_miss_us",
        tr.mean_us("server.engine_miss").0,
        "us",
    );
    report.metric(
        "server.hit_time_share",
        share(tr.total_us("server.engine_hit")),
        "share",
    );
    report.metric(
        "server.cache_hit_share",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "share",
    );
    report.metric("server.rejected", c.rejected as f64, "count");
    report.metric(
        "server.serialize_us",
        tr.mean_us("server.serialize").0,
        "us",
    );
    let frontend_us = if frontend {
        tr.self_us(request).iter().fold(0.0, |a, b| a + b)
    } else {
        0.0
    };
    report.metric("server.frontend_share", share(frontend_us), "share");
    report.metric(
        "integrity.crc_share",
        share(tr.total_us("integrity.crc")),
        "share",
    );
    report.metric("trace.overhead", overhead, "share");
}
