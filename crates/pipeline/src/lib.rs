//! Fault-isolated batch optimization pipeline.
//!
//! The paper's production story (Section VI) is a sweep over the 500
//! noisiest nets of a microprocessor design. At that scale a single
//! pathological net must not take down the batch: this crate wraps each
//! per-net run in a panic boundary and a [`RunBudget`], walks a graceful-
//! degradation ladder when the preferred formulation fails, and emits a
//! structured outcome record per net so the batch is diagnosable after
//! the fact.
//!
//! # The degradation ladder
//!
//! Each net descends until a rung holds:
//!
//! 1. [`Rung::Problem3`] — BuffOpt's production mode: fewest buffers
//!    meeting *both* noise and timing. Serves the net when slack ≥ 0.
//! 2. [`Rung::Problem2`] — maximum slack under noise constraints; accepted
//!    even when timing is unmeetable (negative slack ⇒ degraded). Rungs 1
//!    and 2 are served by one bounded count search
//!    ([`buffopt::buffopt::min_buffers_with`]): capped DP runs find the
//!    fewest-buffer answer, and a net that misses timing finishes with one
//!    uncapped run whose best-slack solution is Problem 2's. A net whose
//!    DP fails records that failure once, as its Problem 3 attempt.
//! 3. [`Rung::NoiseOnly`] — Algorithm 2 continuous noise avoidance on the
//!    unsegmented tree: ignores timing entirely, but leaves the net
//!    functionally correct.
//! 4. [`Rung::Unbuffered`] — nothing worked; the net is left untouched and
//!    the record carries an unbuffered noise/timing diagnosis.
//!
//! Every rung runs inside `catch_unwind` and under the per-net budget, so
//! a panic or a runaway candidate explosion in one net degrades *that*
//! net and the batch keeps going.
//!
//! [`RunBudget`]: buffopt::RunBudget

#![warn(missing_docs)]

pub mod fault;
pub mod journal;

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{
    algorithm2, audit, Assignment, BudgetResource, CancelToken, CoreError, DpWorkspace, RunBudget,
    Solution,
};
use buffopt_buffers::BufferLibrary;
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, RoutingTree};

/// One net handed to [`run_batch`]: either a parsed tree + scenario, or a
/// record of why parsing failed (kept so the batch report covers every
/// input file).
#[derive(Debug, Clone)]
pub enum NetInput {
    /// A net ready to optimize.
    Parsed {
        /// Net name (usually the file stem).
        name: String,
        /// The routing tree (unsegmented; the pipeline segments it).
        tree: RoutingTree,
        /// The noise scenario for `tree`.
        scenario: NoiseScenario,
    },
    /// A net that failed to parse; `error` is the parser's message.
    Failed {
        /// Net name (usually the file stem).
        name: String,
        /// Why parsing failed.
        error: String,
    },
}

impl NetInput {
    /// The net's name, whichever variant carries it.
    pub fn name(&self) -> &str {
        match self {
            NetInput::Parsed { name, .. } | NetInput::Failed { name, .. } => name,
        }
    }
}

/// Batch-wide configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The buffer library every net is optimized against.
    pub library: BufferLibrary,
    /// Segment wires to at most this length (µm) before the DP runs;
    /// `None` means the trees are already segmented.
    pub max_segment: Option<f64>,
    /// Per-net wall-clock limit; each net gets a fresh deadline.
    pub time_limit: Option<Duration>,
    /// Per-node candidate-list cap (see [`RunBudget::max_candidates`]).
    pub max_candidates: Option<usize>,
    /// Tree-size cap (see [`RunBudget::max_tree_nodes`]).
    pub max_tree_nodes: Option<usize>,
    /// Per-run provenance-arena byte cap (see
    /// [`RunBudget::max_arena_bytes`]). Setting it also turns on
    /// degrade-in-place for the DP rungs: under arena or candidate-cap
    /// pressure the DP clamps its frontier and finishes with a feasible
    /// but possibly suboptimal solution, tagged in the record, instead of
    /// erroring.
    pub max_arena_bytes: Option<usize>,
    /// Conservative 4-D pruning in the DP rungs.
    pub conservative: bool,
    /// Polarity-aware DP rungs.
    pub polarity: bool,
    /// Cross-request subtree memo table shared by every net run under
    /// this config (`None` = no memoization). Ignored by the DP whenever
    /// `max_arena_bytes` is set — arena-byte degrade is whole-run state a
    /// subtree entry cannot bind (see DESIGN §13). Note that seeded runs
    /// return bitwise-identical *solutions* but may report different
    /// peak statistics, so batch drivers wanting byte-stable JSONL keep
    /// this off.
    pub memo: Option<std::sync::Arc<buffopt::MemoTable>>,
}

impl PipelineConfig {
    /// A config with the given library, 500 µm segmenting, and no
    /// resource limits.
    pub fn new(library: BufferLibrary) -> Self {
        PipelineConfig {
            library,
            max_segment: Some(500.0),
            time_limit: None,
            max_candidates: None,
            max_tree_nodes: None,
            max_arena_bytes: None,
            conservative: false,
            polarity: false,
            memo: None,
        }
    }

    /// The budget for one net, and the one place that decides it: an
    /// arena byte cap turns on degrade-in-place. The time limit is carried
    /// as a relative `Duration`; the optimizer arms it when the net
    /// actually starts running, so a net that waited in a queue keeps its
    /// whole allowance.
    pub fn budget(&self) -> RunBudget {
        RunBudget {
            deadline: None,
            time_limit: self.time_limit,
            max_candidates: self.max_candidates,
            max_tree_nodes: self.max_tree_nodes,
            max_arena_bytes: self.max_arena_bytes,
            degrade: self.max_arena_bytes.is_some(),
            cancel: CancelToken::new(),
        }
    }
}

/// Which ladder rung produced (or last diagnosed) a net's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// BuffOpt Problem 3: fewest buffers meeting noise and timing.
    Problem3,
    /// BuffOpt Problem 2: maximum slack under noise constraints.
    Problem2,
    /// Algorithm 2: continuous noise avoidance, timing ignored.
    NoiseOnly,
    /// No optimizer succeeded; unbuffered diagnosis only.
    Unbuffered,
}

impl Rung {
    /// Stable lowercase identifier used in the JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Problem3 => "problem3",
            Rung::Problem2 => "problem2",
            Rung::NoiseOnly => "noise_only",
            Rung::Unbuffered => "unbuffered",
        }
    }
}

/// Final classification of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Noise and timing both met.
    Optimized,
    /// Noise met, timing not (or unknown, for the noise-only rung).
    Degraded,
    /// Noise constraints cannot be satisfied; net left unbuffered.
    Infeasible,
    /// The input never parsed.
    ParseError,
    /// Unexpected failure (panic or tree transformation error) on every
    /// rung, including the diagnosis.
    Failed,
}

impl Outcome {
    /// Stable lowercase identifier used in the JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Optimized => "optimized",
            Outcome::Degraded => "degraded",
            Outcome::Infeasible => "infeasible",
            Outcome::ParseError => "parse_error",
            Outcome::Failed => "failed",
        }
    }
}

/// A rung that was tried and did not serve the net, with the reason.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The rung that failed.
    pub rung: Rung,
    /// Why it failed (error display, panic payload, or "timing unmet").
    pub error: String,
}

/// The structured per-net record (one JSONL line each).
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Net name.
    pub name: String,
    /// Final classification.
    pub outcome: Outcome,
    /// The rung that served the net (`None` for parse errors / failures).
    pub rung: Option<Rung>,
    /// Terminal error for `infeasible` / `parse_error` / `failed` nets.
    pub error: Option<String>,
    /// Rungs tried before the serving one, with why each fell through.
    pub attempts: Vec<Attempt>,
    /// Wall-clock time spent on this net (all rungs): run telemetry, not
    /// part of the answer, so [`NetOutcome::to_json`] leaves it out.
    pub wall: Duration,
    /// Which resource cap the serving DP rung degraded under, when the
    /// budget ran in degrade-in-place mode; `None` for a full-search
    /// result. A degraded solution is still audit-feasible.
    pub degraded_by: Option<BudgetResource>,
    /// Buffers inserted by the serving solution.
    pub buffers: Option<usize>,
    /// Audited timing slack of the serving solution (seconds).
    pub slack: Option<f64>,
    /// Audited worst noise headroom of the serving solution (volts,
    /// normalized); negative means a violation remains.
    pub worst_headroom: Option<f64>,
    /// The serving solution, for callers that apply it (not serialized).
    pub solution: Option<Solution>,
}

impl NetOutcome {
    fn shell(name: &str, outcome: Outcome) -> Self {
        NetOutcome {
            name: name.to_string(),
            outcome,
            rung: None,
            error: None,
            attempts: Vec::new(),
            wall: Duration::ZERO,
            degraded_by: None,
            buffers: None,
            slack: None,
            worst_headroom: None,
            solution: None,
        }
    }

    /// This record as one JSON object (no trailing newline): the answer
    /// only, so the same net under the same configuration serializes to
    /// the same bytes whichever run, worker or cache produced it. Run
    /// telemetry (`wall` and the serving [`Solution`]'s DP counters) is
    /// for the caller's envelope, not the record.
    ///
    /// Schema (all keys always present):
    /// `net`, `outcome`, `rung`, `degraded_by`, `error`, `buffers`,
    /// `slack`, `worst_headroom`, `attempts` (array of `{rung, error}`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"net\":");
        push_json_str(&mut s, &self.name);
        s.push_str(",\"outcome\":\"");
        s.push_str(self.outcome.as_str());
        s.push_str("\",\"rung\":");
        match self.rung {
            Some(r) => {
                s.push('"');
                s.push_str(r.as_str());
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"degraded_by\":");
        match self.degraded_by {
            Some(r) => {
                s.push('"');
                s.push_str(resource_slug(r));
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"error\":");
        match &self.error {
            Some(e) => push_json_str(&mut s, e),
            None => s.push_str("null"),
        }
        s.push_str(",\"buffers\":");
        match self.buffers {
            Some(b) => s.push_str(&b.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"slack\":");
        match self.slack {
            Some(v) => push_json_f64(&mut s, v),
            None => s.push_str("null"),
        }
        s.push_str(",\"worst_headroom\":");
        match self.worst_headroom {
            Some(v) => push_json_f64(&mut s, v),
            None => s.push_str("null"),
        }
        s.push_str(",\"attempts\":[");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rung\":\"");
            s.push_str(a.rung.as_str());
            s.push_str("\",\"error\":");
            push_json_str(&mut s, &a.error);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Stable lowercase identifier for a budget resource in JSONL records.
fn resource_slug(r: BudgetResource) -> &'static str {
    match r {
        BudgetResource::Candidates => "candidates",
        BudgetResource::TreeNodes => "tree_nodes",
        BudgetResource::ArenaBytes => "arena_bytes",
        _ => "resource",
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:e}` prints valid JSON exponent notation ("1.5e-9").
        out.push_str(&format!("{v:e}"));
    } else {
        out.push_str("null");
    }
}

/// Everything a batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One record per input net, in input order.
    pub outcomes: Vec<NetOutcome>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

/// Aggregate counts over a [`BatchReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Nets in the batch.
    pub total: usize,
    /// Noise and timing met.
    pub optimized: usize,
    /// Served by a lower rung (noise clean, timing unmet/unknown).
    pub degraded: usize,
    /// Noise-infeasible, left unbuffered.
    pub infeasible: usize,
    /// Inputs that never parsed.
    pub parse_errors: usize,
    /// Unexpected failures (every rung panicked or errored).
    pub failed: usize,
    /// Total buffers inserted across serving solutions.
    pub buffers: usize,
}

impl BatchReport {
    /// Aggregate counts.
    pub fn summary(&self) -> BatchSummary {
        let mut s = BatchSummary::default();
        for o in &self.outcomes {
            s.count(o.outcome, o.buffers.unwrap_or(0));
        }
        s
    }

    /// All records as JSON lines (one object per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.to_json());
            out.push('\n');
        }
        out
    }

    /// The process exit code a batch driver should report: worst outcome
    /// wins — 3 parse/failure, 2 infeasible, 1 degraded, 0 all optimized.
    pub fn exit_code(&self) -> i32 {
        self.summary().exit_code()
    }
}

impl BatchSummary {
    /// Folds one record's classification into the counts. Lets drivers
    /// that assemble output from mixed sources (journaled lines spliced
    /// next to freshly computed records) build the same aggregate a
    /// [`BatchReport`] would.
    pub fn count(&mut self, outcome: Outcome, buffers: usize) {
        self.total += 1;
        match outcome {
            Outcome::Optimized => self.optimized += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Infeasible => self.infeasible += 1,
            Outcome::ParseError => self.parse_errors += 1,
            Outcome::Failed => self.failed += 1,
        }
        self.buffers += buffers;
    }

    /// The process exit code for these counts: worst outcome wins —
    /// 3 parse/failure, 2 infeasible, 1 degraded, 0 all optimized.
    pub fn exit_code(&self) -> i32 {
        if self.parse_errors + self.failed > 0 {
            3
        } else if self.infeasible > 0 {
            2
        } else if self.degraded > 0 {
            1
        } else {
            0
        }
    }
}

impl std::fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nets: {} optimized, {} degraded, {} infeasible, \
             {} parse errors, {} failed; {} buffers inserted",
            self.total,
            self.optimized,
            self.degraded,
            self.infeasible,
            self.parse_errors,
            self.failed,
            self.buffers
        )
    }
}

/// Runs `f` inside a panic boundary; a panic becomes an `Err` message.
fn guarded<T>(f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panic: {}", panic_message(&payload))),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string payload".to_string()
    }
}

/// Optimizes one net down the degradation ladder. Never panics and never
/// runs past the configured budget (plus one bounded DP step).
pub fn optimize_net(
    name: &str,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    cfg: &PipelineConfig,
) -> NetOutcome {
    optimize_net_with(&mut DpWorkspace::new(), name, tree, scenario, cfg)
}

/// [`optimize_net`] with a caller-owned [`DpWorkspace`], so batch drivers
/// and server workers amortize the DP scratch across nets. Rungs run
/// inside `catch_unwind`; a workspace is fully reset at the start of every
/// run, so reusing one after a panicked net is safe.
pub fn optimize_net_with(
    ws: &mut DpWorkspace,
    name: &str,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    cfg: &PipelineConfig,
) -> NetOutcome {
    optimize_net_cancellable(ws, name, tree, scenario, cfg, CancelToken::new())
}

/// When `cancel` trips, the in-flight rung unwinds at its next stride
/// checkpoint and remaining rungs are skipped; the record comes back as
/// `failed` with `cancelled: <reason>`.
fn optimize_net_cancellable(
    ws: &mut DpWorkspace,
    name: &str,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    cfg: &PipelineConfig,
    cancel: CancelToken,
) -> NetOutcome {
    // Start the clock and arm the deadline now — the net is being
    // dequeued and starts running this instant. All rungs share the one
    // armed deadline (and the one cancel token).
    let start = Instant::now();
    let mut budget = cfg.budget();
    budget.cancel = cancel;
    let mut out = ladder(ws, name, tree, scenario, cfg, &budget.armed());
    out.wall = start.elapsed();
    out
}

/// Walks the degradation ladder under the armed `budget`.
fn ladder(
    ws: &mut DpWorkspace,
    name: &str,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    cfg: &PipelineConfig,
    budget: &RunBudget,
) -> NetOutcome {
    let mut out = NetOutcome::shell(name, Outcome::Failed);

    // Segment for the DP rungs. Algorithm 2 (rung 3) works on the raw
    // tree, so a segmentation failure only skips rungs 1–2.
    let segmented: Result<(RoutingTree, NoiseScenario), String> = match cfg.max_segment {
        None => Ok((tree.clone(), scenario.clone())),
        Some(max_seg) => match guarded(|| {
            let seg = segment::segment_wires(tree, max_seg)?;
            let s = scenario.for_segmented(&seg);
            Ok((seg.tree, s))
        }) {
            Ok(pair) => Ok(pair),
            Err(e) => Err(format!("segmentation failed: {e}")),
        },
    };

    let options = BuffOptOptions {
        conservative_pruning: cfg.conservative,
        polarity_aware: cfg.polarity,
        budget: budget.clone(),
        memo: cfg.memo.clone(),
        ..BuffOptOptions::default()
    };

    if let Ok((work_tree, work_scenario)) = &segmented {
        // One bounded count search serves rungs 1 and 2: its answer is
        // the fewest buffers meeting timing, or else the best slack.
        match guarded(|| {
            algo3::min_buffers_with(ws, work_tree, work_scenario, &cfg.library, &options)
        }) {
            Ok(sol) => {
                // Rung 1 — Problem 3: fewest buffers meeting noise AND
                // timing. When no count meets timing the answer is the
                // best-slack noise-clean solution (negative slack ⇒
                // degraded): served as the Problem 3 result with the cap
                // recorded when resource pressure tightened the search,
                // otherwise as rung 2, Problem 2.
                let (outcome, rung) = if sol.slack >= 0.0 {
                    (Outcome::Optimized, Rung::Problem3)
                } else if sol.degraded_by.is_some() {
                    (Outcome::Degraded, Rung::Problem3)
                } else {
                    out.attempts.push(Attempt {
                        rung: Rung::Problem3,
                        error: format!("timing unmet: best noise-clean slack {:e} s", sol.slack),
                    });
                    (Outcome::Degraded, Rung::Problem2)
                };
                return finish(
                    ws,
                    out,
                    outcome,
                    rung,
                    sol,
                    work_tree,
                    work_scenario,
                    &cfg.library,
                );
            }
            Err(e) => out.attempts.push(Attempt {
                rung: Rung::Problem3,
                error: e,
            }),
        }
    } else if let Err(e) = &segmented {
        out.attempts.push(Attempt {
            rung: Rung::Problem3,
            error: e.clone(),
        });
    }
    if let Some(rec) = cancelled_record(budget, &mut out) {
        return rec;
    }

    // Rung 3 — Algorithm 2 noise-only, continuous positions on the raw
    // tree (independent of segmentation, so it also rescues nets whose
    // segmentation failed).
    match guarded(|| {
        algorithm2::avoid_noise_budgeted_with(ws, tree, scenario, &cfg.library, budget)
    }) {
        Ok(sol) => {
            let audit_result = guarded(|| {
                let noise = audit::noise_summary_with(
                    ws.analysis(),
                    &sol.tree,
                    &sol.scenario,
                    &cfg.library,
                    &sol.assignment,
                )?;
                let delay = audit::delay_summary_with(
                    ws.analysis(),
                    &sol.tree,
                    &cfg.library,
                    &sol.assignment,
                )?;
                Ok((noise.worst_headroom, delay.slack))
            });
            out.outcome = Outcome::Degraded;
            out.rung = Some(Rung::NoiseOnly);
            out.buffers = Some(sol.inserted());
            if let Ok((headroom, slack)) = audit_result {
                out.worst_headroom = Some(headroom);
                out.slack = Some(slack);
            }
            return out;
        }
        Err(e) => out.attempts.push(Attempt {
            rung: Rung::NoiseOnly,
            error: e,
        }),
    }
    if let Some(rec) = cancelled_record(budget, &mut out) {
        return rec;
    }

    // Rung 4 — unbuffered diagnosis: report how bad the untouched net is.
    match guarded(|| {
        let empty = Assignment::empty(tree);
        let noise = audit::noise_summary_with(ws.analysis(), tree, scenario, &cfg.library, &empty)?;
        let delay = audit::delay_summary_with(ws.analysis(), tree, &cfg.library, &empty)?;
        Ok((noise.worst_headroom, delay.slack))
    }) {
        Ok((headroom, slack)) => {
            out.outcome = Outcome::Infeasible;
            out.rung = Some(Rung::Unbuffered);
            out.error = Some(format!(
                "no rung succeeded; unbuffered worst noise headroom {headroom:e}, slack {slack:e} s"
            ));
            out.buffers = Some(0);
            out.worst_headroom = Some(headroom);
            out.slack = Some(slack);
        }
        Err(e) => {
            out.outcome = Outcome::Failed;
            out.error = Some(format!("diagnosis failed: {e}"));
        }
    }
    out
}

/// When the run's cancel token has tripped, takes `out` and returns the
/// terminal `failed` record: nobody is waiting for the result, so the
/// remaining rungs are skipped rather than run to completion.
fn cancelled_record(budget: &RunBudget, out: &mut NetOutcome) -> Option<NetOutcome> {
    let reason = budget.cancel.cancelled()?;
    let mut rec = std::mem::replace(out, NetOutcome::shell("", Outcome::Failed));
    rec.outcome = Outcome::Failed;
    rec.error = Some(format!("cancelled: {reason}"));
    Some(rec)
}

/// Builds the success record for a DP rung, auditing noise headroom
/// through the workspace's pooled analysis tables.
#[allow(clippy::too_many_arguments)]
fn finish(
    ws: &mut DpWorkspace,
    mut out: NetOutcome,
    outcome: Outcome,
    rung: Rung,
    sol: Solution,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
) -> NetOutcome {
    out.outcome = outcome;
    out.rung = Some(rung);
    out.buffers = Some(sol.buffers);
    out.slack = Some(sol.slack);
    out.degraded_by = sol.degraded_by;
    if let Ok(headroom) = guarded(|| {
        Ok(
            audit::noise_summary_with(ws.analysis(), tree, scenario, lib, &sol.assignment)?
                .worst_headroom,
        )
    }) {
        out.worst_headroom = Some(headroom);
    }
    out.solution = Some(sol);
    out
}

/// Optimizes one [`NetInput`], whichever variant it is: parsed nets run
/// [`optimize_net`], parse failures become their `parse_error` record.
/// This is the `Send`-safe per-net entry point worker pools call — all
/// the types involved are plain owned data (`Send + Sync`), so inputs
/// can be fanned out across threads and the records collected back.
pub fn optimize_input(input: &NetInput, cfg: &PipelineConfig) -> NetOutcome {
    optimize_input_with(&mut DpWorkspace::new(), input, cfg)
}

/// [`optimize_input`] with a caller-owned [`DpWorkspace`] (see
/// [`optimize_net_with`]).
pub fn optimize_input_with(
    ws: &mut DpWorkspace,
    input: &NetInput,
    cfg: &PipelineConfig,
) -> NetOutcome {
    optimize_input_with_cancel(ws, input, cfg, &CancelToken::new())
}

/// [`optimize_input_with`] under a caller-held [`CancelToken`]: a server
/// that learns mid-run that nobody wants the answer (deadline expiry,
/// client disconnect, shutdown) trips the token, the run unwinds at its
/// next stride checkpoint — microseconds, not the next per-net boundary —
/// and the record comes back `failed` with `cancelled: <reason>`.
pub fn optimize_input_with_cancel(
    ws: &mut DpWorkspace,
    input: &NetInput,
    cfg: &PipelineConfig,
    cancel: &CancelToken,
) -> NetOutcome {
    match input {
        NetInput::Parsed {
            name,
            tree,
            scenario,
        } => optimize_net_cancellable(ws, name, tree, scenario, cfg, cancel.clone()),
        NetInput::Failed { name, error } => {
            let mut o = NetOutcome::shell(name, Outcome::ParseError);
            o.error = Some(error.clone());
            o
        }
    }
}

/// Verdict of [`reverify_outcome`]'s independent post-hoc audit.
#[derive(Debug, Clone, PartialEq)]
pub enum Reverify {
    /// The audit re-derived the record's slack and noise headroom.
    Consistent,
    /// The record carries nothing to audit (parse errors, failures,
    /// noise-only and unbuffered rungs carry no DP solution).
    NotApplicable,
    /// The audit disagrees with the record — the record was corrupted
    /// somewhere between computation and serving, or the computation
    /// itself was wrong.
    Mismatch(String),
}

/// Relative comparison for audited figures. The audit runs the same
/// deterministic Elmore/noise math as the optimizer, so agreement is
/// expected to the last few ulps; the tolerance only absorbs benign
/// reassociation, not corruption (a single flipped mantissa bit high in
/// a float is ~2^-52 · 2^k relative — far above 1e-6 once the bit is
/// above the noise floor this checks at).
fn reverify_close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-30)
}

/// Independently re-derives a served record's audited figures and
/// compares them against what the record claims.
///
/// This is the sampled re-verification hook (`--verify-sample-rate`):
/// given the *original* input and the record as served — whether freshly
/// computed or replayed from a cache — it re-segments the tree exactly as
/// [`optimize_net`] would, re-runs the delay and noise audits against the
/// record's solution, and reports whether the record's `slack` and
/// `worst_headroom` survive. A checksum proves bytes didn't rot; this
/// proves the *semantics* still hold, which also catches corruption that
/// predates checksumming (see `SolutionCache`'s verify-on-hit caveat).
///
/// Only DP-rung records carry a [`Solution`] to audit; everything else is
/// [`Reverify::NotApplicable`].
pub fn reverify_outcome(
    ws: &mut DpWorkspace,
    input: &NetInput,
    cfg: &PipelineConfig,
    out: &NetOutcome,
) -> Reverify {
    let (tree, scenario) = match input {
        NetInput::Parsed { tree, scenario, .. } => (tree, scenario),
        NetInput::Failed { .. } => return Reverify::NotApplicable,
    };
    let sol = match (&out.solution, out.rung) {
        (Some(sol), Some(Rung::Problem3 | Rung::Problem2)) => sol,
        _ => return Reverify::NotApplicable,
    };
    let audited = guarded(|| {
        // Rebuild the exact tree the serving DP rung ran on (segmentation
        // is deterministic, so this reproduces it bit-for-bit).
        let (work_tree, work_scenario) = match cfg.max_segment {
            None => (tree.clone(), scenario.clone()),
            Some(max_seg) => {
                let seg = segment::segment_wires(tree, max_seg)?;
                let s = scenario.for_segmented(&seg);
                (seg.tree, s)
            }
        };
        let noise = audit::noise_summary_with(
            ws.analysis(),
            &work_tree,
            &work_scenario,
            &cfg.library,
            &sol.assignment,
        )?;
        let delay =
            audit::delay_summary_with(ws.analysis(), &work_tree, &cfg.library, &sol.assignment)?;
        Ok((noise.worst_headroom, delay.slack))
    });
    let (headroom, slack) = match audited {
        Ok(v) => v,
        Err(e) => return Reverify::Mismatch(format!("audit failed: {e}")),
    };
    if let Some(recorded) = out.slack {
        if !reverify_close(recorded, slack) {
            return Reverify::Mismatch(format!(
                "slack mismatch: record says {recorded:e} s, audit says {slack:e} s"
            ));
        }
    }
    if let Some(recorded) = out.worst_headroom {
        if !reverify_close(recorded, headroom) {
            return Reverify::Mismatch(format!(
                "worst_headroom mismatch: record says {recorded:e}, audit says {headroom:e}"
            ));
        }
    }
    if out.buffers != Some(sol.buffers) {
        return Reverify::Mismatch(format!(
            "buffer count mismatch: record says {:?}, solution inserts {}",
            out.buffers, sol.buffers
        ));
    }
    Reverify::Consistent
}

// The concurrency layer relies on these being shareable across worker
// threads; fail compilation loudly if a future change breaks that.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn ok<T: Send + Sync>() {}
    ok::<NetInput>();
    ok::<PipelineConfig>();
    ok::<NetOutcome>();
    ok::<BatchReport>();
}

/// State behind [`hush_panics`]: how many guards are live and the hook
/// they displaced.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct HushState {
    depth: usize,
    prev: Option<PanicHook>,
}

static HUSH: std::sync::Mutex<HushState> = std::sync::Mutex::new(HushState {
    depth: 0,
    prev: None,
});

/// Keeps the process-wide panic hook silenced while alive; see
/// [`hush_panics`].
pub struct PanicHush(());

/// Silences the default panic hook until the returned guard drops.
///
/// Every per-net rung runs inside `catch_unwind`, so a panicking net is
/// contained — but the default hook still prints a backtrace *before*
/// unwinding reaches the boundary, and in a parallel batch every worker
/// sprays its own. Batch drivers and worker pools hold one of these
/// guards for the duration of the run. Guards are reference-counted, so
/// overlapping batches (or a server engine plus an ad-hoc batch) compose:
/// the original hook is restored only when the last guard drops.
pub fn hush_panics() -> PanicHush {
    let mut st = HUSH.lock().unwrap_or_else(|e| e.into_inner());
    // `prev` may be left stashed by a guard that dropped mid-unwind (see
    // `Drop`); in that case the no-op hook is still installed and the
    // original must not be overwritten.
    if st.depth == 0 && st.prev.is_none() {
        st.prev = Some(panic::take_hook());
        panic::set_hook(Box::new(|_| {}));
    }
    st.depth += 1;
    PanicHush(())
}

impl Drop for PanicHush {
    fn drop(&mut self) {
        let mut st = HUSH.lock().unwrap_or_else(|e| e.into_inner());
        st.depth -= 1;
        // `set_hook` panics on a panicking thread, which would turn a
        // guard dropped during unwind into a process abort. Leave the
        // no-op hook installed and `prev` stashed; the next guard (or
        // this one's non-panicking sibling) completes the restoration.
        if st.depth == 0 && !std::thread::panicking() {
            if let Some(prev) = st.prev.take() {
                panic::set_hook(prev);
            }
        }
    }
}

/// Runs the whole batch with the default panic hook silenced (see
/// [`hush_panics`]), so per-net panics do not spray backtraces over the
/// batch progress output.
pub fn run_batch(inputs: &[NetInput], cfg: &PipelineConfig) -> BatchReport {
    let start = Instant::now();
    let _hush = hush_panics();
    // One workspace for the whole batch: candidate lists, arenas, and
    // frontiers grow to the largest net once and are reused thereafter.
    let mut ws = DpWorkspace::new();
    let outcomes = inputs
        .iter()
        .map(|input| optimize_input_with(&mut ws, input, cfg))
        .collect();
    BatchReport {
        outcomes,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_buffers::catalog;
    use buffopt_tree::{Driver, SinkSpec, Technology, TreeBuilder};

    fn estimation(tree: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(tree, 0.7, 7.2e9)
    }

    /// A plain two-pin net; `rat` controls timing difficulty.
    fn two_pin(len: f64, rat: f64, margin: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(
            b.source(),
            tech.wire(len),
            SinkSpec::new(20e-15, rat, margin),
        )
        .expect("sink");
        b.build().expect("tree")
    }

    /// A net with a lumped (zero-length) 2 pF / 100 Ω load at the sink:
    /// its own coupled noise beats every buffer margin in the catalog, so
    /// no insertion anywhere can quiet it — genuinely noise-infeasible.
    /// (A *distributed* wire never is: Algorithm 2 slides a buffer
    /// arbitrarily close to the sink and rescues any positive margin.)
    fn lumped_pin() -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let elbow = b
            .add_internal(b.source(), tech.wire(5_000.0))
            .expect("stem");
        b.add_sink(
            elbow,
            buffopt_tree::Wire::from_rc(100.0, 2e-12, 0.0),
            SinkSpec::new(20e-15, 2e-9, 0.8),
        )
        .expect("lumped sink");
        b.build().expect("tree")
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::new(catalog::ibm_like())
    }

    #[test]
    fn healthy_net_is_optimized_on_rung_one() {
        let t = two_pin(12_000.0, 3e-9, 0.8);
        let o = optimize_net("healthy", &t, &estimation(&t), &cfg());
        assert_eq!(o.outcome, Outcome::Optimized);
        assert_eq!(o.rung, Some(Rung::Problem3));
        assert!(o.attempts.is_empty(), "{:?}", o.attempts);
        assert!(o.slack.unwrap() >= 0.0);
        assert!(o.worst_headroom.unwrap() >= 0.0);
        assert!(o.solution.as_ref().is_some_and(|s| s.peak_candidates > 0));
    }

    #[test]
    fn impossible_timing_degrades_to_problem_two() {
        let t = two_pin(20_000.0, 1e-12, 0.8); // RAT below flight time
        let s = estimation(&t);
        // The served solution is Problem 2 read off the same frontier.
        let seg = segment::segment_wires(&t, 500.0).expect("segment");
        let s_seg = s.for_segmented(&seg);
        let p2 = algo3::solve(
            &mut DpWorkspace::new(),
            &seg.tree,
            Some(&s_seg),
            &cfg().library,
            &BuffOptOptions::default(),
        )
        .expect("solve")
        .max_slack();
        // Under a time limit the one DP run fits, there is no second run
        // to push the net past its deadline down to noise-only.
        for limit in [None, Some(Duration::from_secs(60))] {
            let mut c = cfg();
            c.time_limit = limit;
            let o = optimize_net("tight", &t, &s, &c);
            assert_eq!(o.outcome, Outcome::Degraded, "{limit:?}");
            assert_eq!(o.rung, Some(Rung::Problem2), "{limit:?}");
            let rungs: Vec<Rung> = o.attempts.iter().map(|a| a.rung).collect();
            assert_eq!(rungs, [Rung::Problem3], "{:?}", o.attempts);
            assert!(o.attempts[0].error.contains("timing unmet"));
            assert!(o.slack.unwrap() < 0.0);
            assert!(o.worst_headroom.unwrap() >= 0.0, "noise still clean");
            let served = o.solution.expect("served solution");
            assert_eq!(served.assignment, p2.assignment);
            assert_eq!(served.slack.to_bits(), p2.slack.to_bits());
            assert_eq!(served.buffers, p2.buffers);
        }
    }

    #[test]
    fn hopeless_margin_lands_on_unbuffered_diagnosis() {
        // A lumped load whose noise floor beats any buffer margin: no
        // insertion satisfies it (NoiseUnfixable / NoFeasibleCandidate on
        // every rung).
        let t = lumped_pin();
        let o = optimize_net("doomed", &t, &estimation(&t), &cfg());
        assert_eq!(o.outcome, Outcome::Infeasible);
        assert_eq!(o.rung, Some(Rung::Unbuffered));
        assert_eq!(o.buffers, Some(0));
        assert!(o.worst_headroom.unwrap() < 0.0, "diagnosis shows violation");
        // One DP run, so one DP attempt; then Algorithm 2.
        let rungs: Vec<Rung> = o.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, [Rung::Problem3, Rung::NoiseOnly], "{:?}", o.attempts);
        assert!(o.error.as_deref().unwrap().contains("headroom"));
    }

    #[test]
    fn tiny_candidate_budget_is_reported_not_fatal() {
        let t = two_pin(20_000.0, 2e-9, 0.8);
        let mut c = cfg();
        c.max_candidates = Some(1); // even a sink list of 1 survives, but
                                    // any insertion overflows
        let o = optimize_net("capped", &t, &estimation(&t), &c);
        // DP rungs die on the budget; Algorithm 2 holds ≤1 candidate on a
        // chain, so the net degrades to noise-only instead of failing.
        assert_eq!(o.outcome, Outcome::Degraded);
        assert_eq!(o.rung, Some(Rung::NoiseOnly));
        assert!(
            o.attempts
                .iter()
                .any(|a| a.error.contains("budget") || a.error.contains("cap")),
            "{:?}",
            o.attempts
        );
    }

    #[test]
    fn tree_node_budget_blocks_dp_rungs() {
        let t = two_pin(20_000.0, 2e-9, 0.8);
        let mut c = cfg();
        c.max_tree_nodes = Some(3); // segmented tree is far larger
        let o = optimize_net("small-cap", &t, &estimation(&t), &c);
        assert!(o.attempts.iter().any(|a| a.error.contains("tree nodes")));
        assert_ne!(o.outcome, Outcome::Failed);
    }

    #[test]
    fn expired_deadline_yields_typed_error_not_hang() {
        let t = two_pin(20_000.0, 2e-9, 0.8);
        let mut c = cfg();
        c.time_limit = Some(Duration::ZERO);
        let start = Instant::now();
        let o = optimize_net("deadline", &t, &estimation(&t), &c);
        assert!(start.elapsed() < Duration::from_secs(10), "no hang");
        assert!(
            o.attempts.iter().any(|a| a.error.contains("deadline")),
            "{:?}",
            o.attempts
        );
    }

    #[test]
    fn guarded_turns_panics_into_errors() {
        let r: Result<(), String> = guarded(|| panic!("boom {}", 42));
        assert_eq!(r.unwrap_err(), "panic: boom 42");
        let r: Result<(), String> = guarded(|| Err(CoreError::EmptyLibrary));
        assert!(r.unwrap_err().contains("empty"));
        assert_eq!(guarded(|| Ok(7)).unwrap(), 7);
    }

    /// Tests that install or observe the process-wide panic hook must not
    /// overlap; everything touching the hook in this binary locks this.
    static HOOK_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn hush_guard_nests_and_restores_the_hook() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _serial = HOOK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {
            FIRED.fetch_add(1, Ordering::SeqCst);
        }));
        {
            let outer = hush_panics();
            let inner = hush_panics();
            let _ = panic::catch_unwind(|| panic!("quiet"));
            drop(inner);
            // Still hushed while the outer guard lives.
            let _ = panic::catch_unwind(|| panic!("still quiet"));
            assert_eq!(FIRED.load(Ordering::SeqCst), 0, "hook silenced");
            drop(outer);
        }
        let _ = panic::catch_unwind(|| panic!("loud again"));
        assert_eq!(FIRED.load(Ordering::SeqCst), 1, "hook restored");
        panic::set_hook(prev);
    }

    #[test]
    fn optimize_input_covers_both_variants() {
        let healthy = two_pin(12_000.0, 3e-9, 0.8);
        let parsed = NetInput::Parsed {
            name: "x".into(),
            scenario: estimation(&healthy),
            tree: healthy,
        };
        assert_eq!(parsed.name(), "x");
        let o = optimize_input(&parsed, &cfg());
        assert_eq!(o.outcome, Outcome::Optimized);
        let failed = NetInput::Failed {
            name: "y".into(),
            error: "line 9: nope".into(),
        };
        assert_eq!(failed.name(), "y");
        let o = optimize_input(&failed, &cfg());
        assert_eq!(o.outcome, Outcome::ParseError);
        assert_eq!(o.error.as_deref(), Some("line 9: nope"));
    }

    #[test]
    fn batch_covers_every_input_and_exit_codes_rank() {
        let _serial = HOOK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let healthy = two_pin(12_000.0, 3e-9, 0.8);
        let doomed = lumped_pin();
        let inputs = vec![
            NetInput::Parsed {
                name: "a".into(),
                scenario: estimation(&healthy),
                tree: healthy,
            },
            NetInput::Failed {
                name: "b".into(),
                error: "line 3: gibberish".into(),
            },
            NetInput::Parsed {
                name: "c".into(),
                scenario: estimation(&doomed),
                tree: doomed,
            },
        ];
        let report = run_batch(&inputs, &cfg());
        assert_eq!(report.outcomes.len(), 3);
        let s = report.summary();
        assert_eq!(
            (s.optimized, s.parse_errors, s.infeasible),
            (1, 1, 1),
            "{s}"
        );
        assert_eq!(report.exit_code(), 3, "parse error dominates");

        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"outcome\":\"parse_error\""));
        assert!(jsonl.contains("\"net\":\"a\""));
    }

    #[test]
    fn json_escaping_is_sound() {
        let mut o = NetOutcome::shell("we\"ird\\name\n", Outcome::ParseError);
        o.error = Some("tab\there".into());
        let j = o.to_json();
        assert!(j.contains(r#""net":"we\"ird\\name\n""#), "{j}");
        assert!(j.contains(r#""error":"tab\there""#), "{j}");
        assert!(j.contains("\"degraded_by\":null"), "{j}");
        assert!(!j.contains("wall_ms") && !j.contains("arena_peak"), "{j}");
        // Non-finite floats serialize as null, not as invalid JSON.
        o.slack = Some(f64::INFINITY);
        assert!(o.to_json().contains("\"slack\":null"));
        o.degraded_by = Some(BudgetResource::ArenaBytes);
        assert!(o.to_json().contains("\"degraded_by\":\"arena_bytes\""));
    }

    #[test]
    fn arena_pressure_degrades_in_place_and_short_circuits() {
        let t = two_pin(20_000.0, 2e-9, 0.8);
        let s = estimation(&t);
        let mut c = cfg();
        // A cap far below what this net's full search needs, but enough
        // to hold a clamped frontier.
        c.max_arena_bytes = Some(2 * 1024);
        let o = optimize_net("squeezed", &t, &s, &c);
        assert!(
            o.degraded_by.is_some(),
            "expected resource pressure, got {o:?}"
        );
        // Short-circuit: the serving rung is a DP rung, not a rerun of
        // the noise-only ladder bottom.
        assert!(
            matches!(o.rung, Some(Rung::Problem3) | Some(Rung::Problem2)),
            "{:?}",
            o.rung
        );
        // Degraded, not failed — and the output still audits clean.
        assert!(matches!(o.outcome, Outcome::Optimized | Outcome::Degraded));
        assert!(o.worst_headroom.unwrap() >= 0.0, "audit-feasible");
        assert!(o.to_json().contains("\"degraded_by\":\""));

        // Bitwise reproducible for a fixed budget.
        let o2 = optimize_net("squeezed", &t, &s, &c);
        assert_eq!(o.buffers, o2.buffers);
        assert_eq!(o.slack.unwrap().to_bits(), o2.slack.unwrap().to_bits());
        assert_eq!(o.degraded_by, o2.degraded_by);
    }

    #[test]
    fn pre_tripped_token_cancels_without_running_lower_rungs() {
        let t = two_pin(20_000.0, 2e-9, 0.8);
        let s = estimation(&t);
        let c = cfg();
        let token = CancelToken::new();
        token.cancel(buffopt::CancelReason::Disconnect);
        let input = NetInput::Parsed {
            name: "gone".into(),
            scenario: s,
            tree: t,
        };
        let o = optimize_input_with_cancel(&mut DpWorkspace::new(), &input, &c, &token);
        assert_eq!(o.outcome, Outcome::Failed);
        assert_eq!(o.error.as_deref(), Some("cancelled: disconnect"));
        assert_eq!(o.rung, None, "no rung served a cancelled net");
        // The noise-only rung was never reached: at most the DP attempts
        // are recorded before the short-circuit.
        assert!(
            o.attempts.iter().all(|a| a.rung != Rung::NoiseOnly),
            "{:?}",
            o.attempts
        );
    }

    /// A branchy net (the memo only engages at 2-child merge points).
    fn y_net(trunk: f64, arm: f64, rat: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(trunk)).expect("trunk");
        b.add_sink(j, tech.wire(arm), SinkSpec::new(20e-15, rat, 0.8))
            .expect("far sink");
        b.add_sink(j, tech.wire(arm * 1.3), SinkSpec::new(15e-15, rat, 0.8))
            .expect("near sink");
        b.build().expect("tree")
    }

    #[test]
    fn timing_unmet_net_whose_floor_misses_timing_runs_one_uncapped_dp() {
        // Problem 3 misses timing, so the net is served from rung 2. The
        // count search's floor placement misses timing too, so it runs no
        // probe: one uncapped run, whose best-slack solution serves the
        // net, and one memo lookup.
        let t = y_net(6_000.0, 4_000.0, 1e-12);
        let table = std::sync::Arc::new(buffopt::MemoTable::new(32 << 20, 4));
        let mut c = cfg();
        c.memo = Some(table.clone());
        let mut ws = DpWorkspace::new();
        let o = optimize_net_with(&mut ws, "y-tight", &t, &estimation(&t), &c);
        assert_eq!(o.rung, Some(Rung::Problem2));
        assert_eq!(ws.work().dp_runs, 1, "one uncapped run");
        let stats = table.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "one lookup per run: {stats:?}"
        );
    }

    #[test]
    fn shared_memo_table_preserves_solutions_and_counts_hits() {
        let t = y_net(6_000.0, 4_000.0, 2.5e-9);
        let s = estimation(&t);
        let cold = optimize_net("y", &t, &s, &cfg());

        let table = std::sync::Arc::new(buffopt::MemoTable::new(32 << 20, 4));
        let mut warm_cfg = cfg();
        warm_cfg.memo = Some(table.clone());
        let first = optimize_net("y", &t, &s, &warm_cfg);
        let second = optimize_net("y", &t, &s, &warm_cfg);
        for (tag, o) in [("first", &first), ("second", &second)] {
            assert_eq!(o.outcome, cold.outcome, "{tag}");
            assert_eq!(o.rung, cold.rung, "{tag}");
            assert_eq!(o.buffers, cold.buffers, "{tag}");
            assert_eq!(
                o.slack.unwrap().to_bits(),
                cold.slack.unwrap().to_bits(),
                "{tag}: seeded slack must be bitwise-identical"
            );
            assert!(o.worst_headroom.unwrap() >= 0.0, "{tag}: audit-clean");
        }
        let stats = table.stats();
        assert!(stats.stores > 0, "first run stores frontiers: {stats:?}");
        assert!(stats.hits > 0, "second run hits: {stats:?}");
        assert!(stats.seeded > 0, "hits actually seed merges: {stats:?}");
        assert!(stats.bytes > 0 && stats.bytes <= stats.budget_bytes);
    }

    #[test]
    fn reverify_confirms_an_honest_record_and_catches_a_doctored_one() {
        let t = two_pin(12_000.0, 3e-9, 0.8);
        let s = estimation(&t);
        let c = cfg();
        let input = NetInput::Parsed {
            name: "audit-me".into(),
            tree: t,
            scenario: s,
        };
        let mut ws = DpWorkspace::new();
        let o = optimize_input_with(&mut ws, &input, &c);
        assert_eq!(o.rung, Some(Rung::Problem3));
        assert_eq!(
            reverify_outcome(&mut ws, &input, &c, &o),
            Reverify::Consistent
        );

        // A flipped high mantissa bit in the recorded slack — the model
        // of a corrupted cache entry — must not survive the audit.
        let mut doctored = o.clone();
        doctored.slack = doctored
            .slack
            .map(|v| f64::from_bits(v.to_bits() ^ (1 << 51)));
        match reverify_outcome(&mut ws, &input, &c, &doctored) {
            Reverify::Mismatch(why) => assert!(why.contains("slack mismatch"), "{why}"),
            v => panic!("doctored slack passed the audit: {v:?}"),
        }

        // Same for a doctored buffer count.
        let mut doctored = o.clone();
        doctored.buffers = doctored.buffers.map(|b| b + 1);
        match reverify_outcome(&mut ws, &input, &c, &doctored) {
            Reverify::Mismatch(why) => assert!(why.contains("buffer count"), "{why}"),
            v => panic!("doctored buffer count passed the audit: {v:?}"),
        }
    }

    #[test]
    fn reverify_skips_records_without_a_solution() {
        let mut ws = DpWorkspace::new();
        let c = cfg();
        let failed = NetInput::Failed {
            name: "no-parse".into(),
            error: "nope".into(),
        };
        let o = optimize_input_with(&mut ws, &failed, &c);
        assert_eq!(
            reverify_outcome(&mut ws, &failed, &c, &o),
            Reverify::NotApplicable
        );
    }

    #[test]
    fn default_budget_matches_direct_optimizer_results() {
        let t = two_pin(16_000.0, 2.5e-9, 0.8);
        let s = estimation(&t);
        let c = cfg();
        let o = optimize_net("parity", &t, &s, &c);
        // Reproduce rung 1 by hand on the identically segmented tree.
        let seg = segment::segment_wires(&t, 500.0).expect("segment");
        let s_seg = s.for_segmented(&seg);
        let direct = algo3::solve(
            &mut DpWorkspace::new(),
            &seg.tree,
            Some(&s_seg),
            &c.library,
            &BuffOptOptions::default(),
        )
        .expect("direct")
        .fewest_meeting()
        .expect("timing met");
        assert_eq!(o.buffers, Some(direct.buffers));
        assert!((o.slack.unwrap() - direct.slack).abs() < 1e-18);
    }
}
