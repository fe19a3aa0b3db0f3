//! `buffopt-cli` — fix the noise and timing of `.net` files from the
//! command line.
//!
//! ```text
//! buffopt-cli NET_FILE [--segment UM] [--mode p2|p3|cost|noise|greedy]
//!             [--lib ibm|single] [--polarity] [--conservative] [--verify]
//!             [--dump] [--time-limit-ms N] [--max-candidates N]
//!             [--max-tree-nodes N] [--memo-budget-mb N] [--no-memo]
//! buffopt-cli --batch DIR [--jobs N] [--journal FILE | --resume FILE]
//!             [--verify-sample-rate R] [--segment UM] [--lib ibm|single]
//!             [--polarity] [--conservative] [--time-limit-ms N]
//!             [--max-candidates N] [--max-tree-nodes N]
//! buffopt-cli serve [--listen ADDR] [--jobs N] [--cache N]
//!             [--queue-depth N] [--deadline-ms N] [--max-retries N]
//!             [--read-timeout-ms N] [--max-line-bytes N]
//!             [--verify-sample-rate R] [shared flags as above]
//! ```
//!
//! * `--segment UM` — Alpert–Devgan wire segmenting pitch (default 500);
//! * `--mode` — `p3` (default): fewest buffers meeting noise+timing,
//!   found by the bounded count search (Algorithm 2's noise floor `L`,
//!   one DP run capped at `L + ⌊L/8⌋` buffers when Algorithm 2's own
//!   placement meets timing, then one uncapped run if that cap cut the
//!   answer; the same answer as one uncapped run), with the best-slack
//!   fallback when timing cannot be met;
//!   `p2`: maximize slack under noise constraints; `cost`: cheapest
//!   buffers meeting both; `noise`: pure noise avoidance (Algorithm 2,
//!   continuous positions); `greedy`: the related-work iterative
//!   single-buffer baseline (for comparison — expect more buffers);
//! * `--lib` — the 11-buffer IBM-like catalog (default) or a single type;
//! * `--polarity` — enforce the inverting-buffer pairing rule;
//! * `--conservative` — exact 4-D pruning;
//! * `--verify` — run the transient-simulation referee on the result;
//! * `--dump` — print the parsed routing tree before optimizing;
//! * `--batch DIR` — run the fault-isolated pipeline over every `*.net`
//!   file in `DIR`: one JSONL outcome record per net on stdout, summary on
//!   stderr. A malformed, infeasible, or budget-busting net degrades that
//!   net only; the batch always completes;
//! * `--jobs N` — worker threads for `--batch` and `serve` (default: the
//!   machine's available parallelism). Records are emitted in input order
//!   and are byte-identical whatever `N` is: a record holds the answer
//!   only, never run telemetry such as wall time;
//! * `--journal FILE` — checkpoint each completed record to `FILE` with
//!   an fsync'd append, keyed by a content digest of the net. A batch
//!   killed mid-run loses at most the record being written;
//! * `--resume FILE` — load the journal from an interrupted run, skip
//!   every net whose content is already checkpointed (splicing the
//!   journaled record lines into the output verbatim), compute the rest,
//!   and keep appending to the same journal. The final JSONL output is
//!   byte-identical to what the uninterrupted run would have produced.
//!   Every journal line
//!   carries a CRC-64 checksum: a torn or corrupted line is quarantined
//!   to a `FILE.quarantine` sidecar (with a stderr warning) and its net
//!   recomputed, so corruption costs work, never wrong output. A journal
//!   written by an incompatible version is refused outright;
//! * `--verify-sample-rate R` — sampled post-hoc re-verification
//!   (`--batch` and `serve`): an off-critical-path auditor re-derives
//!   the delay and noise summaries of roughly `R`·100% of served
//!   records — cache hits included — from their original inputs and
//!   invalidates any cached record that disagrees. `R` is in `[0, 1]`;
//!   default 0 (off). Batch mode reports the audit tally on stderr;
//!   `serve` reports it in the `stats` integrity section;
//! * `serve` — long-running newline-JSON TCP service over the same
//!   pipeline: one `{"id":...,"net":...}` request line per net, one
//!   record line per response (followed by the envelope: `cache`,
//!   `worker`, and the run's `wall_ms` and DP counters), with
//!   `{"cmd":"stats"}` and `{"cmd":"shutdown"}` commands. Prints
//!   `listening on ADDR` once ready; `--listen` defaults to
//!   `127.0.0.1:0` (an OS-assigned port), `--cache` sets the solution
//!   cache capacity in records (0 disables; default 1024).
//!   Overload and hardening knobs: `--queue-depth N` is the admission
//!   high-watermark (requests beyond it get `{"error":"overloaded"}`;
//!   default 2×jobs), `--deadline-ms N` arms a per-request deadline at
//!   admission (`{"error":"deadline_exceeded"}`; default off),
//!   `--max-retries N` bounds retries of requests whose worker died
//!   (default 1), `--read-timeout-ms N` closes connections idle past the
//!   limit (default 120000; 0 disables), and `--max-line-bytes N` caps
//!   the request-line length (default 1 MiB). The service runs on a
//!   sharded epoll reactor: `--shards N` serves on N event-loop shards,
//!   each with its own engine (requests route to an engine by a
//!   rendezvous hash of the net digest; `stats` aggregates all shards),
//!   and `--max-conns N` refuses accepts beyond N live connections with
//!   a typed `{"error":"overloaded","detail":"max_conns"}` line (0 =
//!   unlimited). A request line may be length+CRC framed
//!   (`!F <len> <crc> <payload>`): the response mirrors the framing,
//!   and a truncated or damaged frame gets a typed
//!   `{"error":"bad_frame",...}` response (counted in `stats` under
//!   `connections.bad_frames`) instead of a parse guess;
//! * `--time-limit-ms` / `--max-candidates` / `--max-tree-nodes` —
//!   per-net resource budget (unlimited when omitted). The clock starts
//!   when a net is dequeued by a worker, not while it waits in line;
//! * `--mem-budget-mb N` — cap the DP's provenance arena at N MiB per
//!   net **and** switch the DP to degrade-in-place: under arena or
//!   candidate pressure it tightens pruning and finishes with a feasible
//!   but possibly suboptimal solution (batch records carry
//!   `degraded_by`) instead of erroring;
//! * `--memo-budget-mb N` — enable the structural subtree memo: a shared,
//!   byte-budgeted table keyed by canonical subtree digests that seeds
//!   repeated merge-point frontiers across nets (and across requests in
//!   `serve`). Records are byte-identical to memo-free runs. The memo
//!   defaults to off because it does not pay: on the ECO serving workload
//!   (eco-serve) it lowered throughput by about 16 % and raised peak RSS
//!   in every paired run measured (ROADMAP item 1). Ignored when `--mem-budget-mb` is set (arena-capped runs carry
//!   whole-run state the memo cannot replay);
//! * `--no-memo` — force the memo off even if `--memo-budget-mb` was
//!   given (handy for A/B comparisons in scripts).
//!
//! Exit codes: `0` every net optimized (noise and timing met); `1` at
//! least one net degraded (noise clean, timing unmet); `2` at least one
//! net infeasible (noise cannot be fixed, or the referee found a
//! violation); `3` usage, IO, or parse error.

use std::process::ExitCode;
use std::time::Duration;

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::iterative::{self, IterativeOptions};
use buffopt::{algorithm2, audit, Assignment, CoreError, DpWorkspace};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_netlist::parse;
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::journal::{self, BatchJournal};
use buffopt_pipeline::{BatchSummary, NetInput, Outcome, PipelineConfig};
use buffopt_server::{default_jobs, serve_sharded, Engine, EngineOptions, Job, ServeOptions};
use buffopt_sim::referee::{self, RefereeOptions};
use buffopt_tree::{segment, RoutingTree};

const EXIT_OK: u8 = 0;
const EXIT_DEGRADED: u8 = 1;
const EXIT_INFEASIBLE: u8 = 2;
const EXIT_USAGE: u8 = 3;

struct Args {
    file: Option<String>,
    batch: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    serve: bool,
    listen: String,
    shards: usize,
    max_conns: usize,
    jobs: Option<usize>,
    cache: usize,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    max_retries: u32,
    read_timeout_ms: Option<u64>,
    max_line_bytes: usize,
    verify_sample_rate: f64,
    segment: f64,
    mode: Mode,
    library: BufferLibrary,
    polarity: bool,
    conservative: bool,
    verify: bool,
    dump: bool,
    time_limit_ms: Option<u64>,
    max_candidates: Option<usize>,
    max_tree_nodes: Option<usize>,
    mem_budget_mb: Option<usize>,
    memo_budget_mb: Option<usize>,
    no_memo: bool,
}

impl Args {
    /// The shared cross-net memo table, when enabled. Off by default:
    /// seeding changes which merges run, so per-record *peak statistics*
    /// become schedule-dependent under a shared table (solutions do not).
    fn memo_table(&self) -> Option<std::sync::Arc<buffopt::MemoTable>> {
        if self.no_memo {
            return None;
        }
        self.memo_budget_mb
            .map(|mb| std::sync::Arc::new(buffopt::MemoTable::new(mb << 20, 8)))
    }

    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            library: self.library.clone(),
            max_segment: Some(self.segment),
            time_limit: self.time_limit_ms.map(Duration::from_millis),
            max_candidates: self.max_candidates,
            max_tree_nodes: self.max_tree_nodes,
            max_arena_bytes: self.mem_budget_mb.map(|mb| mb << 20),
            conservative: self.conservative,
            polarity: self.polarity,
            memo: self.memo_table(),
        }
    }

    fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            jobs: self.jobs.unwrap_or_else(default_jobs),
            cache_capacity: self.cache,
            queue_depth: self.queue_depth,
            request_deadline: self.deadline_ms.map(Duration::from_millis),
            max_retries: self.max_retries,
            verify_sample_rate: self.verify_sample_rate,
            ..EngineOptions::default()
        }
    }

    fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            read_timeout: match self.read_timeout_ms {
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis(ms)),
                None => ServeOptions::default().read_timeout,
            },
            max_line_bytes: self.max_line_bytes,
            max_conns: self.max_conns,
        }
    }
}

#[derive(PartialEq)]
enum Mode {
    P2,
    P3,
    Cost,
    Noise,
    Greedy,
}

fn usage() -> String {
    "usage: buffopt-cli NET_FILE [--segment UM] [--mode p2|p3|cost|noise|greedy] \
     [--lib ibm|single] [--polarity] [--conservative] [--verify] [--dump] \
     [--time-limit-ms N] [--max-candidates N] [--max-tree-nodes N] \
     [--mem-budget-mb N] [--memo-budget-mb N] [--no-memo]\n\
     \x20      buffopt-cli --batch DIR [--jobs N] [--journal FILE | --resume FILE] \
     [--verify-sample-rate R] [shared flags as above]\n\
     \x20      buffopt-cli serve [--listen ADDR] [--shards N] [--max-conns N] \
     [--jobs N] [--cache N] \
     [--queue-depth N] [--deadline-ms N] [--max-retries N] [--read-timeout-ms N] \
     [--max-line-bytes N] [--verify-sample-rate R] \
     [shared flags as above]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: None,
        batch: None,
        journal: None,
        resume: None,
        serve: false,
        listen: "127.0.0.1:0".to_string(),
        shards: 1,
        max_conns: 0,
        jobs: None,
        cache: 1024,
        queue_depth: 0,
        deadline_ms: None,
        max_retries: 1,
        read_timeout_ms: None,
        max_line_bytes: 1 << 20,
        verify_sample_rate: 0.0,
        segment: 500.0,
        mode: Mode::P3,
        library: catalog::ibm_like(),
        polarity: false,
        conservative: false,
        verify: false,
        dump: false,
        time_limit_ms: None,
        max_candidates: None,
        max_tree_nodes: None,
        mem_budget_mb: None,
        memo_budget_mb: None,
        no_memo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--segment" => {
                let v = it.next().ok_or_else(usage)?;
                args.segment = v.parse().map_err(|_| format!("bad --segment {v:?}"))?;
            }
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("p2") => Mode::P2,
                    Some("p3") => Mode::P3,
                    Some("cost") => Mode::Cost,
                    Some("noise") => Mode::Noise,
                    Some("greedy") => Mode::Greedy,
                    other => return Err(format!("bad --mode {other:?}")),
                };
            }
            "--lib" => {
                args.library = match it.next().as_deref() {
                    Some("ibm") => catalog::ibm_like(),
                    Some("single") => catalog::single_buffer(),
                    other => return Err(format!("bad --lib {other:?}")),
                };
            }
            "--batch" => {
                args.batch = Some(it.next().ok_or_else(usage)?);
            }
            "serve" if args.file.is_none() && !args.serve => {
                args.serve = true;
            }
            "--listen" => {
                args.listen = it.next().ok_or_else(usage)?;
            }
            "--shards" => {
                let v = it.next().ok_or_else(usage)?;
                let n: usize = v.parse().map_err(|_| format!("bad --shards {v:?}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                args.shards = n;
            }
            "--max-conns" => {
                let v = it.next().ok_or_else(usage)?;
                args.max_conns = v.parse().map_err(|_| format!("bad --max-conns {v:?}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or_else(usage)?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs {v:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                args.jobs = Some(n);
            }
            "--cache" => {
                let v = it.next().ok_or_else(usage)?;
                args.cache = v.parse().map_err(|_| format!("bad --cache {v:?}"))?;
            }
            "--journal" => {
                args.journal = Some(it.next().ok_or_else(usage)?);
            }
            "--resume" => {
                args.resume = Some(it.next().ok_or_else(usage)?);
            }
            "--queue-depth" => {
                let v = it.next().ok_or_else(usage)?;
                args.queue_depth = v.parse().map_err(|_| format!("bad --queue-depth {v:?}"))?;
            }
            "--deadline-ms" => {
                let v = it.next().ok_or_else(usage)?;
                args.deadline_ms = Some(v.parse().map_err(|_| format!("bad --deadline-ms {v:?}"))?);
            }
            "--max-retries" => {
                let v = it.next().ok_or_else(usage)?;
                args.max_retries = v.parse().map_err(|_| format!("bad --max-retries {v:?}"))?;
            }
            "--read-timeout-ms" => {
                let v = it.next().ok_or_else(usage)?;
                args.read_timeout_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --read-timeout-ms {v:?}"))?,
                );
            }
            "--max-line-bytes" => {
                let v = it.next().ok_or_else(usage)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --max-line-bytes {v:?}"))?;
                if n == 0 {
                    return Err("--max-line-bytes must be at least 1".to_string());
                }
                args.max_line_bytes = n;
            }
            "--time-limit-ms" => {
                let v = it.next().ok_or_else(usage)?;
                args.time_limit_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --time-limit-ms {v:?}"))?,
                );
            }
            "--max-candidates" => {
                let v = it.next().ok_or_else(usage)?;
                args.max_candidates = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-candidates {v:?}"))?,
                );
            }
            "--max-tree-nodes" => {
                let v = it.next().ok_or_else(usage)?;
                args.max_tree_nodes = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-tree-nodes {v:?}"))?,
                );
            }
            "--mem-budget-mb" => {
                let v = it.next().ok_or_else(usage)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --mem-budget-mb {v:?}"))?;
                if n == 0 {
                    return Err("--mem-budget-mb must be at least 1".to_string());
                }
                args.mem_budget_mb = Some(n);
            }
            "--memo-budget-mb" => {
                let v = it.next().ok_or_else(usage)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --memo-budget-mb {v:?}"))?;
                if n == 0 {
                    return Err("--memo-budget-mb must be at least 1".to_string());
                }
                args.memo_budget_mb = Some(n);
            }
            "--verify-sample-rate" => {
                let v = it.next().ok_or_else(usage)?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --verify-sample-rate {v:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err("--verify-sample-rate must be within [0, 1]".to_string());
                }
                args.verify_sample_rate = r;
            }
            "--no-memo" => args.no_memo = true,
            "--polarity" => args.polarity = true,
            "--conservative" => args.conservative = true,
            "--verify" => args.verify = true,
            "--dump" => args.dump = true,
            "--help" | "-h" => return Err(usage()),
            other if args.file.is_none() && !other.starts_with('-') => {
                args.file = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    let modes = usize::from(args.serve)
        + usize::from(args.batch.is_some())
        + usize::from(args.file.is_some());
    if modes == 0 {
        return Err(usage());
    }
    if modes > 1 {
        return Err(format!(
            "serve, --batch, and NET_FILE are exclusive\n{}",
            usage()
        ));
    }
    if (args.journal.is_some() || args.resume.is_some()) && args.batch.is_none() {
        return Err("--journal/--resume only apply to --batch".to_string());
    }
    if args.journal.is_some() && args.resume.is_some() {
        return Err("--journal and --resume are exclusive (--resume keeps journaling)".to_string());
    }
    if (args.shards > 1 || args.max_conns > 0) && !args.serve {
        return Err("--shards/--max-conns only apply to serve".to_string());
    }
    if args.verify_sample_rate > 0.0 && args.file.is_some() {
        return Err("--verify-sample-rate only applies to --batch and serve".to_string());
    }
    Ok(args)
}

/// Prints the result summary; returns (noise_ok, referee_ok).
fn report(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    assignment: &Assignment,
    verify: bool,
) -> (bool, bool) {
    let d = audit::delay(tree, lib, assignment).expect("assignment matches tree");
    let n = audit::noise(tree, scenario, lib, assignment).expect("scenario matches tree");
    println!(
        "buffers: {} (cost {:.0}), max delay {:.1} ps, timing slack {:+.1} ps, \
         worst noise headroom {:+.1} mV",
        assignment.count(),
        assignment.total_cost(lib) + 0.0, // normalizes -0.0 in the output
        d.max_delay() * 1e12,
        d.slack * 1e12,
        n.worst_headroom() * 1e3
    );
    for (node, b) in assignment.iter() {
        println!("  place {} at {}", lib.buffer(b).name, node);
    }
    let noise_ok = !n.has_violation();
    let mut referee_ok = true;
    if verify {
        let ropts = RefereeOptions::default();
        let mut worst = 0.0f64;
        for stage in audit::stages(tree, lib, assignment) {
            if stage.ends.is_empty() {
                continue;
            }
            let ends: Vec<_> = stage.ends.iter().map(|&(nd, _, c)| (nd, c)).collect();
            match referee::stage_peak_noise(
                tree,
                scenario,
                stage.root,
                stage.gate_resistance,
                &ends,
                &ropts,
            ) {
                Ok(peaks) => {
                    for (m, &(_, margin, _)) in peaks.iter().zip(&stage.ends) {
                        worst = worst.max(m.peak);
                        if m.peak > margin {
                            referee_ok = false;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    referee_ok = false;
                }
            }
        }
        println!(
            "simulation referee: worst stage peak {:.1} mV — {}",
            worst * 1e3,
            if referee_ok { "clean" } else { "VIOLATING" }
        );
    }
    (noise_ok, referee_ok)
}

/// Exit code for a single-net optimizer error. Parse and usage mistakes
/// exit 3 before the optimizer runs; every error the optimizer itself
/// reports (infeasible noise, budget exhausted) means "no usable result".
fn error_exit(_e: &CoreError) -> u8 {
    EXIT_INFEASIBLE
}

fn run_batch_mode(args: &Args, cfg: PipelineConfig, dir: &str) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read directory {dir}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "net"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .net files in {dir}");
        return ExitCode::from(EXIT_USAGE);
    }

    let mut engine = Engine::new(cfg, args.engine_options());

    // Checkpoints from an interrupted run: content key → record line.
    let checkpointed = match &args.resume {
        None => std::collections::HashMap::new(),
        Some(path) => match journal::load(std::path::Path::new(path)) {
            Ok(loaded) => {
                if loaded.quarantined > 0 {
                    eprintln!(
                        "warning: {} corrupt journal line(s) quarantined to {}; \
                         their nets will be recomputed",
                        loaded.quarantined,
                        journal::sidecar_path(std::path::Path::new(path)).display()
                    );
                }
                loaded.records
            }
            Err(e) => {
                eprintln!("cannot load journal {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    // `--journal FILE` starts a fresh journal; `--resume FILE` keeps
    // appending to the one it loaded.
    let journal_path = args.journal.as_ref().or(args.resume.as_ref());
    if args.journal.is_some() {
        if let Some(path) = journal_path {
            // Truncate a stale journal from an unrelated earlier run.
            if let Err(e) = std::fs::write(path, "") {
                eprintln!("cannot create journal {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let mut journal = match journal_path {
        None => None,
        Some(path) => match BatchJournal::open(std::path::Path::new(path)) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("cannot open journal {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };

    // Per net, either the journaled record line (spliced into the output
    // verbatim, so a resumed run is byte-identical to an uninterrupted
    // one) or a job to compute.
    let n = paths.len();
    let mut spliced: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut fresh: Vec<Job> = Vec::new();
    let mut fresh_keys: Vec<Option<u64>> = Vec::new();
    for (idx, p) in paths.iter().enumerate() {
        let name = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        let job = match std::fs::read_to_string(p) {
            Err(e) => Job {
                input: NetInput::Failed {
                    name,
                    error: format!("cannot read: {e}"),
                },
                cache_key: None,
            },
            Ok(text) => Job {
                cache_key: Some(engine.key_for(&name, &text)),
                input: decode_net(&name, &text),
            },
        };
        match job.cache_key.and_then(|k| checkpointed.get(&k)) {
            Some(line) => {
                spliced[idx] = Some(line.clone());
            }
            None => {
                fresh_keys.push(job.cache_key);
                fresh.push(job);
            }
        }
    }
    let resumed = n - fresh.len();

    // Checkpoint each record the moment it completes; a crash between
    // appends loses only the records not yet journaled. Journal I/O
    // errors degrade to an un-checkpointed run, not a failed batch.
    let mut journal_err: Option<std::io::Error> = None;
    let report = engine.run_jobs_with(fresh, |idx, record| {
        if journal_err.is_none() {
            if let (Some(j), Some(key)) = (journal.as_mut(), fresh_keys[idx]) {
                if let Err(e) = j.append(key, &record.to_json()) {
                    journal_err = Some(e);
                }
            }
        }
    });
    if let Some(e) = journal_err {
        eprintln!("warning: journaling stopped: {e}");
    }

    // Finish the sampled audit before reporting, so the tally covers
    // every record of this run.
    if args.verify_sample_rate > 0.0 {
        let (samples, failures) = engine.drain_verification();
        if failures > 0 {
            eprintln!(
                "warning: sampled audit re-verified {samples} record(s), {failures} mismatched \
                 (their cache entries were invalidated)"
            );
        } else {
            eprintln!("sampled audit: {samples} record(s) re-verified, all consistent");
        }
    }

    // Reassemble in input order: journaled lines verbatim, fresh records
    // serialized, and one shared summary over both.
    let mut out = String::new();
    let mut summary = BatchSummary::default();
    let mut fresh_records = report.outcomes.into_iter();
    for slot in spliced {
        let line = match slot {
            Some(line) => line,
            None => fresh_records
                .next()
                .expect("one record per non-journaled net")
                .to_json(),
        };
        match journal::classify(&line) {
            Some((outcome, buffers)) => summary.count(outcome, buffers),
            None => summary.count(Outcome::Failed, 0),
        }
        out.push_str(&line);
        out.push('\n');
    }
    print!("{out}");
    if resumed > 0 {
        eprintln!(
            "{} in {:.1} s ({} workers; {} resumed from journal)",
            summary,
            report.wall.as_secs_f64(),
            engine.jobs(),
            resumed
        );
    } else {
        eprintln!(
            "{} in {:.1} s ({} workers)",
            summary,
            report.wall.as_secs_f64(),
            engine.jobs()
        );
    }
    ExitCode::from(summary.exit_code().clamp(0, 255) as u8)
}

/// Parses one net's `.net` text into a [`NetInput`]: named by its `net`
/// directive if it has one, else by `id`; a parse failure becomes a
/// `Failed` input carrying the parser's message. Batch files and served
/// requests both decode through here.
fn decode_net(id: &str, text: &str) -> NetInput {
    match parse(text) {
        Ok(net) => NetInput::Parsed {
            name: net.name.unwrap_or_else(|| id.to_string()),
            tree: net.tree,
            scenario: net.scenario,
        },
        Err(e) => NetInput::Failed {
            name: id.to_string(),
            error: e.to_string(),
        },
    }
}

fn run_serve_mode(args: &Args) -> ExitCode {
    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot listen on {}: {e}", args.listen);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // One engine per reactor shard. Each gets its own pipeline config
    // (and thus its own memo table, when one is enabled), so per-engine
    // statistics stay independent and the stats aggregation never
    // double-counts a shared structure.
    let engines: Vec<_> = (0..args.shards)
        .map(|_| std::sync::Arc::new(Engine::new(args.pipeline_config(), args.engine_options())))
        .collect();
    match listener.local_addr() {
        Ok(addr) => {
            // Scripts wait for this line to learn the OS-assigned port.
            println!("listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot resolve listen address: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    eprintln!(
        "{} shard(s) x {} workers, cache capacity {}",
        engines.len(),
        engines[0].jobs(),
        args.cache,
    );
    match serve_sharded(
        listener,
        engines,
        std::sync::Arc::new(decode_net),
        args.serve_options(),
    ) {
        Ok(()) => ExitCode::from(EXIT_OK),
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.serve {
        return run_serve_mode(&args);
    }
    let cfg = args.pipeline_config();
    if let Some(dir) = args.batch.clone() {
        return run_batch_mode(&args, cfg, &dir);
    }
    let file = args.file.as_deref().expect("checked in parse_args");
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let net = match parse(&text) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!(
        "net {}: {} sinks, {:.1} mm wire, {:.1} fF",
        net.name.as_deref().unwrap_or("(unnamed)"),
        net.tree.sinks().len(),
        net.tree.total_wire_length() / 1000.0,
        net.tree.total_capacitance() * 1e15
    );
    if args.dump {
        print!("{}", buffopt_tree::render(&net.tree));
    }
    let mut ws = DpWorkspace::new();

    if args.mode == Mode::Noise {
        // Continuous-position noise avoidance on the raw tree.
        match algorithm2::avoid_noise_budgeted_with(
            &mut ws,
            &net.tree,
            &net.scenario,
            &cfg.library,
            &cfg.budget(),
        ) {
            Ok(sol) => {
                let (noise_ok, referee_ok) = report(
                    &sol.tree,
                    &sol.scenario,
                    &cfg.library,
                    &sol.assignment,
                    args.verify,
                );
                return if noise_ok && referee_ok {
                    ExitCode::from(EXIT_OK)
                } else {
                    ExitCode::from(EXIT_INFEASIBLE)
                };
            }
            Err(e) => {
                eprintln!("noise avoidance failed: {e}");
                return ExitCode::from(error_exit(&e));
            }
        }
    }

    let seg = match segment::segment_wires(&net.tree, args.segment) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("segmenting failed: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let scenario = net.scenario.for_segmented(&seg);
    let tree = seg.tree;
    let opts = BuffOptOptions {
        max_buffers: None,
        conservative_pruning: cfg.conservative,
        polarity_aware: cfg.polarity,
        budget: cfg.budget(),
        memo: cfg.memo.clone(),
    };
    let lib = &cfg.library;
    let sol = match args.mode {
        Mode::P2 => {
            algo3::solve(&mut ws, &tree, Some(&scenario), lib, &opts).map(|f| f.max_slack())
        }
        Mode::P3 => algo3::min_buffers_with(&mut ws, &tree, &scenario, lib, &opts),
        Mode::Cost => algo3::min_cost(&mut ws, &tree, &scenario, lib, &opts),
        Mode::Greedy => iterative::optimize(
            &tree,
            &scenario,
            lib,
            &IterativeOptions {
                noise: true,
                max_buffers: None,
                budget: opts.budget.clone(),
            },
        ),
        Mode::Noise => unreachable!("handled above"),
    };
    match sol {
        Ok(sol) => {
            let (noise_ok, referee_ok) =
                report(&tree, &scenario, lib, &sol.assignment, args.verify);
            if sol.slack < 0.0 {
                eprintln!("warning: timing not met (slack {:.1} ps)", sol.slack * 1e12);
            }
            if !noise_ok || !referee_ok {
                ExitCode::from(EXIT_INFEASIBLE)
            } else if sol.slack < 0.0 {
                ExitCode::from(EXIT_DEGRADED)
            } else {
                ExitCode::from(EXIT_OK)
            }
        }
        Err(e) => {
            eprintln!("optimization failed: {e}");
            ExitCode::from(error_exit(&e))
        }
    }
}
