//! Reproducible DP performance snapshot of the shipped van Ginneken
//! engine.
//!
//! Runs the DP over comb nets of growing sink count and writes one
//! machine-readable JSON file — `BENCH_dp.json` by default — with per-row
//! median and minimum wall time, candidate pressure, the exact work
//! counters, and (under `--features alloc-count`) heap allocations per
//! run. Its sections:
//!
//! * `sizes` — BuffOpt (noise mode, full library) on the 2–16-sink combs;
//! * `scaling` — the same on 64–512-sink nets from the `buffopt-workload`
//!   scaling generator, where the predictive windowed merge does most of
//!   its skipping (few samples);
//! * `ablation` — the design choices DESIGN.md calls out, one row per
//!   variant: DelayOpt on the combs (the paper's Table III CPU column:
//!   noise pruning leaves BuffOpt fewer candidates than DelayOpt),
//!   DelayOpt(4) and BuffOpt(4) on a 10-sink comb, wire-segmenting
//!   granularity, paper vs conservative pruning, and library size;
//! * `analysis` — the greedy iterative optimizer with incremental probe
//!   re-analysis, timed per comb size;
//! * `search` and `search_tiers` — the served Problem 3, the bounded count
//!   search `buffopt::min_buffers_with`, on the comb nets, the scaling
//!   nets and a tier of long two-pin nets (4–40 mm, RATs 0.3–5 ns,
//!   meeting and missing timing), timed beside one uncapped `solve` of the
//!   same net. Rows also record the noise floor the search starts from
//!   (`floor`, Algorithm 2's buffer count) and whether Algorithm 2's
//!   placement meets timing (`floor_meets_timing`).
//!
//! Usage: `dp_snapshot [--quick] [--out PATH] [--gate BASELINE]`
//!
//! `--quick` drops the sample counts and the scaling tier to its 64-sink
//! net (CI smoke); the full mode is what EXPERIMENTS.md records.
//!
//! `--gate BASELINE` compares the fresh snapshot against a committed
//! baseline (typically the repo's `BENCH_dp.json`) row by row, keyed by
//! section and row name, and exits nonzero if an exact work counter rose:
//! `merge_rows_swept`, `prune_rows_sorted`, `peak_candidates` and
//! `merge_enumerated` on the size, scaling and ablation rows; `dp_runs`
//! and `merge_rows_swept` on the search rows. The counters count rows,
//! not time, so they are host-independent and the gate is exact and
//! one-sided: any rise fails, with no tolerance, and a fall passes. A
//! baseline row without a counter is not gated on it; a fresh row that
//! lost one fails. Timing and allocations are recorded in every row but
//! not gated: a constant-factor slowdown that moves no counter shows only
//! in paired runs of the repository benchmark (`scripts/bench_paired.sh`).
//!
//! Every row's statistics come from its last timed sample, so no row runs
//! the DP outside the measurement except `measure`'s one warm-up.

use std::time::Instant;

use buffopt::algorithm2::{self, NoiseFloor};
use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::iterative::{self, IterativeOptions};
use buffopt::{DpWork, DpWorkspace, RunBudget, Solution};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};
use buffopt_workload::{scaling_net, ScalingConfig};

/// Counting global allocator, compiled in only when the snapshot should
/// report allocator traffic (`--features alloc-count`). Counts every
/// `alloc`/`realloc` call and the bytes requested; `dealloc` is free.
#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    pub fn reading() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

#[cfg(not(feature = "alloc-count"))]
mod counting_alloc {
    pub fn reading() -> (u64, u64) {
        (0, 0)
    }
}

/// The comb: a trunk of 800 µm spans with one tooth per sink, segmented
/// at 400 µm.
fn comb_net(sinks: usize) -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 20e-12));
    let mut trunk = b.source();
    for i in 0..sinks {
        trunk = b.add_internal(trunk, tech.wire(800.0)).expect("trunk");
        b.add_sink(
            trunk,
            tech.wire(600.0 + 100.0 * (i % 5) as f64),
            SinkSpec::new(15e-15, 1.5e-9, 0.8),
        )
        .expect("tooth");
    }
    segment::segment_wires(&b.build().expect("tree"), 400.0)
        .expect("segment")
        .tree
}

/// A two-pin net of `len_um` on the global layer, segmented at 500 µm
/// as the pipeline serves it.
fn two_pin_net(len_um: f64, rat_s: f64) -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 20e-12));
    b.add_sink(
        b.source(),
        tech.wire(len_um),
        SinkSpec::new(20e-15, rat_s, 0.8),
    )
    .expect("sink");
    segment::segment_wires(&b.build().expect("tree"), 500.0)
        .expect("segment")
        .tree
}

/// The ablation net: a 4 mm stem to a junction with three sinks at
/// 3–5 mm, segmented at `max_segment_um`.
fn ablation_net(max_segment_um: f64) -> (RoutingTree, NoiseScenario) {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 20e-12));
    let j = b.add_internal(b.source(), tech.wire(4_000.0)).expect("j");
    for i in 0..3 {
        b.add_sink(
            j,
            tech.wire(3_000.0 + 1_000.0 * i as f64),
            SinkSpec::new(15e-15, 1.5e-9, 0.8),
        )
        .expect("sink");
    }
    let tree = b.build().expect("tree");
    let seg = segment::segment_wires(&tree, max_segment_um).expect("segment");
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9).for_segmented(&seg);
    (seg.tree, scenario)
}

struct Measured {
    median_ns: u64,
    min_ns: u64,
    allocs_per_run: u64,
    alloc_bytes_per_run: u64,
}

/// Medians over `samples` timed runs of `f`, with allocator traffic
/// averaged across the whole timed region (per-sample counting would
/// attribute the warm-up of reused scratch unevenly).
fn measure(samples: usize, mut f: impl FnMut()) -> Measured {
    // One untimed warm-up so one-time growth (workspace capacity, lazy
    // init) lands outside the measurement.
    f();
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    let (a0, b0) = counting_alloc::reading();
    for _ in 0..samples {
        let t = Instant::now();
        f();
        times.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let (a1, b1) = counting_alloc::reading();
    times.sort_unstable();
    Measured {
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        allocs_per_run: (a1 - a0) / samples as u64,
        alloc_bytes_per_run: (b1 - b0) / samples as u64,
    }
}

/// One DP row: the run's timing, its statistics and its work counters.
struct DpRow {
    time: Measured,
    /// The last sample's best-slack solution (its statistics).
    sol: Solution,
    work: DpWork,
}

/// Times one [`algo3::solve`] of `tree` read as its best slack: BuffOpt
/// with a `scenario`, DelayOpt without one.
fn measure_dp(
    samples: usize,
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
    ws: &mut DpWorkspace,
) -> DpRow {
    let mut last = None;
    let time = measure(samples, || {
        let sol = algo3::solve(ws, tree, scenario, lib, opts)
            .expect("solves")
            .max_slack();
        last = Some((sol, ws.work()));
    });
    let (sol, work) = last.expect("measure runs at least once");
    DpRow { time, sol, work }
}

/// A DP row's JSON object, keyed by `key` (its leading field, e.g.
/// `"sinks":16`).
fn json_dp_row(key: &str, tree: &RoutingTree, r: &DpRow) -> String {
    let (s, w) = (&r.sol, &r.work);
    format!(
        "{{{key},\"nodes\":{},\"arena\":{},\"peak_candidates\":{},\"peak_merge_product\":{},\
         \"merge_enumerated\":{},\"merge_pruned\":{},\"merge_rows_swept\":{},\
         \"merge_rows_dropped\":{},\"merge_compactions\":{},\"prune_rows_sorted\":{}}}",
        tree.len(),
        json_engine(&r.time),
        s.peak_candidates,
        s.peak_merge_product,
        s.merge_products_enumerated,
        s.merge_products_pruned,
        w.merge_rows_swept,
        w.merge_rows_dropped,
        w.merge_compactions,
        w.prune_rows_sorted
    )
}

/// One search row: the bounded count search and one uncapped run, each
/// timed, with the served answer and the search's summed work.
struct SearchRow {
    search: Measured,
    uncapped: Measured,
    buffers: usize,
    meets_timing: bool,
    work: DpWork,
    /// Algorithm 2's noise floor (`None` when it fails on the net).
    floor: Option<NoiseFloor>,
}

/// Times `min_buffers_with` and one uncapped `solve` read as
/// `min_buffers` on `tree` (noise mode, full library), and checks that
/// they serve the same answer.
fn measure_search(
    samples: usize,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    ws: &mut DpWorkspace,
) -> SearchRow {
    let lib = catalog::ibm_like();
    let opts = BuffOptOptions::default();
    let mut served = None;
    let search = measure(samples, || {
        let sol = algo3::min_buffers_with(ws, tree, scenario, &lib, &opts).expect("solves");
        served = Some((sol, ws.work()));
    });
    let (sol, work) = served.expect("measure runs at least once");
    let mut one = None;
    let uncapped = measure(samples, || {
        let f = algo3::solve(ws, tree, Some(scenario), &lib, &opts).expect("solves");
        one = Some(f.min_buffers());
    });
    let one = one.expect("measure runs at least once");
    let floor = algorithm2::noise_floor_with(ws, tree, scenario, &lib, &RunBudget::default()).ok();
    assert!(
        one.buffers == sol.buffers && one.slack.to_bits() == sol.slack.to_bits(),
        "the search served {} buffers at {:e} s, one run {} at {:e} s",
        sol.buffers,
        sol.slack,
        one.buffers,
        one.slack
    );
    SearchRow {
        search,
        uncapped,
        buffers: sol.buffers,
        meets_timing: sol.slack >= 0.0,
        work,
        floor,
    }
}

/// The exact work counters the gate holds, per snapshot section. Every
/// other section (the greedy `analysis` rows, the search tier totals) is
/// timing only.
const GATED: [(&str, &[&str]); 4] = [
    ("sizes", &DP_COUNTERS),
    ("scaling", &DP_COUNTERS),
    ("ablation", &DP_COUNTERS),
    ("search", &["dp_runs", "merge_rows_swept"]),
];

/// The counters a DP row (size, scaling or ablation) is gated on.
const DP_COUNTERS: [&str; 4] = [
    "merge_rows_swept",
    "prune_rows_sorted",
    "peak_candidates",
    "merge_enumerated",
];

fn json_engine(m: &Measured) -> String {
    format!(
        "{{\"median_ns\":{},\"min_ns\":{},\"allocs_per_run\":{},\"alloc_bytes_per_run\":{}}}",
        m.median_ns, m.min_ns, m.allocs_per_run, m.alloc_bytes_per_run
    )
}

/// The integer right after `field` in `json`, or `None`.
fn number_after(json: &str, field: &str) -> Option<u64> {
    let rest = &json[json.find(field)? + field.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The top-level objects of the array that starts right after `"name":[`
/// in `json`, as slices; empty when the section is absent.
fn section_rows<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let open = format!("\"{name}\":[");
    let Some(at) = json.find(&open) else {
        return Vec::new();
    };
    let body = &json[at + open.len()..];
    let (mut rows, mut depth, mut row_start) = (Vec::new(), 0usize, 0usize);
    for (i, c) in body.char_indices() {
        match c {
            '{' | '[' => {
                if depth == 0 {
                    row_start = i;
                }
                depth += 1;
            }
            '}' | ']' if depth == 0 => break,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    rows.push(&body[row_start..=i]);
                }
            }
            _ => {}
        }
    }
    rows
}

/// One gated row of a snapshot: `section/name` and the section's gated
/// counters, in order (`None` where the row lacks one).
type GatedRow = (String, Vec<(&'static str, Option<u64>)>);

/// Every gated row of a snapshot. A row's name is its `net` or `variant`
/// string, else its `sinks` count.
fn gated_rows(json: &str) -> Vec<GatedRow> {
    let mut out = Vec::new();
    for (section, counters) in GATED {
        for row in section_rows(json, section) {
            let name = ["\"net\":\"", "\"variant\":\""]
                .iter()
                .find_map(|f| row.find(f).map(|at| &row[at + f.len()..]))
                .and_then(|rest| rest.split('"').next().map(str::to_string))
                .or_else(|| number_after(row, "\"sinks\":").map(|n| n.to_string()));
            let Some(name) = name else { continue };
            let values = counters
                .iter()
                .map(|&c| (c, number_after(row, &format!("\"{c}\":"))))
                .collect();
            out.push((format!("{section}/{name}"), values));
        }
    }
    out
}

/// Compares the fresh snapshot's gated rows against `baseline`'s. A row
/// fails if one of its counters rose above the baseline row's at all, or
/// is missing where the baseline has it; a baseline without a counter is
/// not gated on it, and rows absent from the baseline are skipped.
/// Timing is never compared. Returns `Err` naming the first failure.
fn gate_against(baseline: &str, fresh: &str) -> Result<(), String> {
    let base = gated_rows(baseline);
    if base.is_empty() {
        return Err("baseline has no gated rows".to_string());
    }
    for (row, counters) in gated_rows(fresh) {
        let Some((_, b)) = base.iter().find(|(n, _)| *n == row) else {
            eprintln!("gate: {row}: no baseline row, skipped");
            continue;
        };
        for (&(name, n), &(_, base_n)) in counters.iter().zip(b) {
            match (n, base_n) {
                (Some(n), Some(base_n)) if n > base_n => {
                    return Err(format!("{row} {name} rose from {base_n} to {n}"));
                }
                (None, Some(_)) => return Err(format!("{row}: fresh snapshot lacks {name}")),
                _ => {}
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_dp.json", |s| s.as_str());
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1));
    let samples = if quick { 5 } else { 31 };

    let lib = catalog::ibm_like();
    let opts = BuffOptOptions::default();
    let mut ws = DpWorkspace::new();

    let mut rows: Vec<String> = Vec::new();
    let mut analysis_rows: Vec<String> = Vec::new();
    for sinks in [2usize, 4, 8, 16] {
        let tree = comb_net(sinks);
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let r = measure_dp(samples, &tree, Some(&scenario), &lib, &opts, &mut ws);
        eprintln!(
            "sinks {sinks:>2}: {:>9} ns, peak {} candidates / {} merge product, \
             {} allocs/run, {} merge rows swept",
            r.time.median_ns,
            r.sol.peak_candidates,
            r.sol.peak_merge_product,
            r.time.allocs_per_run,
            r.work.merge_rows_swept,
        );
        rows.push(json_dp_row(&format!("\"sinks\":{sinks}"), &tree, &r));

        // Greedy iterative insertion, probe-scored by O(depth) incremental
        // table refreshes.
        let greedy_opts = IterativeOptions {
            noise: true,
            ..IterativeOptions::default()
        };
        let greedy = measure(samples, || {
            iterative::optimize(&tree, &scenario, &lib, &greedy_opts).expect("greedy solves");
        });
        eprintln!("          greedy incremental {:>9} ns", greedy.median_ns);
        analysis_rows.push(format!(
            "{{\"sinks\":{sinks},\"nodes\":{},\"incremental\":{}}}",
            tree.len(),
            json_engine(&greedy),
        ));
    }

    // Scaling tier: 64–512-sink generated nets (the `buffopt-workload`
    // scaling generator), where the predictive windowed merge skips most
    // of the raw cross product. Each run is long, so the tier takes few
    // samples.
    let scaling_sizes: &[usize] = if quick { &[64] } else { &[64, 128, 256, 512] };
    let scaling_samples = if quick { 3 } else { 5 };
    let mut scaling_rows: Vec<String> = Vec::new();
    for &sinks in scaling_sizes {
        let tree = scaling_net(&ScalingConfig {
            sinks,
            ..ScalingConfig::default()
        });
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let r = measure_dp(
            scaling_samples,
            &tree,
            Some(&scenario),
            &lib,
            &opts,
            &mut ws,
        );
        eprintln!(
            "scaling {sinks:>3}: {:>10} ns, enumerated {} / pruned {} merge pairs, \
             {} merge rows swept / {} dropped",
            r.time.median_ns,
            r.sol.merge_products_enumerated,
            r.sol.merge_products_pruned,
            r.work.merge_rows_swept,
            r.work.merge_rows_dropped,
        );
        scaling_rows.push(json_dp_row(&format!("\"sinks\":{sinks}"), &tree, &r));
    }

    // Ablation tier: one row per design choice DESIGN.md calls out.
    let mut ablation_rows: Vec<String> = Vec::new();
    let mut ablate = |variant: String,
                      tree: &RoutingTree,
                      scenario: Option<&NoiseScenario>,
                      lib: &BufferLibrary,
                      opts: &BuffOptOptions| {
        let r = measure_dp(samples, tree, scenario, lib, opts, &mut ws);
        eprintln!(
            "ablation {variant:<22} {:>10} ns, peak {} candidates, {} merge rows enumerated",
            r.time.median_ns, r.sol.peak_candidates, r.sol.merge_products_enumerated,
        );
        ablation_rows.push(json_dp_row(&format!("\"variant\":\"{variant}\""), tree, &r));
    };
    // DelayOpt on the combs, beside the `sizes` rows' BuffOpt.
    for sinks in [2usize, 4, 8, 16] {
        let tree = comb_net(sinks);
        ablate(format!("delayopt/comb/{sinks}"), &tree, None, &lib, &opts);
    }
    // The paper's DelayOpt(4) setting, where noise pruning leaves BuffOpt
    // fewer candidates than DelayOpt.
    let comb10 = comb_net(10);
    let comb10_scenario = NoiseScenario::estimation(&comb10, 0.7, 7.2e9);
    let k4 = BuffOptOptions {
        max_buffers: Some(4),
        ..BuffOptOptions::default()
    };
    ablate("delayopt-k4/comb/10".into(), &comb10, None, &lib, &k4);
    ablate(
        "buffopt-k4/comb/10".into(),
        &comb10,
        Some(&comb10_scenario),
        &lib,
        &k4,
    );
    // Wire-segmenting granularity (coarser than ~1 mm leaves too few
    // sites for the noise constraints on this net).
    for seg_um in [1000usize, 500, 250, 125] {
        let (tree, scenario) = ablation_net(seg_um as f64);
        ablate(
            format!("segment/{seg_um}um"),
            &tree,
            Some(&scenario),
            &lib,
            &opts,
        );
    }
    // Paper (C, q) pruning vs conservative 4-D pruning, and library size.
    let (tree, scenario) = ablation_net(400.0);
    let conservative = BuffOptOptions {
        conservative_pruning: true,
        ..BuffOptOptions::default()
    };
    ablate("pruning/paper".into(), &tree, Some(&scenario), &lib, &opts);
    ablate(
        "pruning/conservative".into(),
        &tree,
        Some(&scenario),
        &lib,
        &conservative,
    );
    for small in [catalog::single_buffer(), lib.non_inverting(), lib.clone()] {
        let variant = format!("library/{}", small.len());
        ablate(variant, &tree, Some(&scenario), &small, &opts);
    }

    // Search tier: the served Problem 3 against one uncapped run, on the
    // comb nets, the scaling nets, and long two-pin nets whose answers
    // need many buffers or miss timing (the search's worst case).
    let mut search_rows_json: Vec<String> = Vec::new();
    let mut tier_rows: Vec<String> = Vec::new();
    let two_pin: Vec<(String, RoutingTree)> = [4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0]
        .iter()
        .flat_map(|&mm: &f64| {
            [0.3, 0.6, 1.2, 2.5, 5.0].map(|ns: f64| {
                (
                    format!("two-pin/{mm}mm/{ns}ns"),
                    two_pin_net(mm * 1000.0, ns * 1e-9),
                )
            })
        })
        .collect();
    let combs: Vec<(String, RoutingTree)> = [2usize, 4, 8, 16]
        .iter()
        .map(|&n| (format!("comb/{n}"), comb_net(n)))
        .collect();
    let scalings: Vec<(String, RoutingTree)> = scaling_sizes
        .iter()
        .map(|&n| {
            let tree = scaling_net(&ScalingConfig {
                sinks: n,
                ..ScalingConfig::default()
            });
            (format!("scaling/{n}"), tree)
        })
        .collect();
    for (tier, nets, tier_samples) in [
        ("comb", &combs, samples),
        ("scaling", &scalings, scaling_samples),
        ("two-pin", &two_pin, samples),
    ] {
        let (mut search_ns, mut uncapped_ns) = (0u64, 0u64);
        for (name, tree) in nets {
            let scenario = NoiseScenario::estimation(tree, 0.7, 7.2e9);
            let r = measure_search(tier_samples, tree, &scenario, &mut ws);
            search_ns += r.search.median_ns;
            uncapped_ns += r.uncapped.median_ns;
            let ratio = r.search.median_ns as f64 / r.uncapped.median_ns.max(1) as f64;
            let (floor, floor_meets_timing) = match r.floor {
                Some(f) => (f.buffers.to_string(), f.meets_timing().to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            eprintln!(
                "search {name:<20} {} buffers{} (floor {floor}{}), {} DP runs, \
                 {ratio:.2}x one uncapped run",
                r.buffers,
                if r.meets_timing {
                    ""
                } else {
                    " (timing unmet)"
                },
                if r.floor.is_some_and(|f| !f.meets_timing()) {
                    ", misses timing"
                } else {
                    ""
                },
                r.work.dp_runs,
            );
            search_rows_json.push(format!(
                "{{\"net\":\"{name}\",\"nodes\":{},\"buffers\":{},\"meets_timing\":{},\
                 \"floor\":{floor},\"floor_meets_timing\":{floor_meets_timing},\
                 \"search\":{},\"uncapped\":{},\"ratio\":{ratio:.3},\"dp_runs\":{},\
                 \"merge_rows_swept\":{}}}",
                tree.len(),
                r.buffers,
                r.meets_timing,
                json_engine(&r.search),
                json_engine(&r.uncapped),
                r.work.dp_runs,
                r.work.merge_rows_swept,
            ));
        }
        let ratio = search_ns as f64 / uncapped_ns.max(1) as f64;
        eprintln!("search tier {tier}: {ratio:.3}x the uncapped runs in total");
        tier_rows.push(format!(
            "{{\"tier\":\"{tier}\",\"search_ns\":{search_ns},\"uncapped_ns\":{uncapped_ns},\
             \"ratio\":{ratio:.3}}}"
        ));
    }

    let alloc_counted = cfg!(feature = "alloc-count");
    let json = format!(
        "{{\"bench\":\"dp_snapshot\",\"mode\":\"{}\",\"samples\":{},\
         \"scaling_samples\":{},\
         \"alloc_counted\":{},\"net\":\"comb/400um\",\"sizes\":[{}],\
         \"scaling\":[{}],\"ablation\":[{}],\
         \"analysis\":[{}],\"search_tiers\":[{}],\"search\":[{}]}}\n",
        if quick { "quick" } else { "full" },
        samples,
        scaling_samples,
        alloc_counted,
        rows.join(","),
        scaling_rows.join(","),
        ablation_rows.join(","),
        analysis_rows.join(","),
        tier_rows.join(","),
        search_rows_json.join(",")
    );
    std::fs::write(out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = gate_path {
        let baseline = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("cannot read gate baseline {base_path}: {e}"));
        match gate_against(&baseline, &json) {
            Ok(()) => eprintln!("gate: no exact work counter rose above {base_path}"),
            Err(why) => {
                eprintln!("gate FAILED against {base_path}: {why}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gate_against;

    /// A snapshot whose `section` holds one row, keyed by `key`, with the
    /// given counters and a timing object of `median_ns`.
    fn snapshot(
        section: &str,
        key: &str,
        counters: &[(&str, Option<u64>)],
        median_ns: u64,
    ) -> String {
        let fields: String = counters
            .iter()
            .filter_map(|(name, v)| v.map(|v| format!(",\"{name}\":{v}")))
            .collect();
        format!(
            "{{\"{section}\":[{{{key},\"arena\":{{\"median_ns\":{median_ns},\"min_ns\":{median_ns}}}\
             {fields}}}],\"analysis\":[]}}"
        )
    }

    #[test]
    fn the_gate_is_exact_one_sided_and_blind_to_timing() {
        let dp = [
            "merge_rows_swept",
            "prune_rows_sorted",
            "peak_candidates",
            "merge_enumerated",
        ];
        for (section, key, counters) in [
            ("sizes", "\"sinks\":16", &dp[..]),
            ("scaling", "\"sinks\":64", &dp[..]),
            ("ablation", "\"variant\":\"delayopt/comb/4\"", &dp[..]),
            (
                "search",
                "\"net\":\"two-pin/4mm/0.3ns\"",
                &["dp_runs", "merge_rows_swept"][..],
            ),
        ] {
            let row = |values: &[Option<u64>], ns: u64| {
                let named: Vec<_> = counters
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect();
                snapshot(section, key, &named, ns)
            };
            let all = |v: u64| vec![Some(v); counters.len()];
            let base = row(&all(100), 1000);
            assert_eq!(
                gate_against(&base, &row(&all(100), 1000)),
                Ok(()),
                "{section}"
            );
            // Timing is recorded, not gated: a 10x slower row passes.
            assert_eq!(
                gate_against(&base, &row(&all(100), 10_000)),
                Ok(()),
                "{section}"
            );
            for (k, name) in counters.iter().enumerate() {
                let with = |v: Option<u64>| {
                    let mut values = all(100);
                    values[k] = v;
                    values
                };
                // A rise fails; a fall passes.
                let err = gate_against(&base, &row(&with(Some(101)), 1000)).unwrap_err();
                assert!(
                    err.contains(&format!("{name} rose from 100 to 101")),
                    "{err}"
                );
                assert_eq!(gate_against(&base, &row(&with(Some(99)), 1000)), Ok(()));
                // A fresh row that lost the counter fails.
                let err = gate_against(&base, &row(&with(None), 1000)).unwrap_err();
                assert!(err.contains(&format!("lacks {name}")), "{err}");
                // A baseline without the counter is not gated on it.
                let older = row(&with(None), 1000);
                assert_eq!(gate_against(&older, &row(&with(Some(999)), 1000)), Ok(()));
            }
            // Rows absent from the baseline are skipped.
            let other = snapshot(
                "sizes",
                "\"sinks\":999",
                &[("merge_rows_swept", Some(1))],
                1,
            );
            assert_eq!(
                gate_against(&other, &row(&all(999), 1000)),
                Ok(()),
                "{section}"
            );
        }
        // A baseline with no gated rows gates nothing and says so.
        assert!(gate_against("{}", &snapshot("sizes", "\"sinks\":2", &[], 1)).is_err());
    }
}
