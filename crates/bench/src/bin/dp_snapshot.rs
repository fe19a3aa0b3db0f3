//! Reproducible DP performance snapshot: arena engine vs seed engine.
//!
//! Runs both van Ginneken engines over comb nets of growing sink count
//! (the `dp_scaling` shape) and writes one machine-readable JSON file —
//! `BENCH_dp.json` by default — with per-size median wall time, candidate
//! pressure, and (under `--features alloc-count`) heap allocation counts
//! per run. A `scaling` section repeats the engine comparison on 64–512
//! sink nets from the `buffopt-workload` scaling generator, where the
//! predictive windowed merge separates from the seed engine's full
//! cross-product enumeration (few samples — the reference engine is
//! O(Σ |L|·|R|) there). A further `analysis` section times the greedy
//! iterative optimizer with incremental probe re-analysis against the
//! seed's full-resweep scoring, per size. This is the artifact
//! `scripts/bench_snapshot.sh` produces and CI archives, so the perf
//! trajectory of the DP core is diffable across commits.
//!
//! Usage: `dp_snapshot [--quick] [--out PATH] [--gate BASELINE]
//!                     [--gate-tolerance-pct P]`
//!
//! `--quick` drops the per-size sample count (CI smoke); the full mode is
//! what EXPERIMENTS.md records.
//!
//! `--gate BASELINE` compares the fresh snapshot against a committed
//! baseline (typically the repo's `BENCH_dp.json`) and exits nonzero if
//! any size's arena-vs-reference median ratio drifted by more than the
//! tolerance (default 2%). Gating on the *ratio* — not the raw medians —
//! makes the check portable across machines: both engines share the
//! hardware, so a genuine regression in the arena engine (say, integrity
//! bookkeeping leaking into the DP hot path) moves the ratio while mere
//! machine speed does not.
//!
//! Every row also records the arena engine's exact work counters
//! ([`buffopt::DpWork`]): rows fed to the fused merge's dominance sweeps,
//! rows its emission filter dropped, mid-merge compactions, and rows any
//! dominance sweep handed to a comparison sort. They count rows, not
//! time, so the gate checks `merge_rows_swept` and `prune_rows_sorted`
//! exactly and one-sided: any rise above the baseline row fails, with no
//! tolerance, and a fall passes.
//!
//! A `search` section runs the served Problem 3 — the bounded count
//! search, `buffopt::min_buffers_with` — on the comb nets, the scaling
//! nets and a tier of long two-pin nets (4–40 mm, RATs 0.3–5 ns, meeting
//! and missing timing), timed beside one uncapped `solve` of the same
//! net. Its rows record the search's DP runs and `merge_rows_swept`,
//! summed over the search, and the gate holds both exactly and one-sided
//! like the size rows' counters. They also record the noise floor the
//! search starts from (`floor`, Algorithm 2's buffer count) and whether
//! Algorithm 2's placement meets timing (`floor_meets_timing`), ungated.
//!
//! Every engine's stats come from its last timed sample, so no size runs
//! an engine outside the measurement except `measure`'s one warm-up.

use std::time::Instant;

use buffopt::algorithm2::{self, NoiseFloor};
use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::dp_reference::{run_arena, run_reference, EngineConfig, EngineStats};
use buffopt::iterative::{self, IterativeOptions};
use buffopt::{DpWork, DpWorkspace, RunBudget};
use buffopt_buffers::catalog;
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

/// The `dp_scaling` comb: a trunk of 800 µm spans with one tooth per
/// sink, segmented at 400 µm.
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

/// Times the arena engine (noise mode, full library) on `tree`, and
/// returns its stats and work counters from the last timed sample.
fn measure_arena(
    samples: usize,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    ws: &mut DpWorkspace,
) -> (Measured, (EngineStats, DpWork)) {
    let (lib, cfg, budget) = (
        catalog::ibm_like(),
        EngineConfig::default(),
        RunBudget::default(),
    );
    let mut last = None;
    let m = measure(samples, || {
        let (_, stats) = run_arena(tree, Some(scenario), &lib, &cfg, &budget, ws).expect("solves");
        last = Some((stats, ws.work()));
    });
    (m, last.expect("measure runs at least once"))
}

/// Times the seed engine (noise mode, full library) on `tree`, and
/// returns its stats from the last timed sample.
fn measure_reference(
    samples: usize,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
) -> (Measured, EngineStats) {
    let (lib, cfg, budget) = (
        catalog::ibm_like(),
        EngineConfig::default(),
        RunBudget::default(),
    );
    let mut last = None;
    let m = measure(samples, || {
        last = Some(
            run_reference(tree, Some(scenario), &lib, &cfg, &budget)
                .expect("solves")
                .1,
        );
    });
    (m, last.expect("measure runs at least once"))
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

/// The work counters a search row is gated on.
const SEARCH_GATED: [&str; 2] = ["dp_runs", "merge_rows_swept"];

/// `(net, counters)` per row of a snapshot's `search` section.
fn search_rows(json: &str) -> Vec<(String, [Option<u64>; SEARCH_GATED.len()])> {
    let Some(at) = json.find("\"search\":[") else {
        return Vec::new();
    };
    json[at..]
        .split("{\"net\":\"")
        .skip(1)
        .filter_map(|row| {
            let net = row.split('"').next()?.to_string();
            Some((
                net,
                SEARCH_GATED.map(|c| number_after(row, &format!("\"{c}\":"))),
            ))
        })
        .collect()
}

/// The search rows' half of the gate: a row fails if its DP runs or
/// merge rows swept rose above the baseline's, or it lost a counter the
/// baseline has. Rows absent from the baseline are skipped.
fn gate_search(baseline: &str, fresh: &str) -> Result<(), String> {
    let base = search_rows(baseline);
    for (net, counters) in search_rows(fresh) {
        let Some((_, b)) = base.iter().find(|(n, _)| *n == net) else {
            eprintln!("gate: search {net}: no baseline row, skipped");
            continue;
        };
        for (k, name) in SEARCH_GATED.iter().enumerate() {
            match (counters[k], b[k]) {
                (Some(n), Some(base_n)) if n > base_n => {
                    return Err(format!("search {net} {name} rose from {base_n} to {n}"));
                }
                (None, Some(_)) => return Err(format!("search {net} fresh snapshot lacks {name}")),
                _ => {}
            }
        }
    }
    Ok(())
}

/// The work-counter fields of a size row (leading comma included).
fn json_work(w: &DpWork) -> String {
    format!(
        ",\"merge_rows_swept\":{},\"merge_rows_dropped\":{},\"merge_compactions\":{},\
         \"prune_rows_sorted\":{}",
        w.merge_rows_swept, w.merge_rows_dropped, w.merge_compactions, w.prune_rows_sorted
    )
}

/// The work counters the gate holds exactly: a size fails if one rises.
const GATED_COUNTERS: [&str; 2] = ["merge_rows_swept", "prune_rows_sorted"];

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

/// One size row of a snapshot, as the gate reads it.
struct SizeRow {
    sinks: u64,
    /// Arena engine `(median_ns, min_ns)`.
    arena: (u64, u64),
    /// Seed engine `(median_ns, min_ns)`.
    reference: (u64, u64),
    /// The [`GATED_COUNTERS`], in order; `None` in snapshots that
    /// predate a counter.
    counters: [Option<u64>; GATED_COUNTERS.len()],
}

/// Per size row of a snapshot's `sizes` and `scaling` sections.
fn size_rows(json: &str) -> Vec<SizeRow> {
    // The `analysis` rows also carry `"sinks"`, so only read up to there.
    let sizes = json.split("\"analysis\":").next().unwrap_or(json);
    let mut out = Vec::new();
    for row in sizes.split("{\"sinks\":").skip(1) {
        let digits: String = row.chars().take_while(|c| c.is_ascii_digit()).collect();
        let (Ok(sinks), Some(arena_at), Some(ref_at)) = (
            digits.parse::<u64>(),
            row.find("\"arena\":"),
            row.find("\"reference\":"),
        ) else {
            continue;
        };
        if let (Some(arena), Some(arena_min), Some(reference), Some(ref_min)) = (
            number_after(&row[arena_at..], "\"median_ns\":"),
            number_after(&row[arena_at..], "\"min_ns\":"),
            number_after(&row[ref_at..], "\"median_ns\":"),
            number_after(&row[ref_at..], "\"min_ns\":"),
        ) {
            out.push(SizeRow {
                sinks,
                arena: (arena, arena_min),
                reference: (reference, ref_min),
                counters: GATED_COUNTERS.map(|c| number_after(row, &format!("\"{c}\":"))),
            });
        }
    }
    out
}

/// Compares the fresh snapshot against `baseline`, size by size. A size
/// fails if one of its [`GATED_COUNTERS`] rose above the baseline's at
/// all, or is missing where the baseline has it (a baseline without a
/// counter is not gated on it), or if both its arena/reference median ratio
/// *and* its min-time ratio drifted beyond `tolerance_pct` — the min is
/// far less sampling-noisy than a 5-sample median, so a genuine slowdown
/// (which moves both) still trips while scheduler jitter on one sample
/// does not. Returns `Err` naming the first failing size.
fn gate_against(baseline: &str, fresh: &str, tolerance_pct: f64) -> Result<(), String> {
    let base = size_rows(baseline);
    let new = size_rows(fresh);
    if base.is_empty() {
        return Err("baseline has no sizes section".to_string());
    }
    for row in &new {
        let sinks = row.sinks;
        let Some(b) = base.iter().find(|b| b.sinks == sinks) else {
            // A fresh snapshot may carry sizes (e.g. a new scaling tier)
            // an older committed baseline predates; gate only on the
            // sizes present in both.
            eprintln!("gate: sinks {sinks:>2}: no baseline row, skipped");
            continue;
        };
        // Only a baseline that predates a counter skips its gate; a
        // fresh row that lost it is a writer fault, not a pass.
        for (k, name) in GATED_COUNTERS.iter().enumerate() {
            match (row.counters[k], b.counters[k]) {
                (Some(n), Some(base_n)) => {
                    eprintln!("gate: sinks {sinks:>2}: {name} {n} (baseline {base_n})");
                    if n > base_n {
                        return Err(format!("{sinks}-sink {name} rose from {base_n} to {n}"));
                    }
                }
                (None, Some(_)) => {
                    return Err(format!("{sinks}-sink fresh snapshot lacks {name}"));
                }
                (_, None) => {}
            }
        }
        let drift = |n: u64, d: u64, bn: u64, bd: u64| {
            let base_ratio = bn as f64 / bd.max(1) as f64;
            let ratio = n as f64 / d.max(1) as f64;
            (ratio / base_ratio - 1.0) * 100.0
        };
        let median_drift = drift(row.arena.0, row.reference.0, b.arena.0, b.reference.0);
        let min_drift = drift(row.arena.1, row.reference.1, b.arena.1, b.reference.1);
        eprintln!(
            "gate: sinks {sinks:>2}: arena/reference median drift {median_drift:+.1}%, \
             min drift {min_drift:+.1}%"
        );
        if median_drift > tolerance_pct && min_drift > tolerance_pct {
            return Err(format!(
                "{sinks}-sink arena/reference ratio regressed (median {median_drift:+.1}%, \
                 min {min_drift:+.1}%; tolerance {tolerance_pct}%)"
            ));
        }
    }
    gate_search(baseline, fresh)
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
    let tolerance_pct: f64 = args
        .iter()
        .position(|a| a == "--gate-tolerance-pct")
        .and_then(|i| args.get(i + 1))
        .map_or(2.0, |s| s.parse().expect("numeric tolerance"));
    let samples = if quick { 5 } else { 31 };

    let lib = catalog::ibm_like();
    let mut ws = DpWorkspace::new();

    let mut rows: Vec<String> = Vec::new();
    let mut analysis_rows: Vec<String> = Vec::new();
    for sinks in [2usize, 4, 8, 16] {
        let tree = comb_net(sinks);
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);

        let (arena, (stats, work)) = measure_arena(samples, &tree, &scenario, &mut ws);
        let (reference, ref_stats) = measure_reference(samples, &tree, &scenario);

        let speedup = reference.median_ns as f64 / arena.median_ns.max(1) as f64;
        eprintln!(
            "sinks {sinks:>2}: arena {:>9} ns, reference {:>9} ns ({speedup:.2}x), \
             peak {} candidates / {} merge product, {} vs {} allocs/run, \
             {} merge rows swept",
            arena.median_ns,
            reference.median_ns,
            stats.peak_candidates,
            stats.peak_merge_product,
            arena.allocs_per_run,
            reference.allocs_per_run,
            work.merge_rows_swept,
        );
        rows.push(format!(
            "{{\"sinks\":{},\"nodes\":{},\"arena\":{},\"reference\":{},\
             \"speedup\":{:.3},\"peak_candidates\":{},\"peak_merge_product\":{},\
             \"merge_enumerated\":{},\"merge_pruned\":{},\
             \"reference_peak_candidates\":{}{}}}",
            sinks,
            tree.len(),
            json_engine(&arena),
            json_engine(&reference),
            speedup,
            stats.peak_candidates,
            stats.peak_merge_product,
            stats.merge_products_enumerated,
            stats.merge_products_pruned,
            ref_stats.peak_candidates,
            json_work(&work),
        ));

        // Greedy iterative insertion, probe-scored two ways: incremental
        // O(depth) table refreshes vs the seed's from-scratch re-audit of
        // the whole tree per trial. Same objective, same result; the gap
        // is the analysis kernel's incremental re-analysis payoff.
        let incr_opts = IterativeOptions {
            noise: true,
            ..IterativeOptions::default()
        };
        let full_opts = IterativeOptions {
            full_resweep: true,
            ..incr_opts.clone()
        };
        let incremental = measure(samples, || {
            iterative::optimize(&tree, &scenario, &lib, &incr_opts).expect("greedy solves");
        });
        let full = measure(samples, || {
            iterative::optimize(&tree, &scenario, &lib, &full_opts).expect("greedy solves");
        });
        let greedy_speedup = full.median_ns as f64 / incremental.median_ns.max(1) as f64;
        eprintln!(
            "          greedy incremental {:>9} ns, full resweep {:>9} ns ({greedy_speedup:.2}x)",
            incremental.median_ns, full.median_ns,
        );
        analysis_rows.push(format!(
            "{{\"sinks\":{},\"nodes\":{},\"incremental\":{},\"full_resweep\":{},\
             \"speedup\":{:.3}}}",
            sinks,
            tree.len(),
            json_engine(&incremental),
            json_engine(&full),
            greedy_speedup,
        ));
    }

    // Scaling tier: full 11-buffer library on 64–512-sink generated nets
    // (the `buffopt-workload` scaling generator), where the predictive
    // windowed merge separates from the seed engine's full cross-product
    // enumeration. The reference engine is O(Σ |L|·|R|) here, so the tier
    // runs far fewer samples than the comb sizes.
    let scaling_sizes: &[usize] = if quick { &[64] } else { &[64, 128, 256, 512] };
    let scaling_samples = if quick { 3 } else { 5 };
    let mut scaling_rows: Vec<String> = Vec::new();
    for &sinks in scaling_sizes {
        let tree = scaling_net(&ScalingConfig {
            sinks,
            ..ScalingConfig::default()
        });
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let (arena, (stats, work)) = measure_arena(scaling_samples, &tree, &scenario, &mut ws);
        let (reference, ref_stats) = measure_reference(scaling_samples, &tree, &scenario);
        let speedup = reference.median_ns as f64 / arena.median_ns.max(1) as f64;
        eprintln!(
            "scaling {sinks:>3}: arena {:>10} ns, reference {:>10} ns ({speedup:.2}x), \
             enumerated {} / pruned {} of {} raw pairs, {} merge rows swept / {} dropped",
            arena.median_ns,
            reference.median_ns,
            stats.merge_products_enumerated,
            stats.merge_products_pruned,
            ref_stats.merge_products_enumerated + ref_stats.merge_products_pruned,
            work.merge_rows_swept,
            work.merge_rows_dropped,
        );
        scaling_rows.push(format!(
            "{{\"sinks\":{},\"nodes\":{},\"arena\":{},\"reference\":{},\
             \"speedup\":{:.3},\"peak_candidates\":{},\"peak_merge_product\":{},\
             \"merge_enumerated\":{},\"merge_pruned\":{},\
             \"reference_merge_enumerated\":{}{}}}",
            sinks,
            tree.len(),
            json_engine(&arena),
            json_engine(&reference),
            speedup,
            stats.peak_candidates,
            stats.peak_merge_product,
            stats.merge_products_enumerated,
            stats.merge_products_pruned,
            ref_stats.merge_products_enumerated,
            json_work(&work),
        ));
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
    // The `scaling` rows sit before `analysis` so `size_rows` (and
    // therefore the gate) covers them alongside the comb sizes.
    let json = format!(
        "{{\"bench\":\"dp_snapshot\",\"mode\":\"{}\",\"samples\":{},\
         \"scaling_samples\":{},\
         \"alloc_counted\":{},\"net\":\"comb/400um\",\"sizes\":[{}],\
         \"scaling\":[{}],\
         \"analysis\":[{}],\"search_tiers\":[{}],\"search\":[{}]}}\n",
        if quick { "quick" } else { "full" },
        samples,
        scaling_samples,
        alloc_counted,
        rows.join(","),
        scaling_rows.join(","),
        analysis_rows.join(","),
        tier_rows.join(","),
        search_rows_json.join(",")
    );
    std::fs::write(out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = gate_path {
        let baseline = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("cannot read gate baseline {base_path}: {e}"));
        match gate_against(&baseline, &json, tolerance_pct) {
            Ok(()) => eprintln!(
                "gate: medians within {tolerance_pct}% and rows swept no higher than {base_path}"
            ),
            Err(why) => {
                eprintln!("gate FAILED against {base_path}: {why}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{gate_against, gate_search};

    /// A one-row snapshot with the given exact counters.
    fn snapshot(swept: Option<u64>, sorted: Option<u64>, arena_ns: u64) -> String {
        let field =
            |name: &str, v: Option<u64>| v.map_or(String::new(), |v| format!(",\"{name}\":{v}"));
        format!(
            "{{\"sizes\":[{{\"sinks\":64,\"arena\":{{\"median_ns\":{arena_ns},\"min_ns\":{arena_ns}}},\
             \"reference\":{{\"median_ns\":1000,\"min_ns\":1000}}{}{}}}],\"analysis\":[]}}",
            field("merge_rows_swept", swept),
            field("prune_rows_sorted", sorted),
        )
    }

    #[test]
    fn counter_gates_are_exact_and_one_sided() {
        let base = snapshot(Some(500), Some(70), 100);
        assert!(gate_against(&base, &snapshot(Some(500), Some(70), 100), 2.0).is_ok());
        assert!(gate_against(&base, &snapshot(Some(499), Some(69), 100), 2.0).is_ok());
        let err = gate_against(&base, &snapshot(Some(501), Some(70), 100), 2.0).unwrap_err();
        assert!(
            err.contains("merge_rows_swept rose from 500 to 501"),
            "{err}"
        );
        let err = gate_against(&base, &snapshot(Some(500), Some(71), 100), 2.0).unwrap_err();
        assert!(
            err.contains("prune_rows_sorted rose from 70 to 71"),
            "{err}"
        );
        // A baseline that predates a counter is not gated on it.
        assert!(gate_against(
            &snapshot(None, None, 100),
            &snapshot(Some(501), Some(71), 100),
            2.0
        )
        .is_ok());
        assert!(gate_against(
            &snapshot(Some(500), None, 100),
            &snapshot(Some(500), Some(71), 100),
            2.0
        )
        .is_ok());
        // A fresh snapshot that dropped a counter fails against one that has it.
        let err = gate_against(&base, &snapshot(None, Some(70), 100), 2.0).unwrap_err();
        assert!(err.contains("lacks merge_rows_swept"), "{err}");
        let err = gate_against(&base, &snapshot(Some(500), None, 100), 2.0).unwrap_err();
        assert!(err.contains("lacks prune_rows_sorted"), "{err}");
        // The timing ratio gate is unchanged beside them.
        assert!(gate_against(&base, &snapshot(Some(500), Some(70), 110), 2.0).is_err());
    }

    /// A snapshot with one search row and the given exact counters.
    fn search(runs: Option<u64>, swept: u64) -> String {
        let runs = runs.map_or(String::new(), |r| format!(",\"dp_runs\":{r}"));
        format!(
            "{{\"analysis\":[],\"search_tiers\":[],\"search\":[{{\"net\":\"two-pin/4mm/0.3ns\",\
             \"search\":{{\"median_ns\":9}}{runs},\"merge_rows_swept\":{swept}}}]}}"
        )
    }

    #[test]
    fn search_gates_are_exact_and_one_sided() {
        let base = search(Some(4), 100);
        assert!(gate_search(&base, &search(Some(4), 100)).is_ok());
        assert!(gate_search(&base, &search(Some(1), 90)).is_ok());
        let err = gate_search(&base, &search(Some(5), 100)).unwrap_err();
        assert!(err.contains("dp_runs rose from 4 to 5"), "{err}");
        let err = gate_search(&base, &search(Some(4), 101)).unwrap_err();
        assert!(
            err.contains("merge_rows_swept rose from 100 to 101"),
            "{err}"
        );
        let err = gate_search(&base, &search(None, 100)).unwrap_err();
        assert!(err.contains("lacks dp_runs"), "{err}");
        // A baseline without a search section gates nothing.
        assert!(gate_search("{}", &search(Some(9), 999)).is_ok());
    }
}
