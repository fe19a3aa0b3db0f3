//! Reproducible memo-subsystem snapshot: cold vs memo-warm DP passes.
//!
//! Builds a deterministic perturbed-net-family workload (base nets from
//! the population generator, variants from `buffopt_workload::perturbed`
//! — sink-cap jitter, wire resegmenting, subtree grafts), then times a
//! full optimization pass over every tree with the structural subtree
//! memo off versus with a shared warm [`MemoTable`]. Writes one
//! machine-readable JSON file — `BENCH_memo.json` by default — with the
//! median pass times, the steady-state subtree hit rate, and the table
//! counters, and **fails** (nonzero exit) if the warm hit rate is not at
//! least 30 %, if any seeded solution deviates bitwise from its cold
//! twin, or if a small-budget table overruns its byte budget.
//!
//! Usage: `memo_snapshot [--quick] [--out PATH]`

use std::sync::Arc;
use std::time::Instant;

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{CoreError, DpWorkspace, MemoTable, RunBudget, Solution};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, RoutingTree};
use buffopt_workload::{
    estimation_scenario, generate, perturbed_family, PerturbationConfig, SinkDistribution,
    WorkloadConfig,
};

struct Measured {
    median_ns: u64,
    min_ns: u64,
}

/// Medians over `samples` timed runs of `f` (no implicit warm-up; the
/// caller decides what state the first timed run sees).
fn measure(samples: usize, mut f: impl FnMut()) -> Measured {
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        times.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    times.sort_unstable();
    Measured {
        median_ns: times[times.len() / 2],
        min_ns: times[0],
    }
}

/// The perturbed-family workload: multi-sink bases (1-sink nets have no
/// merge points, so they never consult the memo) with a few local-edit
/// variants each, all segmented at the pipeline's default 500 µm pitch.
fn build_cases(quick: bool) -> (usize, Vec<(RoutingTree, NoiseScenario)>) {
    let wl = WorkloadConfig {
        net_count: 6,
        distribution: SinkDistribution {
            buckets: vec![(2, 4, 4), (5, 8, 2)],
        },
        ..WorkloadConfig::default()
    };
    let bases = generate(&wl);
    let pcfg = PerturbationConfig {
        variants: if quick { 3 } else { 4 },
        edits_per_variant: 2,
        ..PerturbationConfig::default()
    };
    let mut cases = Vec::new();
    for base in &bases {
        let mut family = vec![base.tree.clone()];
        family.extend(perturbed_family(&base.tree, &pcfg));
        for tree in family {
            let seg = segment::segment_wires(&tree, 500.0).expect("segment").tree;
            let scenario = estimation_scenario(&seg, &wl);
            cases.push((seg, scenario));
        }
    }
    (bases.len(), cases)
}

fn options(memo: Option<Arc<MemoTable>>) -> BuffOptOptions {
    BuffOptOptions {
        max_buffers: None,
        conservative_pruning: false,
        polarity_aware: false,
        budget: RunBudget::default(),
        memo,
    }
}

/// Problem 2 on a fresh workspace, as every pass has always measured it.
fn max_slack(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    Ok(algo3::solve(&mut DpWorkspace::new(), tree, Some(scenario), lib, opts)?.max_slack())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_memo.json", |s| s.as_str());
    let samples = if quick { 5 } else { 31 };

    let lib = catalog::ibm_like();
    let (families, cases) = build_cases(quick);
    let family_pass = |memo: Option<&Arc<MemoTable>>| {
        for (tree, scenario) in &cases {
            // Infeasible nets participate too: the memo must replay the
            // error outcome identically, and its lookups still count.
            let _ = max_slack(tree, scenario, &lib, &options(memo.cloned()));
        }
    };

    // Differential gate: every seeded solution is bitwise-equal to cold.
    let check_table = Arc::new(MemoTable::new(64 << 20, 8));
    family_pass(Some(&check_table)); // warm
    let mut optimized = 0usize;
    for (i, (tree, scenario)) in cases.iter().enumerate() {
        let cold = max_slack(tree, scenario, &lib, &options(None));
        let seeded = max_slack(
            tree,
            scenario,
            &lib,
            &options(Some(Arc::clone(&check_table))),
        );
        match (cold, seeded) {
            (Ok(c), Ok(s)) => {
                assert!(
                    c.slack.to_bits() == s.slack.to_bits()
                        && c.buffers == s.buffers
                        && c.cost.to_bits() == s.cost.to_bits()
                        && c.assignment.iter().collect::<Vec<_>>()
                            == s.assignment.iter().collect::<Vec<_>>(),
                    "case {i}: seeded solution deviates from cold"
                );
                optimized += 1;
            }
            (Err(ce), Err(se)) => assert_eq!(ce, se, "case {i}: seeded error deviates from cold"),
            _ => panic!("case {i}: cold and seeded runs disagree on success"),
        }
    }
    eprintln!(
        "{} trees across {families} families ({optimized} optimizable): seeded == cold bitwise",
        cases.len()
    );

    // Timing: cold (memo off) vs steady-state warm shared table.
    family_pass(None); // untimed warm-up for the allocator/caches
    let cold = measure(samples, || family_pass(None));
    let table = Arc::new(MemoTable::new(64 << 20, 8));
    family_pass(Some(&table)); // untimed warm-up populates the table
    let s0 = table.stats();
    let warm = measure(samples, || family_pass(Some(&table)));
    let s1 = table.stats();
    let lookups = (s1.hits - s0.hits) + (s1.misses - s0.misses);
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        (s1.hits - s0.hits) as f64 / lookups as f64
    };
    let speedup = cold.median_ns as f64 / warm.median_ns.max(1) as f64;
    eprintln!(
        "cold {:>9} ns/pass, warm {:>9} ns/pass ({speedup:.2}x), \
         hit rate {:.1}% ({} lookups), {} entries / {} bytes",
        cold.median_ns,
        warm.median_ns,
        hit_rate * 100.0,
        lookups,
        s1.entries,
        s1.bytes,
    );

    // Governor gate: a deliberately tiny table must stay within budget
    // (evicting, not growing) across repeated family passes.
    let tiny = Arc::new(MemoTable::new(256 << 10, 2));
    family_pass(Some(&tiny));
    family_pass(Some(&tiny));
    let ts = tiny.stats();
    let respected = ts.bytes <= ts.budget_bytes;
    eprintln!(
        "tiny table: {} bytes of {} budget ({} evictions) — {}",
        ts.bytes,
        ts.budget_bytes,
        ts.evictions,
        if respected { "respected" } else { "OVERRUN" }
    );

    let json = format!(
        "{{\"bench\":\"memo_snapshot\",\"mode\":\"{}\",\"samples\":{samples},\
         \"families\":{families},\"trees\":{},\"optimizable\":{optimized},\
         \"cold\":{{\"median_ns\":{},\"min_ns\":{}}},\
         \"warm\":{{\"median_ns\":{},\"min_ns\":{}}},\
         \"speedup\":{speedup:.3},\"hit_rate\":{hit_rate:.4},\
         \"warm_stats\":{{\"hits\":{},\"misses\":{},\"sig_conflicts\":{},\
         \"seeded_merges\":{},\"stores\":{},\"evictions\":{},\"bytes\":{},\
         \"entries\":{},\"budget_bytes\":{}}},\"bitwise_equal\":true,\
         \"small_budget\":{{\"budget_bytes\":{},\"bytes\":{},\
         \"evictions\":{},\"respected\":{respected}}}}}\n",
        if quick { "quick" } else { "full" },
        cases.len(),
        cold.median_ns,
        cold.min_ns,
        warm.median_ns,
        warm.min_ns,
        s1.hits,
        s1.misses,
        s1.sig_conflicts,
        s1.seeded,
        s1.stores,
        s1.evictions,
        s1.bytes,
        s1.entries,
        s1.budget_bytes,
        ts.budget_bytes,
        ts.bytes,
        ts.evictions,
    );
    std::fs::write(out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");

    if hit_rate < 0.30 {
        eprintln!(
            "FAIL: warm hit rate {:.1}% below the 30% floor",
            hit_rate * 100.0
        );
        std::process::exit(1);
    }
    if !respected {
        eprintln!("FAIL: small-budget table overran its byte budget");
        std::process::exit(1);
    }
}
