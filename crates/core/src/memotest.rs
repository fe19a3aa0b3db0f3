//! Differential tests for the subtree memo subsystem: a DP run seeded
//! from [`MemoTable`] hits must return solutions **bitwise-identical** to
//! a cold run — same slack bits, same cost bits, same buffer counts, same
//! insertion sets — in every operating mode, on both random trees and the
//! `data/` corpus. Run *statistics* are exempt (skipped subtrees
//! contribute no peak samples); everything a consumer acts on is not.
//!
//! Also here: the corpus no-collision sanity check (structurally different
//! subtrees must not share a canonical digest) and the governor
//! interaction (memoization silently disabled under arena-byte caps).

#![cfg(test)]

use std::collections::HashMap;

use buffopt_buffers::catalog;
use buffopt_memo::{MemoTable, SubtreeDigests};
use buffopt_netlist::parse;
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, NodeId, RoutingTree};
use proptest::prelude::*;

use crate::budget::RunBudget;
use crate::difftest::build_random_tree;
use crate::dp::{self, DpConfig};
use crate::workspace::DpWorkspace;

/// The mode matrix (mirrors the arena-vs-reference differential tests).
fn modes() -> Vec<(&'static str, DpConfig)> {
    vec![
        ("noise", DpConfig::default()),
        (
            "delayopt",
            DpConfig {
                noise: false,
                ..DpConfig::default()
            },
        ),
        (
            "polarity",
            DpConfig {
                polarity: true,
                ..DpConfig::default()
            },
        ),
        (
            "cost_aware",
            DpConfig {
                cost_aware: true,
                max_buffers: Some(4),
                ..DpConfig::default()
            },
        ),
        (
            "conservative",
            DpConfig {
                conservative: true,
                max_buffers: Some(4),
                ..DpConfig::default()
            },
        ),
        (
            "capped",
            DpConfig {
                max_buffers: Some(2),
                ..DpConfig::default()
            },
        ),
    ]
}

/// Runs cold, warm-up (stores), and seeded (hits) over the same input and
/// demands bitwise-identical solutions from all three.
fn assert_seeded_equals_cold(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    cfg: &DpConfig,
    label: &str,
) {
    let lib = catalog::ibm_like();
    let budget = &RunBudget::default();
    let mut ws = DpWorkspace::new();
    let cold = dp::run(&mut ws.dp, tree, scenario, &lib, cfg, budget, None);
    let table = MemoTable::new(64 << 20, 4);
    let warm = dp::run(&mut ws.dp, tree, scenario, &lib, cfg, budget, Some(&table));
    let stores = table.stats().stores;
    let seeded = dp::run(&mut ws.dp, tree, scenario, &lib, cfg, budget, Some(&table));
    if stores > 0 {
        assert!(
            table.stats().hits > 0,
            "{label}: stored {stores} frontiers but the re-run never hit"
        );
    }
    for (name, run) in [("warm", &warm), ("seeded", &seeded)] {
        match (&cold, run) {
            (Ok((cs, _)), Ok((ss, _))) => {
                assert_eq!(cs.len(), ss.len(), "{label}/{name}: solution count");
                for (i, (c, s)) in cs.iter().zip(ss.iter()).enumerate() {
                    assert!(
                        c.slack.to_bits() == s.slack.to_bits(),
                        "{label}/{name}: solution {i} slack {:.17e} vs {:.17e}",
                        c.slack,
                        s.slack
                    );
                    assert_eq!(c.count, s.count, "{label}/{name}: solution {i} count");
                    assert!(
                        c.cost.to_bits() == s.cost.to_bits(),
                        "{label}/{name}: solution {i} cost"
                    );
                    let mut ci = c.insertions.clone();
                    let mut si = s.insertions.clone();
                    ci.sort();
                    si.sort();
                    assert_eq!(ci, si, "{label}/{name}: solution {i} insertion set");
                }
            }
            (Err(ce), Err(se)) => assert_eq!(ce, se, "{label}/{name}: errors differ"),
            (c, s) => panic!(
                "{label}/{name}: cold {} but memo run {}",
                if c.is_ok() { "succeeded" } else { "errored" },
                if s.is_ok() { "succeeded" } else { "errored" },
            ),
        }
    }
}

fn check_all_modes(tree: &RoutingTree, scenario: &NoiseScenario, tag: &str) {
    for (mode, cfg) in modes() {
        let s = if cfg.noise { Some(scenario) } else { None };
        let label = format!("{tag}/{mode}");
        assert_seeded_equals_cold(tree, s, &cfg, &label);
    }
}

#[test]
fn corpus_nets_seeded_equals_cold_all_modes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("data/ corpus present") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "net") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable net file");
        let net = parse(&text).expect("valid corpus net");
        let seg = segment::segment_wires(&net.tree, 500.0).expect("segment");
        let scenario = net.scenario.for_segmented(&seg);
        let tag = format!("{}", path.file_name().unwrap().to_string_lossy());
        check_all_modes(&seg.tree, &scenario, &tag);
        seen += 1;
    }
    assert!(seen >= 2, "expected the corpus to hold at least two nets");
}

/// Structural fingerprint independent of the digest computation: if two
/// subtrees share a canonical digest they must also share this.
fn fingerprint(tree: &RoutingTree, digests: &SubtreeDigests, v: NodeId) -> (u32, usize, u64) {
    let slice = digests.subtree_slice(v);
    let sinks = slice
        .iter()
        .filter(|&&u| tree.sink_spec(u).is_some())
        .count();
    let cap_sum = slice
        .iter()
        .filter_map(|&u| tree.sink_spec(u))
        .fold(0u64, |acc, s| acc.wrapping_add(s.capacitance.to_bits()));
    (digests.subtree_nodes(v), sinks, cap_sum)
}

#[test]
fn corpus_digests_do_not_collide() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut by_canon: HashMap<u128, (u32, usize, u64)> = HashMap::new();
    let mut nodes = 0usize;
    for entry in std::fs::read_dir(dir).expect("data/ corpus present") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "net") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable net file");
        let net = parse(&text).expect("valid corpus net");
        for seg_len in [500.0, 1500.0] {
            let seg = segment::segment_wires(&net.tree, seg_len).expect("segment");
            let scenario = net.scenario.for_segmented(&seg);
            let digests = SubtreeDigests::compute(&seg.tree, Some(&scenario), 0x5EED);
            for v in seg.tree.node_ids() {
                nodes += 1;
                let fp = fingerprint(&seg.tree, &digests, v);
                let prev = by_canon.entry(digests.canonical(v)).or_insert(fp);
                assert_eq!(
                    *prev,
                    fp,
                    "canonical digest collision across structurally different \
                     subtrees in {}",
                    path.display()
                );
            }
        }
    }
    assert!(
        nodes > 20,
        "corpus walk should cover a nontrivial subtree set"
    );
    assert!(by_canon.len() > 10, "expected many distinct subtree shapes");
}

#[test]
fn memo_is_disabled_under_arena_byte_caps() {
    let steps: Vec<(u8, bool, f64, f64)> = vec![
        (0, true, 900.0, 2.0),
        (0, false, 700.0, 1.5),
        (0, false, 800.0, 2.5),
        (1, false, 600.0, 2.0),
    ];
    let tree = build_random_tree(&steps).expect("tree builds");
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let lib = catalog::ibm_like();
    let table = MemoTable::new(64 << 20, 4);
    let budget = RunBudget::default().with_max_arena_bytes(64 << 20);
    let mut ws = DpWorkspace::new();
    dp::run(
        &mut ws.dp,
        &tree,
        Some(&scenario),
        &lib,
        &DpConfig::default(),
        &budget,
        Some(&table),
    )
    .expect("run succeeds");
    let s = table.stats();
    assert_eq!(
        (s.hits, s.misses, s.stores),
        (0, 0, 0),
        "arena-byte-capped runs must not touch the table"
    );
}

/// Different configurations must never share entries: a table warmed in
/// one mode yields zero hits (only canonical-key misses) in another.
#[test]
fn config_seed_partitions_the_table() {
    let steps: Vec<(u8, bool, f64, f64)> = vec![
        (0, true, 900.0, 2.0),
        (0, false, 700.0, 1.5),
        (0, false, 800.0, 2.5),
        (1, true, 600.0, 2.0),
        (0, false, 500.0, 1.0),
        (1, false, 1100.0, 3.0),
    ];
    let tree = build_random_tree(&steps).expect("tree builds");
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let lib = catalog::ibm_like();
    let table = MemoTable::new(64 << 20, 4);
    let budget = RunBudget::default();
    let mut ws = DpWorkspace::new();
    let noise_cfg = DpConfig::default();
    let capped_cfg = DpConfig {
        max_buffers: Some(2),
        ..DpConfig::default()
    };
    dp::run(
        &mut ws.dp,
        &tree,
        Some(&scenario),
        &lib,
        &noise_cfg,
        &budget,
        Some(&table),
    )
    .expect("warm run succeeds");
    assert!(table.stats().stores > 0, "warm run stores frontiers");
    let hits_before = table.stats().hits;
    dp::run(
        &mut ws.dp,
        &tree,
        Some(&scenario),
        &lib,
        &capped_cfg,
        &budget,
        Some(&table),
    )
    .expect("other-mode run succeeds");
    assert_eq!(
        table.stats().hits,
        hits_before,
        "a differently-configured run must not hit the other mode's entries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee, over random binary trees and every mode:
    /// seeded DP output is bitwise-equal to cold DP output.
    #[test]
    fn prop_seeded_dp_is_bitwise_equal_to_cold(
        steps in prop::collection::vec(
            (0u8..16, prop::bool::ANY, 400.0f64..4000.0, 0.8f64..4.0),
            1..14,
        )
    ) {
        if let Some(tree) = build_random_tree(&steps) {
            let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
            check_all_modes(&tree, &scenario, "random");
        }
    }
}
