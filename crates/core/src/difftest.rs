//! Differential tests: the arena engine versus the seed engine.
//!
//! Every test drives [`crate::dp_reference::run_arena`] and
//! [`crate::dp_reference::run_reference`] over the same input and demands
//! *identical* output — same number of source solutions, bitwise-equal
//! slack/cost, equal buffer counts, and equal (sorted) insertion sets —
//! in every operating mode: noise-constrained, DelayOpt, polarity-aware,
//! cost-aware, conservative pairwise, and buffer-capped. Inputs come from
//! two directions: the `data/` corpus (real net files, segmented as the
//! CLI would) and proptest-generated random binary trees.
//!
//! The arena rewrite deliberately changed *how* the DP computes — fused
//! merge-prune, in-place wire climb, index provenance — while keeping
//! *what* it computes expression-identical. These tests are the proof.

#![cfg(test)]

use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_netlist::parse;
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};
use proptest::prelude::*;

use crate::algorithm2::noise_floor_with;
use crate::budget::RunBudget;
use crate::buffopt::{floor_cap, BuffOptOptions};
use crate::dp_reference::{run_arena, run_reference, EngineConfig};
use crate::oracle::assert_search_exact;
use crate::workspace::DpWorkspace;

/// Runs both engines and asserts identical results (or identical errors).
/// Returns the shared workspace so corpus loops exercise scratch reuse.
fn assert_equiv(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    cfg: &EngineConfig,
    ws: &mut DpWorkspace,
    label: &str,
) {
    let budget = RunBudget::default();
    let reference = run_reference(tree, scenario, lib, cfg, &budget);
    let arena = run_arena(tree, scenario, lib, cfg, &budget, ws);
    match (reference, arena) {
        (Ok((rs, rstats)), Ok((av, astats))) => {
            assert_eq!(
                rs.len(),
                av.len(),
                "{label}: solution count {} (reference) vs {} (arena)",
                rs.len(),
                av.len()
            );
            for (i, (r, a)) in rs.iter().zip(av.iter()).enumerate() {
                assert!(
                    r.slack.to_bits() == a.slack.to_bits(),
                    "{label}: solution {i} slack {:.17e} vs {:.17e}",
                    r.slack,
                    a.slack
                );
                assert_eq!(r.count, a.count, "{label}: solution {i} buffer count");
                assert!(
                    r.cost.to_bits() == a.cost.to_bits(),
                    "{label}: solution {i} cost {} vs {}",
                    r.cost,
                    a.cost
                );
                assert_eq!(r.insertions, a.insertions, "{label}: solution {i} set");
            }
            // The arena engine's predictive pruning enumerates a subset
            // of the seed engine's legal pairs, so its peaks/totals may
            // only shrink — while the enumerated+pruned split must
            // conserve the raw |L|·|R| sum exactly (the frontiers feeding
            // every merge are bitwise-identical across engines).
            assert!(
                astats.peak_merge_product <= rstats.peak_merge_product,
                "{label}: arena enumerated peak {} exceeds raw-product peak {}",
                astats.peak_merge_product,
                rstats.peak_merge_product
            );
            assert!(
                astats.merge_products_enumerated <= rstats.merge_products_enumerated,
                "{label}: arena enumerated {} exceeds reference {}",
                astats.merge_products_enumerated,
                rstats.merge_products_enumerated
            );
            assert_eq!(
                astats.merge_products_enumerated + astats.merge_products_pruned,
                rstats.merge_products_enumerated + rstats.merge_products_pruned,
                "{label}: enumerated+pruned no longer conserves the raw merge product"
            );
        }
        (Err(re), Err(ae)) => {
            assert_eq!(re, ae, "{label}: engines failed differently");
        }
        (Ok((rs, _)), Err(ae)) => {
            panic!(
                "{label}: reference found {} solutions, arena errored: {ae}",
                rs.len()
            );
        }
        (Err(re), Ok((av, _))) => {
            panic!(
                "{label}: reference errored ({re}), arena found {} solutions",
                av.len()
            );
        }
    }
}

/// The mode matrix every input is checked under.
fn modes() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("noise", EngineConfig::default()),
        (
            "delayopt",
            EngineConfig {
                noise: false,
                ..EngineConfig::default()
            },
        ),
        (
            "polarity",
            EngineConfig {
                polarity: true,
                ..EngineConfig::default()
            },
        ),
        // The pairwise modes keep 4-D-incomparable candidates, so lists grow
        // combinatorially on deep random trees; a buffer cap bounds the count
        // classes (and the runtime) without changing what the test proves.
        (
            "cost_aware",
            EngineConfig {
                cost_aware: true,
                max_buffers: Some(4),
                ..EngineConfig::default()
            },
        ),
        (
            "conservative",
            EngineConfig {
                conservative: true,
                max_buffers: Some(4),
                ..EngineConfig::default()
            },
        ),
        (
            "conservative+polarity",
            EngineConfig {
                conservative: true,
                polarity: true,
                max_buffers: Some(3),
                ..EngineConfig::default()
            },
        ),
        (
            "capped",
            EngineConfig {
                max_buffers: Some(2),
                ..EngineConfig::default()
            },
        ),
    ]
}

/// The bounded count search against one run at the caller's cap, in the
/// four pruning and polarity modes (the pairwise ones capped, as in
/// [`modes`]) and under caller caps just below and just above the
/// search's probe cap `K` (Algorithm 2's floor plus an eighth).
fn check_search(tree: &RoutingTree, scenario: &NoiseScenario, lib: &BufferLibrary, tag: &str) {
    let k = noise_floor_with(
        &mut DpWorkspace::new(),
        tree,
        scenario,
        lib,
        &RunBudget::default(),
    )
    .map_or(3, |f| floor_cap(&f));
    for (mode, conservative_pruning, polarity_aware, max_buffers) in [
        ("noise", false, false, None),
        ("below-K", false, false, Some(k.saturating_sub(1))),
        ("above-K", false, false, Some(k + 1)),
        ("polarity", false, true, None),
        ("conservative", true, false, Some(4)),
        ("conservative+polarity", true, true, Some(3)),
    ] {
        let opts = BuffOptOptions {
            max_buffers,
            conservative_pruning,
            polarity_aware,
            ..BuffOptOptions::default()
        };
        assert_search_exact(tree, scenario, lib, &opts, &format!("{tag}/search/{mode}"));
    }
}

fn check_all_modes(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    ws: &mut DpWorkspace,
    tag: &str,
) {
    for (mode, cfg) in modes() {
        let s = if cfg.noise { Some(scenario) } else { None };
        assert_equiv(tree, s, lib, &cfg, ws, &format!("{tag}/{mode}"));
    }
}

#[test]
fn corpus_nets_all_modes() {
    check_corpus(&catalog::ibm_like());
}

/// The full library plus three buffers whose input capacitance equals a
/// member's: an exact twin of `buf_x4` (spawns tied on cap and q), a
/// faster `inv_x2` (tied on cap, better slack, higher index) and a
/// non-inverting buffer at `inv_x2`'s cap (tied on cap from the other
/// source class). The arena engine emits buffered spawns class by class
/// in cap order and fixes up equal-cap runs by q; these ties make that
/// fix-up run against the seed engine's full stable sort.
fn tied_cap_library() -> BufferLibrary {
    let mut lib = catalog::ibm_like();
    let find = |lib: &BufferLibrary, name: &str| {
        lib.iter()
            .find(|b| b.name == name)
            .cloned()
            .expect("ibm_like member")
    };
    let mut twin = find(&lib, "buf_x4");
    twin.name = "buf_x4_twin".into();
    let inv = find(&lib, "inv_x2");
    let mut fast = inv.clone();
    fast.name = "inv_x2_fast".into();
    fast.resistance *= 0.5;
    fast.intrinsic_delay *= 1.5;
    let mut same_cap = find(&lib, "buf_x2");
    same_cap.name = "buf_at_inv_x2_cap".into();
    same_cap.input_capacitance = inv.input_capacitance;
    lib.extend([twin, fast, same_cap]);
    lib
}

#[test]
fn corpus_nets_tied_cap_library() {
    check_corpus(&tied_cap_library());
}

fn check_corpus(lib: &BufferLibrary) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut ws = DpWorkspace::new();
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("data/ corpus present") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "net") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable net file");
        let net = parse(&text).expect("valid corpus net");
        // Segment as the CLI default would, at a couple of granularities so
        // both short lists and long lists flow through the engines.
        for seg_len in [500.0, 1500.0] {
            let seg = segment::segment_wires(&net.tree, seg_len).expect("segment");
            let scenario = net.scenario.for_segmented(&seg);
            let tag = format!("{}@{seg_len}", path.file_name().unwrap().to_string_lossy());
            check_all_modes(&seg.tree, &scenario, lib, &mut ws, &tag);
            check_search(&seg.tree, &scenario, lib, &tag);
        }
        seen += 1;
    }
    assert!(seen >= 2, "expected the corpus to hold at least two nets");
}

/// Instructions for one random binary tree: each step attaches either an
/// internal node or a sink to a node that still has a free child slot.
/// Shared with the memo differential tests ([`crate::memotest`]).
pub(crate) fn build_random_tree(steps: &[(u8, bool, f64, f64)]) -> Option<RoutingTree> {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(250.0, 20e-12));
    // (node, free child slots); source is binary like every internal node.
    let mut open = vec![(b.source(), 2usize)];
    let mut childless = Vec::new();
    for &(sel, branch, len, rat_ns) in steps {
        if open.is_empty() {
            break;
        }
        let slot = sel as usize % open.len();
        let (parent, free) = open[slot];
        if free == 1 {
            open.swap_remove(slot);
        } else {
            open[slot].1 -= 1;
        }
        if branch {
            let id = b.add_internal(parent, tech.wire(len)).ok()?;
            open.push((id, 2));
            childless.push(id);
        } else {
            b.add_sink(
                parent,
                tech.wire(len),
                SinkSpec::new(25e-15, rat_ns * 1e-9, 0.8),
            )
            .ok()?;
        }
        childless.retain(|&n| n != parent);
    }
    // Internals that never received a child get a sink so the tree builds.
    for n in childless {
        b.add_sink(n, tech.wire(900.0), SinkSpec::new(25e-15, 2.0e-9, 0.8))
            .ok()?;
    }
    if b.len() < 2 {
        return None;
    }
    let t = b.build().ok()?;
    Some(segment::segment_wires(&t, 800.0).ok()?.tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_trees_all_modes(
        steps in prop::collection::vec(
            (0u8..16, prop::bool::ANY, 400.0f64..4000.0, 0.8f64..4.0),
            1..14,
        )
    ) {
        if let Some(tree) = build_random_tree(&steps) {
            let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
            let mut ws = DpWorkspace::new();
            check_all_modes(&tree, &scenario, &catalog::ibm_like(), &mut ws, "random");
            check_search(&tree, &scenario, &catalog::ibm_like(), "random");
        }
    }
}

proptest! {
    // Fewer cases, much bigger trees: steps vectors up to 127 entries
    // build trees up to ~64 sinks, pushing merge products past the
    // predictive-path threshold so the windowed enumeration is diffed
    // against the seed engine at realistic frontier sizes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_large_trees_all_modes(
        steps in prop::collection::vec(
            (0u8..16, prop::bool::ANY, 400.0f64..4000.0, 0.8f64..4.0),
            64..128,
        )
    ) {
        if let Some(tree) = build_random_tree(&steps) {
            let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
            let mut ws = DpWorkspace::new();
            check_all_modes(&tree, &scenario, &catalog::ibm_like(), &mut ws, "random-large");
            check_search(&tree, &scenario, &catalog::ibm_like(), "random-large");
        }
    }
}
