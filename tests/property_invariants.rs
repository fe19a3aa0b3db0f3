//! Property-based tests (proptest) over randomly generated nets: the
//! core invariants every component must satisfy regardless of input.

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{algorithm1, algorithm2, audit, Assignment, DpWorkspace, Solution};
use buffopt_buffers::{BufferLibrary, BufferType};
use buffopt_noise::{metric, NoiseScenario};
use buffopt_sim::referee::{self, RefereeOptions};
use buffopt_tree::{
    elmore, segment, slack, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder,
};
use proptest::prelude::*;

/// One DP run on a fresh workspace, read as its best slack: BuffOpt with
/// a scenario, `DelayOpt(k)` without one.
fn max_slack(
    tree: &RoutingTree,
    s: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    max_buffers: Option<usize>,
) -> Option<Solution> {
    let opts = BuffOptOptions {
        max_buffers,
        ..BuffOptOptions::default()
    };
    let f = algo3::solve(&mut DpWorkspace::new(), tree, s, lib, &opts).ok()?;
    Some(f.max_slack())
}

fn single_lib() -> BufferLibrary {
    BufferLibrary::single(BufferType::new("b", 10e-15, 200.0, 20e-12, 0.9))
}

/// Strategy: a random caterpillar tree (trunk with optional teeth) — it
/// covers chains, stars and bushy shapes while staying easy to shrink.
fn arb_net() -> impl Strategy<Value = RoutingTree> {
    (
        2usize..8,                              // trunk segments
        prop::collection::vec(0usize..3, 2..8), // teeth per trunk node
        500.0f64..4_000.0,                      // trunk segment length
        200.0f64..6_000.0,                      // tooth length
        100.0f64..800.0,                        // driver resistance
    )
        .prop_map(|(trunk, teeth, seg_len, tooth_len, rso)| {
            let tech = Technology::global_layer();
            let mut b = TreeBuilder::new(Driver::new(rso, 10e-12));
            let mut prev = b.source();
            let mut sinks = 0;
            for (i, &t) in teeth.iter().take(trunk).enumerate() {
                prev = b.add_internal(prev, tech.wire(seg_len)).expect("trunk");
                for k in 0..t {
                    b.add_sink(
                        prev,
                        tech.wire(tooth_len * (1.0 + 0.3 * k as f64) * (1.0 + i as f64 * 0.1)),
                        SinkSpec::new(15e-15, 1.5e-9, 0.8),
                    )
                    .expect("tooth");
                    sinks += 1;
                }
            }
            if sinks == 0 {
                b.add_sink(
                    prev,
                    tech.wire(tooth_len),
                    SinkSpec::new(15e-15, 1.5e-9, 0.8),
                )
                .expect("fallback sink");
            } else {
                b.add_sink(prev, tech.wire(seg_len), SinkSpec::new(15e-15, 1.5e-9, 0.8))
                    .expect("tip sink");
            }
            b.build().expect("tree")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Devgan metric upper-bounds the transient simulation, always.
    #[test]
    fn metric_bounds_simulation(tree in arb_net(), lambda in 0.1f64..0.9) {
        let s = NoiseScenario::estimation(&tree, lambda, 7.2e9);
        let opts = RefereeOptions { segments_per_wire: 2, steps_per_rise: 50, ..RefereeOptions::default() };
        let sim = referee::net_peak_noise(&tree, &s, &opts).expect("grounded");
        let bound = metric::sink_noise(&tree, &s);
        for (m, b) in sim.iter().zip(&bound) {
            prop_assert!(m.peak <= b.noise * (1.0 + 1e-6) + 1e-12,
                "sim {} exceeds bound {}", m.peak, b.noise);
        }
    }

    /// Algorithm 2 always produces an audit-clean result on these nets,
    /// and never buffers a quiet net.
    #[test]
    fn algorithm2_output_is_clean(tree in arb_net()) {
        let s = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let lib = single_lib();
        let sol = algorithm2::avoid_noise(&tree, &s, &lib).expect("fixable");
        let audit = audit::noise(&sol.tree, &sol.scenario, &lib, &sol.assignment).expect("audit");
        prop_assert!(!audit.has_violation(), "worst {}", audit.worst_headroom());
        let before = metric::NoiseReport::analyze(&tree, &s);
        if !before.has_violation() {
            prop_assert_eq!(sol.inserted(), 0, "quiet nets get no buffers");
        }
    }

    /// Wire segmenting changes no total and no Elmore delay.
    #[test]
    fn segmenting_preserves_elmore(tree in arb_net(), max_seg in 150.0f64..2_000.0) {
        let seg = segment::segment_wires(&tree, max_seg).expect("segment");
        prop_assert!((tree.total_capacitance() - seg.tree.total_capacitance()).abs() < 1e-24);
        prop_assert!((tree.total_wire_length() - seg.tree.total_wire_length()).abs() < 1e-6);
        let before = elmore::max_sink_delay(&tree);
        let after = elmore::max_sink_delay(&seg.tree);
        prop_assert!((before - after).abs() / before < 1e-9,
            "Elmore changed: {before} -> {after}");
        let q_before = slack::source_slack(&tree);
        let q_after = slack::source_slack(&seg.tree);
        prop_assert!((q_before - q_after).abs() < 1e-15);
    }

    /// BuffOpt's DP slack always matches the independent delay audit, and
    /// its noise always audits clean.
    #[test]
    fn buffopt_dp_matches_audit(tree in arb_net()) {
        let seg = segment::segment_wires(&tree, 600.0).expect("segment");
        let s = NoiseScenario::estimation(&tree, 0.7, 7.2e9).for_segmented(&seg);
        let lib = single_lib();
        if let Some(sol) = max_slack(&seg.tree, Some(&s), &lib, None) {
            let d = audit::delay(&seg.tree, &lib, &sol.assignment).expect("audit");
            prop_assert!((sol.slack - d.slack).abs() < 1e-13);
            let n = audit::noise(&seg.tree, &s, &lib, &sol.assignment).expect("audit");
            prop_assert!(!n.has_violation());
        }
    }

    /// Allowing more buffers never hurts: the best slack over counts ≤ k
    /// is non-decreasing in k, and the unconstrained optimum equals the
    /// best entry of the per-count table (Lillis indexed lists).
    #[test]
    fn per_count_prefix_best_monotone(tree in arb_net()) {
        let seg = segment::segment_wires(&tree, 800.0).expect("segment");
        let lib = buffopt_buffers::catalog::ibm_like();
        let opts = BuffOptOptions { max_buffers: Some(5), ..BuffOptOptions::default() };
        let per = algo3::solve(&mut DpWorkspace::new(), &seg.tree, None, &lib, &opts)
            .expect("solves")
            .per_count(5);
        let table_best = per
            .iter()
            .flatten()
            .map(|s| s.slack)
            .fold(f64::NEG_INFINITY, f64::max);
        let free = max_slack(&seg.tree, None, &lib, Some(5)).expect("solves");
        prop_assert!((free.slack - table_best).abs() < 1e-13,
            "capped optimum {} vs per-count best {}", free.slack, table_best);
        // Prefix best is monotone by construction; spot-check against
        // independent capped runs.
        let mut prefix = f64::NEG_INFINITY;
        for (k, sol) in per.iter().enumerate() {
            if let Some(s) = sol {
                prefix = prefix.max(s.slack);
            }
            let capped = max_slack(&seg.tree, None, &lib, Some(k)).expect("solves");
            prop_assert!((capped.slack - prefix).abs() < 1e-13,
                "k={k}: capped {} vs prefix best {}", capped.slack, prefix);
        }
    }

    /// Noise slack at the source equals margin minus path noise for every
    /// sink-to-source composition (eq. 12 consistency).
    #[test]
    fn noise_slack_consistency(tree in arb_net(), lambda in 0.1f64..0.9) {
        let s = NoiseScenario::estimation(&tree, lambda, 7.2e9);
        let ns = metric::noise_slack(&tree, &s);
        let report = metric::sink_noise(&tree, &s);
        let currents = metric::downstream_current(&tree, &s);
        let gate = tree.driver().resistance * currents[tree.source().index()];
        // Constraint formulations agree (eq. 11 ⇔ NS(source) ≥ gate noise).
        let by_slack = gate <= ns[tree.source().index()] + 1e-12;
        let by_sinks = !report.iter().any(|sn| sn.noise > sn.margin + 1e-12);
        prop_assert_eq!(by_slack, by_sinks);
    }
}

/// Non-proptest determinism check: Algorithm 1 on a chain equals
/// Algorithm 2 on the same chain for a sweep of lengths (kept out of
/// proptest so failures print the length directly).
#[test]
fn alg1_alg2_agree_on_chain_sweep() {
    let tech = Technology::global_layer();
    let lib = single_lib();
    for i in 1..=20 {
        let len = 2_000.0 * i as f64;
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, 1e-9, 0.8))
            .expect("sink");
        let t = b.build().expect("tree");
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let a1 = algorithm1::avoid_noise(&t, &s, &lib).expect("alg1");
        let a2 = algorithm2::avoid_noise(&t, &s, &lib).expect("alg2");
        assert_eq!(a1.inserted(), a2.inserted(), "len {len}");
        let _ = Assignment::empty(&t);
    }
}
