//! The paper's theorems, checked across crates.

use buffopt::buffopt::{self as algo3, BuffOptOptions, Frontier};
use buffopt::{algorithm1, algorithm2, audit, Assignment, CoreError, DpWorkspace};
use buffopt_buffers::{BufferLibrary, BufferType};
use buffopt_noise::theorem1::{max_unbuffered_length, noise_across, MaxLength};
use buffopt_noise::{metric, NoiseScenario};
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};

fn single_lib() -> BufferLibrary {
    BufferLibrary::single(BufferType::new("b", 10e-15, 200.0, 20e-12, 0.9))
}

fn estimation(tree: &RoutingTree) -> NoiseScenario {
    NoiseScenario::estimation(tree, 0.7, 7.2e9)
}

/// One DP run on a fresh workspace; no scenario means DelayOpt.
fn solve<'t>(
    t: &'t RoutingTree,
    s: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
) -> Result<Frontier<'t>, CoreError> {
    algo3::solve(&mut DpWorkspace::new(), t, s, lib, opts)
}

fn two_pin(len: f64, rso: f64, nm: f64) -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(rso, 10e-12));
    b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, 1e-9, nm))
        .expect("sink");
    b.build().expect("tree")
}

/// Theorem 1: a wire exactly at the computed bound meets its constraint
/// with equality, one micron longer violates — verified by the *metric*,
/// not the formula itself.
#[test]
fn theorem1_bound_is_tight_under_the_metric() {
    let tech = Technology::global_layer();
    let rb = 200.0;
    let nm = 0.8;
    let i_per_um = 0.7 * 7.2e9 * tech.capacitance_per_micron;
    let MaxLength::Bounded(lmax) =
        max_unbuffered_length(rb, tech.resistance_per_micron, i_per_um, 0.0, nm)
    else {
        panic!("expected a finite bound");
    };
    for (len, expect_ok) in [(lmax - 1.0, true), (lmax + 1.0, false)] {
        let mut b = TreeBuilder::new(Driver::new(rb, 0.0));
        b.add_sink(b.source(), tech.wire(len), SinkSpec::new(0.0, 1e-9, nm))
            .expect("sink");
        let t = b.build().expect("tree");
        let s = estimation(&t);
        let report = metric::NoiseReport::analyze(&t, &s);
        assert_eq!(
            !report.has_violation(),
            expect_ok,
            "len {len} vs bound {lmax}"
        );
    }
    // And the closed form noise at lmax equals the margin.
    let noise = noise_across(rb, tech.resistance_per_micron, i_per_um, 0.0, lmax);
    assert!((noise - nm).abs() < 1e-9);
}

/// Theorem 2 (constructed counterexample): a net whose delay-optimal
/// buffering still violates noise, while BuffOpt fixes it.
#[test]
fn theorem2_delay_optimal_buffering_can_violate_noise() {
    // Tight sink margin: the Theorem 1 noise spacing near the sink
    // (~850 um at NM = 0.25 V) is far below the delay-optimal spacing on
    // a 6 mm run, so any delay-optimal placement leaves sink noise.
    let t0 = two_pin(6_000.0, 300.0, 0.25);
    let seg = segment::segment_wires(&t0, 500.0).expect("segment");
    let s = estimation(&t0).for_segmented(&seg);
    let t = seg.tree;
    let lib = single_lib();

    let opts = BuffOptOptions::default();
    let d = solve(&t, None, &lib, &opts)
        .expect("delay solves")
        .max_slack();
    let d_noise = audit::noise(&t, &s, &lib, &d.assignment).expect("audit");
    assert!(
        d_noise.has_violation(),
        "delay-optimal solution must violate here (worst headroom {})",
        d_noise.worst_headroom()
    );

    let b = solve(&t, Some(&s), &lib, &opts)
        .expect("buffopt solves")
        .max_slack();
    let b_noise = audit::noise(&t, &s, &lib, &b.assignment).expect("audit");
    assert!(!b_noise.has_violation());
}

/// Theorems 3 & 4: Algorithms 1 and 2 agree on chains, both audit clean,
/// and both match the (finely segmented) DP's minimum buffer count.
#[test]
fn theorem3_4_optimality_cross_check() {
    let tech = Technology::global_layer();
    let lib = single_lib();
    for len in [6_000.0, 14_000.0, 30_000.0] {
        // RAT = +inf: Problem 3 degenerates to pure noise avoidance.
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(
            b.source(),
            tech.wire(len),
            SinkSpec::new(20e-15, f64::INFINITY, 0.8),
        )
        .expect("sink");
        let t = b.build().expect("tree");
        let s = estimation(&t);
        let a1 = algorithm1::avoid_noise(&t, &s, &lib).expect("alg1");
        let a2 = algorithm2::avoid_noise(&t, &s, &lib).expect("alg2");
        assert_eq!(a1.inserted(), a2.inserted(), "len {len}");

        // The discrete DP on a fine grid can use at most one extra buffer.
        let seg = segment::segment_wires(&t, 200.0).expect("segment");
        let s_seg = s.for_segmented(&seg);
        let p3 = solve(&seg.tree, Some(&s_seg), &lib, &BuffOptOptions::default())
            .expect("dp")
            .fewest_meeting()
            .expect("no timing constraint");
        assert!(p3.buffers >= a1.inserted(), "len {len}: DP beats optimum?");
        assert!(p3.buffers <= a1.inserted() + 1, "len {len}");
    }
}

/// The remark after Theorem 3: with a multi-type library, pure noise
/// avoidance reduces to the smallest-resistance buffer.
#[test]
fn noise_avoidance_library_reduction() {
    let mut lib = single_lib();
    lib.push(BufferType::new("weak", 2e-15, 1500.0, 10e-12, 0.95));
    lib.push(BufferType::new("strong", 40e-15, 90.0, 40e-12, 0.9));
    let reduced = lib.to_noise_avoidance_library();
    assert_eq!(reduced.len(), 1);
    assert!((reduced.iter().next().expect("one").resistance - 90.0).abs() < 1e-9);

    let t = two_pin(20_000.0, 300.0, 0.8);
    let s = estimation(&t);
    let sol = algorithm1::avoid_noise(&t, &s, &lib).expect("alg1");
    assert_eq!(lib.buffer(sol.buffer).name, "strong");
}

/// Theorem 5 premise check: when the buffer's input capacitance exceeds
/// sink capacitance and its margin undercuts the sinks', paper pruning
/// may lose solutions that conservative pruning keeps.
#[test]
fn theorem5_assumptions_matter_for_pruning() {
    let mut lib = BufferLibrary::new();
    lib.push(BufferType::new("fat_fast", 80e-15, 70.0, 8e-12, 0.25));
    lib.push(BufferType::new("lean_clean", 5e-15, 500.0, 30e-12, 0.95));
    let t0 = two_pin(22_000.0, 300.0, 0.8);
    let seg = segment::segment_wires(&t0, 800.0).expect("segment");
    let s = estimation(&t0).for_segmented(&seg);
    let t = seg.tree;
    let conservative = solve(
        &t,
        Some(&s),
        &lib,
        &BuffOptOptions {
            conservative_pruning: true,
            ..BuffOptOptions::default()
        },
    )
    .expect("conservative pruning always finds the fix when one exists")
    .max_slack();
    assert!(!audit::noise(&t, &s, &lib, &conservative.assignment)
        .expect("audit")
        .has_violation());
    // Paper pruning either fails or is no better.
    if let Ok(paper) = solve(&t, Some(&s), &lib, &BuffOptOptions::default()) {
        assert!(paper.max_slack().slack <= conservative.slack + 1e-15);
    }
}

/// Algorithm 1's Step 5: the source fix only triggers when the driver is
/// weaker than the buffer (`Rso > Rb`), as the paper notes.
#[test]
fn source_fix_only_for_weak_drivers() {
    let lib = single_lib(); // Rb = 200
                            // Strong driver (Rso < Rb): never needs the below-source buffer.
    let t = two_pin(2_500.0, 100.0, 0.8);
    let s = estimation(&t);
    let report = metric::NoiseReport::analyze(&t, &s);
    if !report.has_violation() {
        let sol = algorithm1::avoid_noise(&t, &s, &lib).expect("alg1");
        assert_eq!(sol.inserted(), 0);
    }
    // Weak driver on the same wire: violation appears and is fixed with a
    // buffer adjacent to the source.
    let t2 = two_pin(2_500.0, 5_000.0, 0.8);
    let s2 = estimation(&t2);
    assert!(metric::NoiseReport::analyze(&t2, &s2).has_violation());
    let sol2 = algorithm1::avoid_noise(&t2, &s2, &lib).expect("alg1");
    assert!(sol2.inserted() >= 1);
    assert!(
        !audit::noise(&sol2.tree, &sol2.scenario, &lib, &sol2.assignment)
            .expect("audit")
            .has_violation()
    );
}

/// Footnote 5's analogy table: the noise recursion is structurally the
/// Elmore recursion with (C, RAT, q) ↦ (I, NM, NS).
#[test]
fn metric_is_isomorphic_to_elmore() {
    use buffopt_tree::{elmore, slack};
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(250.0, 0.0));
    let j = b.add_internal(b.source(), tech.wire(1_000.0)).expect("j");
    b.add_sink(j, tech.wire(700.0), SinkSpec::new(10e-15, 1e-9, 0.8))
        .expect("s1");
    b.add_sink(j, tech.wire(900.0), SinkSpec::new(14e-15, 2e-9, 0.7))
        .expect("s2");
    let t = b.build().expect("tree");

    // Scale factor between the two domains: make currents numerically
    // equal to capacitances (factor × C_w = C_w ⇒ factor = 1) and compare
    // the recursions with matched boundary conditions.
    let mut s = NoiseScenario::quiet(&t);
    for v in t.node_ids() {
        if t.parent(v).is_some() {
            s.set_factor(v, 1.0);
        }
    }
    let currents = metric::downstream_current(&t, &s);
    let caps = elmore::downstream_capacitance(&t);
    for v in t.node_ids() {
        // I(v) = C(v) − (pin caps below v): currents exclude pins.
        let pins: f64 = t
            .downstream_sinks(v)
            .iter()
            .map(|&sk| t.sink_spec(sk).expect("sink").capacitance)
            .sum();
        assert!(
            (currents[v.index()] - (caps[v.index()] - pins)).abs() < 1e-24,
            "current/cap mismatch at {v}"
        );
    }
    // And with RAT := NM and pins zeroed the slack recursions coincide.
    let mut b2 = TreeBuilder::new(Driver::new(250.0, 0.0));
    let j2 = b2.add_internal(b2.source(), tech.wire(1_000.0)).expect("j");
    b2.add_sink(j2, tech.wire(700.0), SinkSpec::new(0.0, 0.8, 0.8))
        .expect("s1");
    b2.add_sink(j2, tech.wire(900.0), SinkSpec::new(0.0, 0.7, 0.7))
        .expect("s2");
    let t2 = b2.build().expect("tree");
    let mut s2 = NoiseScenario::quiet(&t2);
    for v in t2.node_ids() {
        if t2.parent(v).is_some() {
            s2.set_factor(v, 1.0);
        }
    }
    let ns = metric::noise_slack(&t2, &s2);
    let q = slack::timing_slack(&t2);
    for v in t2.node_ids() {
        assert!(
            (ns[v.index()] - q[v.index()]).abs() < 1e-15,
            "slack isomorphism broken at {v}: NS {} vs q {}",
            ns[v.index()],
            q[v.index()]
        );
    }
}

/// Buffers must not be placed at infeasible sites in any optimizer.
#[test]
fn infeasible_sites_are_respected() {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
    let mut prev = b.source();
    let mut blocked = Vec::new();
    for i in 0..16 {
        prev = if i % 2 == 0 {
            let n = b
                .add_infeasible_internal(prev, tech.wire(800.0))
                .expect("blocked");
            blocked.push(n);
            n
        } else {
            b.add_internal(prev, tech.wire(800.0)).expect("open")
        };
    }
    b.add_sink(prev, tech.wire(800.0), SinkSpec::new(20e-15, 2.5e-9, 0.8))
        .expect("sink");
    let t = b.build().expect("tree");
    let s = estimation(&t);
    let lib = single_lib();
    let sol = solve(&t, Some(&s), &lib, &BuffOptOptions::default())
        .expect("solves")
        .min_buffers();
    for n in blocked {
        assert!(
            sol.assignment.buffer_at(n).is_none(),
            "buffer at blocked {n}"
        );
    }
    assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
        .expect("audit")
        .has_violation());
    let _ = Assignment::empty(&t);
}
