//! End-to-end integration: workload generation → Steiner estimation →
//! segmenting → optimization → independent audit → simulation referee.

use buffopt::buffopt::{self as algo3, BuffOptOptions, Frontier};
use buffopt::{audit, Assignment, DpWorkspace};
use buffopt_bench::{net_has_referee_violation, prepare, ExperimentSetup};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_sim::RefereeOptions;
use buffopt_tree::RoutingTree;

fn small_setup(net_count: usize) -> ExperimentSetup {
    let mut s = ExperimentSetup::default();
    s.config.net_count = net_count;
    s
}

/// One DP run on a fresh workspace; no scenario means DelayOpt.
fn solve<'t>(
    tree: &'t RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    max_buffers: Option<usize>,
) -> Frontier<'t> {
    let opts = BuffOptOptions {
        max_buffers,
        ..BuffOptOptions::default()
    };
    algo3::solve(&mut DpWorkspace::new(), tree, scenario, lib, &opts).expect("solves")
}

#[test]
fn buffopt_fixes_every_net_and_referee_confirms() {
    let setup = small_setup(30);
    let nets = prepare(&setup).expect("prepare");
    let lib = &setup.library;
    let ropts = RefereeOptions {
        segments_per_wire: 2,
        steps_per_rise: 60,
        ..RefereeOptions::default()
    };
    let mut fixed_any = false;
    for net in &nets {
        let empty = Assignment::empty(&net.tree);
        let before = audit::noise(&net.tree, &net.scenario, lib, &empty).expect("audit");
        let sol = solve(&net.tree, Some(&net.scenario), lib, None).min_buffers();
        let after = audit::noise(&net.tree, &net.scenario, lib, &sol.assignment).expect("audit");
        assert!(!after.has_violation(), "net {} still violates", net.id);
        if before.has_violation() {
            fixed_any = true;
            assert!(sol.buffers > 0);
        }
        // The detailed simulation must agree that the net is clean.
        assert!(
            !net_has_referee_violation(&net.tree, &net.scenario, lib, &sol.assignment, &ropts),
            "referee disagrees on net {}",
            net.id
        );
    }
    assert!(fixed_any, "the sample should contain violating nets");
}

#[test]
fn delay_only_optimization_leaves_noise_violations() {
    // The empirical side of Theorem 2, on the population.
    let setup = small_setup(40);
    let nets = prepare(&setup).expect("prepare");
    let lib = &setup.library;
    let mut left_over = 0;
    for net in &nets {
        // The paper's Table III setting: DelayOpt capped at two buffers
        // (uncapped DelayOpt happens to scatter enough strong buffers to
        // also fix most noise on this sample — the point of Theorem 2 is
        // that nothing *guarantees* it).
        let sol = solve(&net.tree, None, lib, Some(2)).max_slack();
        if audit::noise(&net.tree, &net.scenario, lib, &sol.assignment)
            .expect("audit")
            .has_violation()
        {
            left_over += 1;
        }
    }
    assert!(
        left_over > 0,
        "DelayOpt(2) should leave at least one noisy net in 40"
    );
}

#[test]
fn buffopt_slack_never_exceeds_delayopt_slack() {
    // DelayOpt is an unconstrained upper bound (paper Section V-C).
    let setup = small_setup(25);
    let nets = prepare(&setup).expect("prepare");
    let lib = &setup.library;
    for net in &nets {
        let d = solve(&net.tree, None, lib, None).max_slack();
        let b = solve(&net.tree, Some(&net.scenario), lib, None).max_slack();
        assert!(
            b.slack <= d.slack + 1e-15,
            "net {}: noise-constrained slack {} beats unconstrained {}",
            net.id,
            b.slack,
            d.slack
        );
    }
}

#[test]
fn audits_match_dp_bookkeeping_across_population() {
    let setup = small_setup(25);
    let nets = prepare(&setup).expect("prepare");
    let lib = &setup.library;
    for net in &nets {
        let sol = solve(&net.tree, Some(&net.scenario), lib, None).max_slack();
        let audit = audit::delay(&net.tree, lib, &sol.assignment).expect("audit");
        assert!(
            (sol.slack - audit.slack).abs() < 1e-13,
            "net {}: DP slack {} vs audit {}",
            net.id,
            sol.slack,
            audit.slack
        );
    }
}

#[test]
fn problem3_uses_at_most_problem2_buffers() {
    let setup = small_setup(25);
    let nets = prepare(&setup).expect("prepare");
    let lib = &setup.library;
    for net in &nets {
        let f = solve(&net.tree, Some(&net.scenario), lib, None);
        let (p2, p3) = (f.max_slack(), f.min_buffers());
        assert!(p3.buffers <= p2.buffers, "net {}", net.id);
        if p3.slack >= 0.0 {
            // When timing is met, frugality is the whole point.
            assert!(
                p3.buffers <= p2.buffers,
                "net {}: {} vs {}",
                net.id,
                p3.buffers,
                p2.buffers
            );
        }
    }
}

#[test]
fn inverting_library_subset_is_sufficient() {
    // The non-inverting half of the library alone must also fix
    // everything (fewer choices, same feasibility).
    let setup = small_setup(15);
    let nets = prepare(&setup).expect("prepare");
    let lib = catalog::ibm_like().non_inverting();
    for net in &nets {
        let sol = solve(&net.tree, Some(&net.scenario), &lib, None).min_buffers();
        assert!(
            !audit::noise(&net.tree, &net.scenario, &lib, &sol.assignment)
                .expect("audit")
                .has_violation()
        );
    }
}
