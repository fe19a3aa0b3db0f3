//! Exhaustive verification of the beyond-the-paper extensions: polarity
//! tracking, the minimum-cost objective, and simultaneous wire sizing.
//! Each DP is checked against brute-force enumeration on small nets.

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::wiresize::{self, WireSizeOptions};
use buffopt::{audit, Assignment, DpWorkspace, Solution};
use buffopt_buffers::{BufferId, BufferLibrary, BufferType};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, NodeId, RoutingTree, SinkSpec, Technology, TreeBuilder};

/// Problem 2: one DP run on a fresh workspace, read as its best slack.
fn max_slack(
    t: &RoutingTree,
    s: &NoiseScenario,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
) -> Solution {
    algo3::solve(&mut DpWorkspace::new(), t, Some(s), lib, opts)
        .expect("solves")
        .max_slack()
}

fn small_net(len: f64, pieces: usize, rat: f64) -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
    b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, rat, 0.8))
        .expect("sink");
    segment::segment_uniform(&b.build().expect("tree"), pieces)
        .expect("segment")
        .tree
}

fn estimation(t: &RoutingTree) -> NoiseScenario {
    NoiseScenario::estimation(t, 0.7, 7.2e9)
}

fn sites(t: &RoutingTree) -> Vec<NodeId> {
    t.node_ids()
        .filter(|&v| t.node(v).kind.is_feasible_site())
        .collect()
}

/// Enumerate all assignments over `sites` with `choices` buffer options
/// (0 = none, i>0 = buffer i−1), calling `f` for each.
fn for_all_assignments(
    t: &RoutingTree,
    sites: &[NodeId],
    choices: usize,
    mut f: impl FnMut(&Assignment),
) {
    let total = (choices + 1).pow(sites.len() as u32);
    for mut code in 0..total {
        let mut a = Assignment::empty(t);
        for &site in sites {
            let pick = code % (choices + 1);
            code /= choices + 1;
            if pick > 0 {
                a.insert(site, BufferId::from_index(pick - 1));
            }
        }
        f(&a);
    }
}

#[test]
fn polarity_dp_matches_exhaustive() {
    // Library: one inverter, one buffer. Exhaustive search over all
    // assignments, keeping only polarity-legal + noise-clean ones.
    let mut lib = BufferLibrary::new();
    lib.push(BufferType::new("inv", 6e-15, 280.0, 15e-12, 0.9).inverting());
    lib.push(BufferType::new("buf", 8e-15, 320.0, 35e-12, 0.9));
    let t = small_net(6_000.0, 5, 1.5e-9);
    let s = estimation(&t);
    let site_list = sites(&t);
    assert!(site_list.len() <= 6);

    let mut best = f64::NEG_INFINITY;
    for_all_assignments(&t, &site_list, lib.len(), |a| {
        if !audit::polarity_legal(&t, &lib, a) {
            return;
        }
        if audit::noise(&t, &s, &lib, a)
            .expect("audit")
            .has_violation()
        {
            return;
        }
        best = best.max(audit::delay(&t, &lib, a).expect("audit").slack);
    });
    assert!(best > f64::NEG_INFINITY, "a legal assignment exists");

    let sol = max_slack(
        &t,
        &s,
        &lib,
        &BuffOptOptions {
            polarity_aware: true,
            conservative_pruning: true, // exactness for the comparison
            ..BuffOptOptions::default()
        },
    );
    assert!(
        (sol.slack - best).abs() < 1e-14,
        "DP {} vs exhaustive {}",
        sol.slack,
        best
    );
    assert!(audit::polarity_legal(&t, &lib, &sol.assignment));
}

#[test]
fn min_cost_matches_exhaustive() {
    let mut lib = BufferLibrary::new();
    lib.push(BufferType::new("small", 5e-15, 600.0, 25e-12, 0.9).with_cost(1.0));
    lib.push(BufferType::new("big", 20e-15, 150.0, 35e-12, 0.9).with_cost(4.0));
    let t = small_net(7_000.0, 5, 1.5e-9);
    let s = estimation(&t);
    let site_list = sites(&t);

    let mut best_cost = f64::INFINITY;
    for_all_assignments(&t, &site_list, lib.len(), |a| {
        if audit::noise(&t, &s, &lib, a)
            .expect("audit")
            .has_violation()
        {
            return;
        }
        if audit::delay(&t, &lib, a).expect("audit").slack < 0.0 {
            return;
        }
        best_cost = best_cost.min(a.total_cost(&lib));
    });
    assert!(best_cost < f64::INFINITY, "a feasible assignment exists");

    let sol = algo3::min_cost(
        &mut DpWorkspace::new(),
        &t,
        &s,
        &lib,
        &BuffOptOptions {
            conservative_pruning: true,
            ..BuffOptOptions::default()
        },
    )
    .expect("solves");
    assert!(
        (sol.cost - best_cost).abs() < 1e-9,
        "DP cost {} vs exhaustive {}",
        sol.cost,
        best_cost
    );
    assert!(sol.slack >= 0.0);
}

#[test]
fn wiresize_dp_matches_exhaustive() {
    // Tiny instance: 3 segments × widths {1, 2} × buffer/no-buffer at 2
    // sites, exhaustive over everything.
    let lib = BufferLibrary::single(BufferType::new("b", 10e-15, 250.0, 20e-12, 0.9));
    let t = small_net(5_000.0, 3, 1.2e-9);
    let s0 = estimation(&t);
    let site_list = sites(&t);
    let widths = [1.0, 2.0];
    let alpha = 0.6;

    // Every node with a parent wire can pick a width.
    let wire_nodes: Vec<NodeId> = t.node_ids().filter(|&v| t.parent(v).is_some()).collect();
    let mut best = f64::NEG_INFINITY;
    let combos = widths.len().pow(wire_nodes.len() as u32);
    for code in 0..combos {
        let mut c = code;
        let mut table = vec![1.0; t.len()];
        for &v in &wire_nodes {
            table[v.index()] = widths[c % widths.len()];
            c /= widths.len();
        }
        let resized = wiresize::resize_tree(&t, &table, alpha);
        let mut s1 = NoiseScenario::quiet(&resized);
        for v in resized.node_ids() {
            s1.set_factor(v, s0.factor(v));
        }
        for_all_assignments(&resized, &site_list, lib.len(), |a| {
            if audit::noise(&resized, &s1, &lib, a)
                .expect("audit")
                .has_violation()
            {
                return;
            }
            best = best.max(audit::delay(&resized, &lib, a).expect("audit").slack);
        });
    }
    assert!(best > f64::NEG_INFINITY);

    let sol = wiresize::optimize(
        &t,
        &s0,
        &lib,
        &WireSizeOptions {
            widths: widths.to_vec(),
            fringe_fraction: alpha,
            ..WireSizeOptions::default()
        },
    )
    .expect("solves");
    assert!(
        (sol.slack - best).abs() < 1e-14,
        "DP {} vs exhaustive {}",
        sol.slack,
        best
    );
}

#[test]
fn polarity_strictness_ordering() {
    // free ≥ polarity-aware ≥ non-inverting-only: each is a restriction
    // of the previous feasible set... (the last uses 6 of 11 buffers, so
    // only the first inequality is a theorem; check both directions that
    // do hold).
    use buffopt_buffers::catalog;
    let t = small_net(15_000.0, 12, 2e-9);
    let s = estimation(&t);
    let lib = catalog::ibm_like();
    let free = max_slack(&t, &s, &lib, &BuffOptOptions::default());
    let polar = max_slack(
        &t,
        &s,
        &lib,
        &BuffOptOptions {
            polarity_aware: true,
            ..BuffOptOptions::default()
        },
    );
    assert!(polar.slack <= free.slack + 1e-15);
    // Non-inverting-only is a legal polarity-aware solution space, so the
    // polarity-aware optimum is at least as good.
    let ni = max_slack(&t, &s, &lib.non_inverting(), &BuffOptOptions::default());
    assert!(polar.slack >= ni.slack - 1e-13);
}

#[test]
fn cost_and_count_objectives_are_consistent() {
    use buffopt_buffers::catalog;
    let t = small_net(18_000.0, 14, 3e-9);
    let s = estimation(&t);
    let lib = catalog::ibm_like();
    let opts = BuffOptOptions::default();
    let mut ws = DpWorkspace::new();
    let by_count = algo3::solve(&mut ws, &t, Some(&s), &lib, &opts)
        .expect("count")
        .fewest_meeting()
        .expect("timing met");
    let by_cost = algo3::min_cost(&mut ws, &t, &s, &lib, &opts).expect("cost");
    // Cost optimum may use more (smaller) buffers but never costs more.
    assert!(by_cost.cost <= by_count.cost + 1e-9);
    for sol in [&by_count, &by_cost] {
        assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
            .expect("audit")
            .has_violation());
        assert!(sol.slack >= 0.0);
    }
}
