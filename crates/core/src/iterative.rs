//! The greedy iterative baseline from the paper's related-work section:
//! "the works of Kannan et al. and Lin and Marek-Sadowska insert buffers
//! on a tree by iteratively finding the best location for a single
//! buffer". Each round audits every (feasible site × buffer type) choice
//! and commits the single insertion with the best objective; rounds repeat
//! until no insertion improves.
//!
//! Greedy is *not* optimal — van Ginneken's DP dominates it — and the
//! test-suite demonstrates exactly that gap, which is why the paper builds
//! on the DP. It remains a useful comparison point and a second
//! implementation to cross-check the DP against (greedy can never beat
//! an optimal DP on the same sites).
//!
//! Probes are scored through the incremental audit
//! (`crate::probe`): each trial marks one node dirty, refreshes the
//! path to the root, and rolls back — `O(depth)` instead of the seed's
//! full-tree re-audit per trial. The seed's from-scratch scoring survives,
//! compiled for tests only, as the reference the incremental path is
//! checked against.

use buffopt_buffers::{BufferId, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, RoutingTree};

use crate::assignment::Assignment;
#[cfg(test)]
use crate::audit;
use crate::budget::RunBudget;
use crate::buffopt::Solution;
use crate::error::CoreError;
use crate::probe::IncrementalAudit;

/// Options for [`optimize`].
///
/// Not `Copy`: the embedded [`RunBudget`] carries a shared
/// [`crate::CancelToken`], so options are cloned explicitly where a run
/// needs its own handle.
#[derive(Debug, Clone, Default)]
pub struct IterativeOptions {
    /// Enforce noise constraints: an insertion that leaves or creates a
    /// noise violation is only accepted while violations are still being
    /// reduced.
    pub noise: bool,
    /// Stop after this many insertions.
    pub max_buffers: Option<usize>,
    /// Resource limits; the default is unlimited. Cancellation and the
    /// deadline are checked once per greedy round and once per probed
    /// site (each site audits every buffer type, so sites are the unit
    /// of progress inside a round).
    pub budget: RunBudget,
}

/// Lexicographic objective: fewer violations, then strictly larger slack.
fn better(a: (usize, f64), b: (usize, f64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1 + 1e-18)
}

/// Greedy iterative buffer insertion: one buffer per round at the
/// audited-best position.
///
/// Objective per round: lexicographically fewer noise violations (when
/// `options.noise`), then larger audited timing slack. Stops when no
/// single insertion improves.
///
/// # Errors
///
/// * [`CoreError::EmptyLibrary`] — no buffer types;
/// * [`CoreError::ScenarioMismatch`] — scenario built for another tree;
/// * [`CoreError::NoFeasibleCandidate`] — noise mode and greedy got stuck
///   with violations remaining (greedy has no lookahead; the DP may still
///   succeed on the same instance).
pub fn optimize(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &IterativeOptions,
) -> Result<Solution, CoreError> {
    if lib.is_empty() {
        return Err(CoreError::EmptyLibrary);
    }
    if scenario.len() != tree.len() {
        return Err(CoreError::ScenarioMismatch {
            tree_len: tree.len(),
            scenario_len: scenario.len(),
        });
    }
    // Arm the wall clock at run start so queue wait costs nothing.
    let budget = options.budget.armed();
    budget.admit_tree(tree.len())?;
    let sites: Vec<_> = tree
        .node_ids()
        .filter(|&v| tree.node(v).kind.is_feasible_site())
        .collect();
    let (current, current_score) =
        greedy_incremental(tree, scenario, lib, options, &budget, &sites)?;
    if options.noise && current_score.0 > 0 {
        return Err(CoreError::NoFeasibleCandidate);
    }
    let cost = current.total_cost(lib);
    Ok(Solution {
        buffers: current.count(),
        slack: current_score.1,
        assignment: current,
        cost,
        meets_noise: options.noise,
        peak_candidates: 0, // greedy holds no candidate lists
        peak_merge_product: 0,
        merge_products_enumerated: 0,
        merge_products_pruned: 0,
        peak_arena_bytes: 0,
        degraded_by: None, // greedy has no frontier to clamp
    })
}

/// The incremental greedy loop: probes are `O(depth)` table refreshes
/// with rollback; only the winning insertion is committed.
fn greedy_incremental(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &IterativeOptions,
    budget: &RunBudget,
    sites: &[NodeId],
) -> Result<(Assignment, (usize, f64)), CoreError> {
    let mut live = IncrementalAudit::new(tree, scenario, lib, options.noise);
    let mut current_score = (live.violations(), live.slack());
    loop {
        budget.checkpoint()?;
        if let Some(max) = options.max_buffers {
            if live.assignment().count() >= max {
                break;
            }
        }
        let mut best: Option<((usize, f64), NodeId, BufferId)> = None;
        for &site in sites {
            budget.checkpoint()?;
            if live.assignment().buffer_at(site).is_some() {
                continue;
            }
            for (bid, _) in lib.entries() {
                let s = live.probe(site, bid);
                let improves = match &best {
                    None => better(s, current_score),
                    Some((bs, _, _)) => better(s, *bs),
                };
                if improves {
                    best = Some((s, site, bid));
                }
            }
        }
        match best {
            Some((s, site, bid)) => {
                live.commit_insert(site, bid);
                current_score = s;
            }
            None => break,
        }
    }
    Ok((live.into_assignment(), current_score))
}

/// The seed loop: every trial clones the assignment and re-audits the
/// whole net from scratch. It scores the same objective as
/// [`greedy_incremental`] (violation counts are identical, slack agrees up
/// to floating-point association order), so it is that loop's reference.
#[cfg(test)]
fn greedy_resweep(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &IterativeOptions,
    budget: &RunBudget,
    sites: &[NodeId],
) -> Result<(Assignment, (usize, f64)), CoreError> {
    let score = |a: &Assignment| -> Result<(usize, f64), CoreError> {
        let violations = if options.noise {
            audit::noise(tree, scenario, lib, a)?
                .checks
                .iter()
                .filter(|c| c.is_violation())
                .count()
        } else {
            0
        };
        Ok((violations, audit::delay(tree, lib, a)?.slack))
    };
    let mut current = Assignment::empty(tree);
    let mut current_score = score(&current)?;
    loop {
        budget.checkpoint()?;
        if let Some(max) = options.max_buffers {
            if current.count() >= max {
                break;
            }
        }
        let mut best: Option<((usize, f64), Assignment)> = None;
        for &site in sites {
            budget.checkpoint()?;
            if current.buffer_at(site).is_some() {
                continue;
            }
            for (bid, _) in lib.entries() {
                let mut trial = current.clone();
                trial.insert(site, bid);
                let s = score(&trial)?;
                let improves = match &best {
                    None => better(s, current_score),
                    Some((bs, _)) => better(s, *bs),
                };
                if improves {
                    best = Some((s, trial));
                }
            }
        }
        match best {
            Some((s, a)) => {
                current = a;
                current_score = s;
            }
            None => break,
        }
    }
    Ok((current, current_score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffopt::{self as algo3, BuffOptOptions};
    use crate::workspace::DpWorkspace;
    use buffopt_buffers::catalog;
    use buffopt_tree::{segment, Driver, SinkSpec, Technology, TreeBuilder};

    fn net(len: f64, pieces: usize, rat: f64) -> RoutingTree {
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

    /// DelayOpt: the DP's best slack without noise constraints.
    fn delay_optimum(t: &RoutingTree, lib: &BufferLibrary) -> f64 {
        algo3::solve(
            &mut DpWorkspace::new(),
            t,
            None,
            lib,
            &BuffOptOptions::default(),
        )
        .expect("dp")
        .max_slack()
        .slack
    }

    #[test]
    fn greedy_never_beats_the_dp() {
        let lib = catalog::ibm_like();
        for (len, pieces) in [(6_000.0, 6), (12_000.0, 10), (20_000.0, 12)] {
            let t = net(len, pieces, 1.5e-9);
            let s = estimation(&t);
            let greedy = optimize(
                &t,
                &s,
                &lib,
                &IterativeOptions {
                    noise: false,
                    max_buffers: None,
                    ..Default::default()
                },
            )
            .expect("greedy always returns without noise mode");
            let dp = delay_optimum(&t, &lib);
            assert!(
                greedy.slack <= dp + 1e-15,
                "greedy {} beat the optimal DP {dp} at len {len}",
                greedy.slack,
            );
        }
    }

    #[test]
    fn greedy_fixes_noise_when_it_can() {
        let t = net(14_000.0, 12, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = optimize(
            &t,
            &s,
            &lib,
            &IterativeOptions {
                noise: true,
                max_buffers: None,
                ..Default::default()
            },
        )
        .expect("fixable net");
        assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
            .expect("audit")
            .has_violation());
        // The DP's Problem 3 answer uses no more buffers than greedy.
        let dp = algo3::solve(
            &mut DpWorkspace::new(),
            &t,
            Some(&s),
            &lib,
            &Default::default(),
        )
        .expect("dp")
        .min_buffers();
        assert!(dp.buffers <= sol.buffers);
    }

    #[test]
    fn greedy_is_suboptimal_somewhere() {
        // A documented gap: on at least one population-like instance the
        // greedy slack is strictly below the DP optimum (this is why the
        // paper builds on the DP).
        let lib = catalog::ibm_like();
        let mut found_gap = false;
        for len in [8_000.0, 14_000.0, 18_000.0, 26_000.0] {
            let t = net(len, 12, 1.5e-9);
            let greedy = optimize(
                &t,
                &estimation(&t),
                &lib,
                &IterativeOptions {
                    noise: false,
                    max_buffers: None,
                    ..Default::default()
                },
            )
            .expect("greedy");
            if delay_optimum(&t, &lib) > greedy.slack + 1e-12 {
                found_gap = true;
                break;
            }
        }
        assert!(found_gap, "greedy matched the DP everywhere (unexpected)");
    }

    #[test]
    fn max_buffers_caps_greedy() {
        let t = net(25_000.0, 14, 1.5e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = optimize(
            &t,
            &s,
            &lib,
            &IterativeOptions {
                noise: false,
                max_buffers: Some(2),
                ..Default::default()
            },
        )
        .expect("greedy");
        assert!(sol.buffers <= 2);
    }

    #[test]
    fn quiet_short_net_gets_nothing() {
        let t = net(400.0, 2, 1e-9);
        let s = NoiseScenario::quiet(&t);
        let lib = catalog::ibm_like();
        let sol = optimize(
            &t,
            &s,
            &lib,
            &IterativeOptions {
                noise: true,
                max_buffers: None,
                ..Default::default()
            },
        )
        .expect("clean net");
        assert_eq!(sol.buffers, 0);
    }

    /// The incremental and full-resweep paths must agree: identical
    /// buffer placements and violation counts on every instance, slack
    /// equal up to floating-point association order.
    #[test]
    fn incremental_matches_full_resweep() {
        let lib = catalog::ibm_like();
        let resweep = |t: &RoutingTree, s: &NoiseScenario, o: &IterativeOptions| {
            let sites: Vec<_> = t
                .node_ids()
                .filter(|&v| t.node(v).kind.is_feasible_site())
                .collect();
            let (assignment, (violations, slack)) =
                greedy_resweep(t, s, &lib, o, &RunBudget::default(), &sites)?;
            if o.noise && violations > 0 {
                return Err(CoreError::NoFeasibleCandidate);
            }
            Ok((assignment, slack))
        };
        for (len, pieces, noise) in [
            (6_000.0, 6, false),
            (12_000.0, 10, false),
            (14_000.0, 12, true),
            (20_000.0, 12, true),
        ] {
            let t = net(len, pieces, 1.5e-9);
            let s = estimation(&t);
            let base = IterativeOptions {
                noise,
                max_buffers: None,
                ..Default::default()
            };
            let fast = optimize(&t, &s, &lib, &base);
            let slow = resweep(&t, &s, &base);
            match (fast, slow) {
                (Ok(f), Ok((assignment, slack))) => {
                    assert_eq!(f.assignment, assignment, "len {len} noise {noise}");
                    assert!((f.slack - slack).abs() <= 1e-18 * (1.0 + slack.abs()));
                }
                (Err(ef), Err(es)) => assert_eq!(ef, es),
                (f, sl) => panic!("paths diverged on len {len}: {f:?} vs {sl:?}"),
            }
        }
    }
}
