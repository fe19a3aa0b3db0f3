//! Optimality oracle: every selection on [`crate::buffopt::Frontier`]
//! against brute force.
//!
//! Random small segmented nets (1–3 sinks, at most 7 buffer sites) and
//! random 1–2-type libraries are small enough to enumerate every buffer
//! assignment. Each assignment is re-analyzed by the independent
//! [`crate::audit`] (delay and Devgan noise, with noise classified by the
//! DP's own tolerance), and the DP's answers must equal the enumerated
//! optima where the paper's algorithm is exact:
//!
//! * without a scenario (DelayOpt), every `per_count` entry equals the
//!   best enumerated slack with exactly that many buffers, an absent count
//!   never beats a smaller one, and `max_slack` is the delay optimum;
//! * with a scenario and conservative pruning, `max_slack`, `per_count`
//!   and `fewest_meeting` equal the enumerated Problem 2, per-count and
//!   Problem 3 optima, and `min_buffers` serves Problem 3 or falls back to
//!   Problem 2;
//! * in the paper's `(C, q)` pruning mode — exact only under Theorem 5's
//!   library assumptions, which random libraries break — `max_slack` must
//!   still audit noise-clean and never beat the enumeration.
//!
//! The random libraries mark types inverting at random. With polarity off
//! (the default) an inverting buffer flips nothing, so each buffer count
//! keeps one frontier and the same optima hold.
//!
//! The same generator checks that the bounded count search
//! (`min_buffers_with`) serves bitwise what one run's `min_buffers`
//! serves, in every pruning and polarity mode; with one buffer type, it
//! checks that Algorithm 2's count — the floor that search starts from —
//! is at most the fewest buffers of any noise-clean placement on the
//! net's sites.

#![cfg(test)]

use buffopt_buffers::{BufferId, BufferLibrary, BufferType};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, NodeId, RoutingTree, SinkSpec, Technology, TreeBuilder, Wire};
use proptest::prelude::*;

use crate::algorithm2::noise_floor_with;
use crate::assignment::Assignment;
use crate::audit;
use crate::budget::RunBudget;
use crate::buffopt::{min_buffers_with, solve, BuffOptOptions, Frontier, Solution};
use crate::climb::NOISE_TOL;
use crate::error::CoreError;
use crate::workspace::DpWorkspace;

/// Slack agreement demanded between the DP and the enumeration, as in the
/// crate's other exhaustive tests.
const SLACK_TOL: f64 = 1e-15;
/// At most this many feasible sites, so at most 3^7 assignments.
const MAX_SITES: usize = 7;

/// Best enumerated slack per buffer count (`None`: no such assignment),
/// over every assignment and over the noise-clean ones only.
struct Enumeration {
    any: Vec<Option<f64>>,
    clean: Vec<Option<f64>>,
}

fn noise_clean(tree: &RoutingTree, s: &NoiseScenario, lib: &BufferLibrary, a: &Assignment) -> bool {
    audit::noise(tree, s, lib, a)
        .expect("audit")
        .checks
        .iter()
        .all(|c| c.noise <= c.margin + NOISE_TOL)
}

fn enumerate(tree: &RoutingTree, s: &NoiseScenario, lib: &BufferLibrary) -> Enumeration {
    let sites: Vec<NodeId> = tree
        .node_ids()
        .filter(|&v| tree.node(v).kind.is_feasible_site())
        .collect();
    assert!(sites.len() <= MAX_SITES, "{} sites", sites.len());
    let choices = lib.len() + 1; // no buffer, or one of the types
    let mut e = Enumeration {
        any: vec![None; sites.len() + 1],
        clean: vec![None; sites.len() + 1],
    };
    for code in 0..choices.pow(sites.len() as u32) {
        let mut a = Assignment::empty(tree);
        let mut rest = code;
        for &site in &sites {
            if rest % choices > 0 {
                a.insert(site, BufferId::from_index(rest % choices - 1));
            }
            rest /= choices;
        }
        let k = a.count();
        let slack = audit::delay(tree, lib, &a).expect("audit").slack;
        let raise = |slot: &mut Option<f64>| *slot = Some(slot.map_or(slack, |b| b.max(slack)));
        raise(&mut e.any[k]);
        if noise_clean(tree, s, lib, &a) {
            raise(&mut e.clean[k]);
        }
    }
    e
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < SLACK_TOL
}

/// The DP's own bookkeeping: its slack is what the audit measures for the
/// assignment it returned, and its count is that assignment's size.
fn consistent(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    sol: &Solution,
) -> Result<(), TestCaseError> {
    let audited = audit::delay(tree, lib, &sol.assignment)
        .expect("audit")
        .slack;
    prop_assert!(
        close(sol.slack, audited),
        "DP slack {:e} audits {audited:e}",
        sol.slack
    );
    prop_assert_eq!(sol.buffers, sol.assignment.count());
    Ok(())
}

/// `per_count` against a per-count enumeration: every returned entry is
/// exact, and every absent count is no better than some smaller count the
/// table does return.
fn check_per_count(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    f: &Frontier<'_>,
    best: &[Option<f64>],
    label: &str,
) -> Result<(), TestCaseError> {
    let table = f.per_count(best.len() - 1);
    let mut best_below = f64::NEG_INFINITY;
    for (k, (entry, want)) in table.iter().zip(best).enumerate() {
        match (entry, want) {
            (Some(sol), Some(want)) => {
                consistent(tree, lib, sol)?;
                prop_assert_eq!(sol.buffers, k);
                prop_assert!(
                    close(sol.slack, *want),
                    "{label}: {k} buffers, DP {:e} vs enumerated {want:e}",
                    sol.slack
                );
                best_below = best_below.max(sol.slack);
            }
            (Some(sol), None) => {
                prop_assert!(false, "{label}: DP returned {k} buffers at {:e}, enumeration has none", sol.slack);
            }
            (None, Some(want)) => prop_assert!(
                *want <= best_below + SLACK_TOL,
                "{label}: {k} buffers dropped, yet {want:e} beats every smaller count ({best_below:e})"
            ),
            (None, None) => {}
        }
    }
    Ok(())
}

fn optimum(best: &[Option<f64>]) -> Option<f64> {
    best.iter().flatten().copied().reduce(f64::max)
}

/// Checks every selection of one net and library in the three modes.
fn check(tree: &RoutingTree, lib: &BufferLibrary) -> Result<(), TestCaseError> {
    let s = NoiseScenario::estimation(tree, 0.7, 7.2e9);
    let e = enumerate(tree, &s, lib);
    let mut ws = DpWorkspace::new();

    // DelayOpt: exact per count and overall.
    let delay =
        solve(&mut ws, tree, None, lib, &BuffOptOptions::default()).expect("DelayOpt solves");
    check_per_count(tree, lib, &delay, &e.any, "delayopt")?;
    let best = delay.max_slack();
    prop_assert!(!best.meets_noise);
    let want = optimum(&e.any).expect("the unbuffered assignment always exists");
    prop_assert!(
        close(best.slack, want),
        "delayopt: DP {:e} vs enumerated {want:e}",
        best.slack
    );

    // Conservative pruning under noise: exact Problems 2 and 3.
    let conservative = BuffOptOptions {
        conservative_pruning: true,
        ..BuffOptOptions::default()
    };
    match (
        solve(&mut ws, tree, Some(&s), lib, &conservative),
        optimum(&e.clean),
    ) {
        (Ok(f), Some(p2)) => {
            check_per_count(tree, lib, &f, &e.clean, "conservative")?;
            let sol = f.max_slack();
            consistent(tree, lib, &sol)?;
            prop_assert!(sol.meets_noise && noise_clean(tree, &s, lib, &sol.assignment));
            prop_assert!(
                close(sol.slack, p2),
                "problem 2: DP {:e} vs enumerated {p2:e}",
                sol.slack
            );
            let p3 = e
                .clean
                .iter()
                .enumerate()
                .find_map(|(k, b)| b.filter(|&b| b >= 0.0).map(|b| (k, b)));
            match (f.fewest_meeting(), p3) {
                (Some(sol), Some((k, want))) => {
                    consistent(tree, lib, &sol)?;
                    prop_assert!(noise_clean(tree, &s, lib, &sol.assignment));
                    prop_assert_eq!(sol.buffers, k, "problem 3 buffer count");
                    prop_assert!(
                        close(sol.slack, want),
                        "problem 3: DP {:e} vs enumerated {want:e}",
                        sol.slack
                    );
                }
                (None, None) => {}
                (got, want) => prop_assert!(
                    false,
                    "problem 3: DP {:?} vs enumerated {want:?}",
                    got.map(|s| (s.buffers, s.slack))
                ),
            }
            // Problem 3 as served falls back to the Problem 2 optimum.
            let served = f.min_buffers();
            match p3 {
                Some((k, want)) => prop_assert!(
                    served.buffers == k && close(served.slack, want),
                    "served problem 3: ({}, {:e}) vs ({k}, {want:e})",
                    served.buffers,
                    served.slack
                ),
                None => prop_assert!(
                    served.slack < 0.0 && close(served.slack, p2),
                    "served fallback: {:e} vs problem 2 {p2:e}",
                    served.slack
                ),
            }
        }
        (Err(CoreError::NoFeasibleCandidate), None) => {}
        (got, p2) => prop_assert!(
            false,
            "conservative: DP {:?} vs enumerated problem 2 {p2:?}",
            got.map(|f| f.max_slack().slack)
        ),
    }

    // The paper's pruning: sound, not necessarily optimal.
    match solve(&mut ws, tree, Some(&s), lib, &BuffOptOptions::default()) {
        Ok(f) => {
            let sol = f.max_slack();
            consistent(tree, lib, &sol)?;
            prop_assert!(
                noise_clean(tree, &s, lib, &sol.assignment),
                "paper mode returned a noisy solution"
            );
            let p2 = optimum(&e.clean).expect("a clean solution exists");
            prop_assert!(
                sol.slack <= p2 + SLACK_TOL,
                "paper mode {:e} beat the enumeration {p2:e}",
                sol.slack
            );
        }
        Err(err) => prop_assert_eq!(err, CoreError::NoFeasibleCandidate),
    }
    Ok(())
}

/// One generated net: the topology's wires, its sinks, and which internal
/// nodes may take a buffer.
struct NetSpec {
    driver_r: f64,
    /// `(length µm, pieces)` per topology wire, in the order `build` uses.
    wires: Vec<(f64, usize)>,
    /// `(cap F, RAT s, noise margin)` per sink.
    sinks: Vec<(f64, f64, f64)>,
    /// Bit `i` makes the `i`-th internal node a buffer site, up to
    /// [`MAX_SITES`] sites.
    site_mask: u32,
}

impl NetSpec {
    /// Builds the net: one sink on a wire from the source; two sinks on a
    /// Y; three sinks as a trunk to a junction that feeds one sink and a
    /// second junction with two. Each wire is split into its pieces, and
    /// every inner piece boundary and junction is an internal node.
    fn build(&self) -> RoutingTree {
        let mut n = NetDraft {
            spec: self,
            b: TreeBuilder::new(Driver::new(self.driver_r, 15e-12)),
            internals: 0,
            sites: 0,
            wires: 0,
            sinks: 0,
        };
        let src = n.b.source();
        match self.sinks.len() {
            1 => n.sink(src),
            2 => {
                let j = n.junction(src);
                n.sink(j);
                n.sink(j);
            }
            _ => {
                let j1 = n.junction(src);
                n.sink(j1);
                let j2 = n.junction(j1);
                n.sink(j2);
                n.sink(j2);
            }
        }
        n.b.build().expect("tree")
    }
}

struct NetDraft<'a> {
    spec: &'a NetSpec,
    b: TreeBuilder,
    internals: u32,
    sites: usize,
    wires: usize,
    sinks: usize,
}

impl NetDraft<'_> {
    fn internal(&mut self, parent: NodeId, wire: Wire) -> NodeId {
        let feasible = self.spec.site_mask & (1 << self.internals) != 0 && self.sites < MAX_SITES;
        self.internals += 1;
        if feasible {
            self.sites += 1;
            self.b.add_internal(parent, wire).expect("internal")
        } else {
            self.b
                .add_infeasible_internal(parent, wire)
                .expect("internal")
        }
    }

    /// Lays the next topology wire's inner pieces below `from`; returns
    /// the node its last piece hangs from, and that piece.
    fn wire(&mut self, from: NodeId) -> (NodeId, Wire) {
        let (len, pieces) = self.spec.wires[self.wires];
        self.wires += 1;
        let piece = Technology::global_layer().wire(len).split(pieces);
        let mut at = from;
        for _ in 1..pieces {
            at = self.internal(at, piece);
        }
        (at, piece)
    }

    fn junction(&mut self, from: NodeId) -> NodeId {
        let (at, piece) = self.wire(from);
        self.internal(at, piece)
    }

    fn sink(&mut self, from: NodeId) {
        let (at, piece) = self.wire(from);
        let (cap, rat, nm) = self.spec.sinks[self.sinks];
        self.sinks += 1;
        self.b
            .add_sink(at, piece, SinkSpec::new(cap, rat, nm))
            .expect("sink");
    }
}

/// One buffer type: `(Cin, R, delay, noise margin, cost)`.
type TypeSpec = (f64, f64, f64, f64, f64);

/// One [`TypeSpec`] per type. Distinct costs let the source frontier
/// keep several solutions per buffer count (cheaper but slower), so
/// `per_count` has a real choice to make.
fn library(types: &[TypeSpec]) -> BufferLibrary {
    let mut lib = BufferLibrary::new();
    for (i, &(cin, r, d, nm, cost)) in types.iter().enumerate() {
        lib.push(BufferType::new(format!("b{i}"), cin, r, d, nm).with_cost(cost));
    }
    lib
}

/// [`library`] with each type marked inverting where its flag says so.
fn inverting_library(types: &[(TypeSpec, bool)]) -> BufferLibrary {
    let mut lib = BufferLibrary::new();
    for (i, &((cin, r, d, nm, cost), inverting)) in types.iter().enumerate() {
        let b = BufferType::new(format!("b{i}"), cin, r, d, nm).with_cost(cost);
        lib.push(if inverting { b.inverting() } else { b });
    }
    lib
}

/// The DelayOpt exhaustive case this oracle replaced: a 6 mm two-pin net
/// in four pieces and a fast-but-heavy / light-but-weak library pair.
#[test]
fn tiny_two_pin_two_type_library() {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
    b.add_sink(
        b.source(),
        tech.wire(6000.0),
        SinkSpec::new(20e-15, 1e-9, 0.8),
    )
    .expect("sink");
    let t = segment::segment_uniform(&b.build().expect("tree"), 4)
        .expect("segment")
        .tree;
    let lib = library(&[
        (5e-15, 500.0, 20e-12, 0.9, 1.0),
        (20e-15, 150.0, 35e-12, 0.9, 1.0),
    ]);
    check(&t, &lib).unwrap_or_else(|e| panic!("{e:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selections_match_enumeration(
        sinks in prop::collection::vec((5e-15f64..40e-15, 0.2e-9f64..2.0e-9, 0.5f64..0.9), 1..4),
        wires in prop::collection::vec((150.0f64..2500.0, 1usize..5), 5..6),
        site_masks in (0u32..(1 << 16), 0u32..(1 << 16)),
        driver_r in 40.0f64..300.0,
        types in prop::collection::vec(
            ((2e-15f64..50e-15, 80.0f64..800.0, 5e-12f64..40e-12, 0.4f64..0.95, 0.5f64..4.0),
             prop::bool::ANY),
            1..3,
        ),
    ) {
        let spec = NetSpec { driver_r, wires, sinks, site_mask: site_masks.0 | site_masks.1 };
        check(&spec.build(), &inverting_library(&types))?;
    }
}

/// The bounded count search ([`min_buffers_with`]) against one run at the
/// caller's cap read as [`Frontier::min_buffers`]: the same slack and
/// cost bits, buffer count and sorted insertions, or the same error.
/// Shared with the difftest corpus ([`crate::difftest`]).
pub(crate) fn assert_search_exact(
    tree: &RoutingTree,
    s: &NoiseScenario,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
    label: &str,
) {
    let mut ws = DpWorkspace::new();
    let one = solve(&mut ws, tree, Some(s), lib, opts).map(|f| f.min_buffers());
    let search = min_buffers_with(&mut ws, tree, s, lib, opts);
    let runs = ws.work().dp_runs;
    assert!(
        (1..=2).contains(&runs),
        "{label}: the search ran the DP {runs} times"
    );
    let key = |sol: &Solution| {
        let mut ins: Vec<(NodeId, BufferId)> = sol.assignment.iter().collect();
        ins.sort_unstable();
        (sol.slack.to_bits(), sol.cost.to_bits(), sol.buffers, ins)
    };
    match (&one, &search) {
        (Ok(a), Ok(b)) => {
            assert_eq!(key(a), key(b), "{label}: served solutions differ");
            assert_eq!(a.meets_noise, b.meets_noise, "{label}");
            assert_eq!(a.degraded_by, b.degraded_by, "{label}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors differ"),
        _ => panic!("{label}: one run gave {one:?}, the search {search:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bounded count search serves exactly what one run does, in
    /// every pruning and polarity mode and under any caller cap.
    #[test]
    fn search_matches_one_run(
        sinks in prop::collection::vec((5e-15f64..40e-15, 0.2e-9f64..2.0e-9, 0.5f64..0.9), 1..4),
        wires in prop::collection::vec((150.0f64..2500.0, 1usize..5), 5..6),
        site_masks in (0u32..(1 << 16), 0u32..(1 << 16)),
        driver_r in 40.0f64..300.0,
        types in prop::collection::vec(
            ((2e-15f64..50e-15, 80.0f64..800.0, 5e-12f64..40e-12, 0.4f64..0.95, 0.5f64..4.0),
             prop::bool::ANY),
            1..3,
        ),
        cap in 0usize..10,
    ) {
        let max_buffers = (cap < 8).then_some(cap); // else uncapped
        let spec = NetSpec { driver_r, wires, sinks, site_mask: site_masks.0 | site_masks.1 };
        let tree = spec.build();
        let s = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let lib = inverting_library(&types);
        for conservative_pruning in [false, true] {
            for polarity_aware in [false, true] {
                let opts = BuffOptOptions {
                    max_buffers,
                    conservative_pruning,
                    polarity_aware,
                    ..BuffOptOptions::default()
                };
                assert_search_exact(
                    &tree,
                    &s,
                    &lib,
                    &opts,
                    &format!("conservative={conservative_pruning} polarity={polarity_aware}"),
                );
            }
        }
    }
}

/// The floor needs the buffer no weaker than the driver. Algorithm 2's
/// climb keeps every candidate drivable by a buffer (`Rb·I ≤ NS`, Theorem
/// 1), so a buffer may go anywhere upstream; a driver stronger than the
/// buffer could drive a longer last stretch, and the walk buffers it
/// anyway. Here the unbuffered 2 mm net is noise-clean behind its 100 Ω
/// driver, yet the 800 Ω buffer's Theorem 1 length is about 760 µm, so
/// Algorithm 2 inserts two. The count search stays exact: its probe's cap
/// sits above the answer and cuts nothing the answer needs (DESIGN §1).
#[test]
fn noise_floor_exceeds_the_answer_behind_a_driver_stronger_than_the_buffer() {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(100.0, 15e-12));
    b.add_sink(
        b.source(),
        tech.wire(2_000.0),
        SinkSpec::new(20e-15, 2e-9, 0.8),
    )
    .expect("sink");
    let tree = segment::segment_uniform(&b.build().expect("tree"), 4)
        .expect("segment")
        .tree;
    let s = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let lib = library(&[(10e-15, 800.0, 20e-12, 0.8, 1.0)]);
    let mut ws = DpWorkspace::new();
    let floor = noise_floor_with(&mut ws, &tree, &s, &lib, &RunBudget::default()).expect("floor");
    let opts = BuffOptOptions::default();
    let answer = solve(&mut ws, &tree, Some(&s), &lib, &opts)
        .expect("solve")
        .min_buffers();
    assert_eq!((floor.buffers, answer.buffers), (2, 0), "{floor:?}");
    assert!(floor.meets_timing(), "so the search probes");
    assert_search_exact(&tree, &s, &lib, &opts, "weak buffer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 2 places its buffers anywhere on the wires, the DP only
    /// at the net's sites, so with one buffer type no weaker than the
    /// driver the noise floor is at most the smallest count in the
    /// conservative-mode frontier (conservative pruning keeps every count
    /// that has a noise-clean placement).
    #[test]
    fn noise_floor_is_at_most_the_fewest_clean_buffers(
        sinks in prop::collection::vec((5e-15f64..40e-15, 0.2e-9f64..2.0e-9, 0.5f64..0.9), 1..4),
        wires in prop::collection::vec((150.0f64..2500.0, 1usize..5), 5..6),
        site_masks in (0u32..(1 << 16), 0u32..(1 << 16)),
        driver_r in 40.0f64..300.0,
        (cin, r_share, d, nm, cost) in
            (2e-15f64..50e-15, 0.05f64..1.0, 5e-12f64..40e-12, 0.4f64..0.95, 0.5f64..4.0),
    ) {
        let spec = NetSpec { driver_r, wires, sinks, site_mask: site_masks.0 | site_masks.1 };
        let tree = spec.build();
        let s = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let lib = library(&[(cin, driver_r * r_share, d, nm, cost)]);
        let mut ws = DpWorkspace::new();
        let floor = noise_floor_with(&mut ws, &tree, &s, &lib, &RunBudget::default());
        let opts = BuffOptOptions { conservative_pruning: true, ..BuffOptOptions::default() };
        let fewest = solve(&mut ws, &tree, Some(&s), &lib, &opts)
            .map(|f| f.per_count(MAX_SITES).iter().position(Option::is_some));
        match (floor, fewest) {
            (Ok(floor), Ok(Some(fewest))) => prop_assert!(
                floor.buffers <= fewest,
                "floor {} above the frontier's fewest {fewest}",
                floor.buffers
            ),
            (Ok(_), Ok(None)) => unreachable!("a frontier is never empty"),
            // No noise-clean placement on the sites: nothing to bound.
            (_, Err(CoreError::NoFeasibleCandidate)) => {}
            (floor, fewest) => prop_assert!(false, "floor {floor:?}, frontier {fewest:?}"),
        }
    }
}
