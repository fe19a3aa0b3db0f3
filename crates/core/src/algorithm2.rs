//! Algorithm 2 of the paper: optimal noise avoidance for multi-sink nets.
//!
//! The single-sink walk of Algorithm 1 cannot decide, when two branches
//! meet and their combined current busts the budget, *which* branch should
//! receive a buffer — the answer depends on the still-unknown upstream
//! gate. Algorithm 2 therefore carries **candidate** tuples
//! `(I, NS, M)` (downstream current, noise slack, partial solution) up the
//! tree, generating both branch-buffer alternatives whenever a merge would
//! violate, and pruning dominated candidates (`c1` inferior to `c2` iff
//! `I1 ≥ I2` and `NS1 ≤ NS2`). Within wires, buffers are still placed at
//! their Theorem 1 maximal distance. The worst case is `O(n²)`, but merges
//! rarely force buffers in practice, so the typical cost is linear.
//!
//! This implementation additionally tracks the insertion count in each
//! candidate and prunes on `(I, NS, count)` dominance, so the minimum-
//! buffer guarantee survives floating-point ties.

use buffopt_buffers::{BufferId, BufferLibrary, BufferType};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{elmore, NodeId, RoutingTree, Wire};

use crate::arena::{ProvArena, NONE};
use crate::assignment::Assignment;
use crate::budget::RunBudget;
use crate::climb::{climb_wire, ClimbState, NOISE_TOL};
use crate::error::CoreError;
use crate::rebuild::{rebuild_with_insertions, Rebuilt, WireInsertion};
use crate::workspace::DpWorkspace;

/// A buffered multi-sink net produced by [`avoid_noise`].
#[derive(Debug, Clone)]
pub struct MultiSinkSolution {
    /// The tree with inserted buffer positions materialized as nodes.
    pub tree: RoutingTree,
    /// The noise scenario transferred onto the new tree.
    pub scenario: NoiseScenario,
    /// Buffers placed at the new nodes.
    pub assignment: Assignment,
    /// The buffer type used (smallest-resistance buffer of the library).
    pub buffer: BufferId,
}

impl MultiSinkSolution {
    /// Number of inserted buffers.
    pub fn inserted(&self) -> usize {
        self.assignment.count()
    }
}

#[derive(Debug, Clone, Copy)]
struct Cand {
    current: f64,
    slack: f64,
    count: usize,
    /// Provenance of the partial solution in the run's insertion arena.
    prov: u32,
}

impl Cand {
    fn dominates(&self, other: &Cand) -> bool {
        self.current <= other.current && self.slack >= other.slack && self.count <= other.count
    }
}

/// Removes dominated candidates; keeps the first of exact ties.
fn prune(cands: &mut Vec<Cand>) {
    let mut keep: Vec<Cand> = Vec::with_capacity(cands.len());
    'outer: for c in cands.drain(..) {
        let mut i = 0;
        while i < keep.len() {
            if keep[i].dominates(&c) {
                continue 'outer;
            }
            if c.dominates(&keep[i]) {
                keep.swap_remove(i);
            } else {
                i += 1;
            }
        }
        keep.push(c);
    }
    *cands = keep;
}

/// Climbs every candidate across the parent wire of `c`; candidates whose
/// climb fails are dropped.
#[allow(clippy::too_many_arguments)]
fn climb_list(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    buffer: &BufferType,
    buffer_id: BufferId,
    c: NodeId,
    list: Vec<Cand>,
    arena: &mut ProvArena<WireInsertion>,
) -> Result<Vec<Cand>, CoreError> {
    let wire = tree.parent_wire(c).expect("non-source child");
    let factor = scenario.factor(c);
    let mut out = Vec::with_capacity(list.len());
    let mut last_err = None;
    for cand in list {
        let state = ClimbState {
            current: cand.current,
            slack: cand.slack,
        };
        match climb_wire(wire, factor, buffer, c, state) {
            Ok((next, dists)) => {
                let mut prov = cand.prov;
                let mut count = cand.count;
                for d in dists {
                    prov = arena.elem(
                        WireInsertion {
                            wire: c,
                            dist_from_bottom: d,
                            buffer: buffer_id,
                        },
                        prov,
                    );
                    count += 1;
                }
                out.push(Cand {
                    current: next.current,
                    slack: next.slack,
                    count,
                    prov,
                });
            }
            Err(e) => last_err = Some(e),
        }
    }
    if out.is_empty() {
        return Err(last_err.unwrap_or(CoreError::NoFeasibleCandidate));
    }
    Ok(out)
}

/// A buffer inserted "immediately following `v`" on the branch toward
/// child `c`: the top of `c`'s parent wire.
fn branch_insertion(tree: &RoutingTree, c: NodeId, buffer: BufferId) -> WireInsertion {
    WireInsertion {
        wire: c,
        dist_from_bottom: tree.parent_wire(c).expect("child").length,
        buffer,
    }
}

/// The cheapest candidate a buffer of resistance `rb` can legally drive
/// (`Rb·I ≤ NS`).
fn cheapest_driveable(list: &[Cand], rb: f64) -> Option<Cand> {
    list.iter()
        .filter(|c| rb * c.current <= c.slack + NOISE_TOL)
        .min_by_key(|c| c.count)
        .copied()
}

/// Cancellation/deadline check stride inside the merge cross product, in
/// candidate pairs. Power of two so the tick test compiles to a mask.
const CHECK_STRIDE: usize = 1024;

/// Merges the candidate lists of the two children of `v` (paper Steps 4–6).
///
/// The cross product checkpoints the budget every [`CHECK_STRIDE`] pairs,
/// so a cancelled run unwinds mid-merge instead of at the next tree node.
#[allow(clippy::too_many_arguments)]
fn merge(
    tree: &RoutingTree,
    buffer: &BufferType,
    buffer_id: BufferId,
    left_child: NodeId,
    right_child: NodeId,
    left: &[Cand],
    right: &[Cand],
    arena: &mut ProvArena<WireInsertion>,
    budget: &RunBudget,
) -> Result<Vec<Cand>, CoreError> {
    let rb = buffer.resistance;
    let nm_b = buffer.noise_margin;
    let mut out = Vec::new();

    // Unbuffered merges along the Pareto frontier of
    // (I_l + I_r, min(NS_l, NS_r)): for each slack threshold the minimal-
    // current partners are the first entries meeting it. Sorting by slack
    // descending and sweeping yields all frontier pairs in
    // O(|L|·|R|) worst case but O(|L| + |R|) after pruning; lists are tiny
    // in practice, so the simple cross product is used for exactness.
    let mut tick = 0usize;
    for a in left {
        for b in right {
            tick += 1;
            if tick & (CHECK_STRIDE - 1) == 0 {
                budget.checkpoint()?;
            }
            let current = a.current + b.current;
            let slack = a.slack.min(b.slack);
            if rb * current <= slack + NOISE_TOL {
                out.push(Cand {
                    current,
                    slack,
                    count: a.count + b.count,
                    prov: arena.join(a.prov, b.prov),
                });
            }
        }
    }

    // Buffer on the left branch, immediately below v: the left subtree is
    // handed to a buffer (needs Rb·I_l ≤ NS_l); upstream sees only the
    // right branch plus the buffer's input margin.
    if let Some(a) = cheapest_driveable(left, rb) {
        let ins = branch_insertion(tree, left_child, buffer_id);
        for b in right {
            let joined = arena.join(a.prov, b.prov);
            out.push(Cand {
                current: b.current,
                slack: nm_b.min(b.slack),
                count: a.count + b.count + 1,
                prov: arena.elem(ins, joined),
            });
        }
    }
    // Buffer on the right branch.
    if let Some(b) = cheapest_driveable(right, rb) {
        let ins = branch_insertion(tree, right_child, buffer_id);
        for a in left {
            let joined = arena.join(a.prov, b.prov);
            out.push(Cand {
                current: a.current,
                slack: nm_b.min(a.slack),
                count: a.count + b.count + 1,
                prov: arena.elem(ins, joined),
            });
        }
    }
    // Buffers on both branches (needed when each branch alone saturates
    // the other buffer's input margin).
    if let (Some(a), Some(b)) = (cheapest_driveable(left, rb), cheapest_driveable(right, rb)) {
        let joined = arena.join(a.prov, b.prov);
        let with_left = arena.elem(branch_insertion(tree, left_child, buffer_id), joined);
        let prov = arena.elem(branch_insertion(tree, right_child, buffer_id), with_left);
        out.push(Cand {
            current: 0.0,
            slack: nm_b,
            count: a.count + b.count + 2,
            prov,
        });
    }
    Ok(out)
}

/// Runs Algorithm 2 on a (possibly multi-sink) net, inserting the minimum
/// number of buffers such that every noise constraint is met (Problem 1).
///
/// As with Algorithm 1, a multi-buffer library reduces to its smallest-
/// resistance member (Theorem 4 remark).
///
/// # Errors
///
/// * [`CoreError::EmptyLibrary`] — no buffer types available;
/// * [`CoreError::ScenarioMismatch`] — scenario built for another tree;
/// * [`CoreError::NoiseUnfixable`] / [`CoreError::NoFeasibleCandidate`] —
///   no placement can satisfy the margins.
pub fn avoid_noise(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
) -> Result<MultiSinkSolution, CoreError> {
    avoid_noise_budgeted_with(
        &mut DpWorkspace::new(),
        tree,
        scenario,
        lib,
        &RunBudget::default(),
    )
}

/// [`avoid_noise`] under a [`RunBudget`] and with a reused
/// [`DpWorkspace`], so batch drivers amortize the insertion arena across
/// nets. Cancellation and the deadline are checked at every tree node
/// (and at a stride inside merge cross products), candidate lists are
/// gated on the budget's candidate cap, and the insertion arena is gated
/// on the byte cap, so a pathological net aborts with a typed error
/// instead of running away. The default budget reproduces
/// [`avoid_noise`] exactly.
///
/// The repository benchmark (`perfbench/src/layers.rs`) calls this with
/// its exact signature, so it stays as is until that benchmark changes.
///
/// # Errors
///
/// Those of [`avoid_noise`], plus [`CoreError::BudgetExceeded`] /
/// [`CoreError::DeadlineExceeded`].
pub fn avoid_noise_budgeted_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    budget: &RunBudget,
) -> Result<MultiSinkSolution, CoreError> {
    let placement = place(ws, tree, scenario, lib, budget)?;
    let insertions = ws.alg2.resolve(placement.prov);
    let Rebuilt {
        tree,
        scenario,
        assignment,
        ..
    } = rebuild_with_insertions(tree, scenario, &insertions)?;
    Ok(MultiSinkSolution {
        tree,
        scenario,
        assignment,
        buffer: placement.buffer,
    })
}

/// Algorithm 2's answer without the rebuilt tree: the fewest buffers
/// that fix noise (Problem 1) and the timing slack of the placement that
/// inserts them. Returned by [`noise_floor_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseFloor {
    /// Buffers Algorithm 2 inserts — [`MultiSinkSolution::inserted`] of
    /// the same net.
    pub buffers: usize,
    /// Elmore source slack (`min (RAT − delay)`, driver gate delay
    /// included) of that placement: the library's smallest-resistance
    /// buffer at every Theorem 1 distance, as [`crate::audit::delay`]
    /// computes it on the net with those buffers inserted, up to
    /// rounding.
    pub slack: f64,
}

impl NoiseFloor {
    /// True when Algorithm 2's own placement meets timing as well.
    pub fn meets_timing(&self) -> bool {
        self.slack >= 0.0
    }
}

/// Algorithm 2's buffer count and the timing slack of its placement,
/// from the same walk as [`avoid_noise_budgeted_with`] but without
/// materializing the buffered tree: the slack is evaluated on `tree`
/// itself, wire by wire across the insertion points, so the pass costs
/// the walk plus one linear sweep.
///
/// With one buffer type no weaker than the driver, no noise-clean
/// placement on the DP's discrete sites has fewer buffers, so Problem 3's
/// answer is at least this count. The bounded count search of
/// [`crate::buffopt::min_buffers_with`] starts from it as a guess that
/// never changes its answer (DESIGN §1).
///
/// # Errors
///
/// Those of [`avoid_noise_budgeted_with`].
pub fn noise_floor_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    budget: &RunBudget,
) -> Result<NoiseFloor, CoreError> {
    let placement = place(ws, tree, scenario, lib, budget)?;
    let mut insertions = ws.alg2.resolve(placement.prov);
    let slack = placement_slack(tree, lib.buffer(placement.buffer), &mut insertions);
    Ok(NoiseFloor {
        buffers: placement.buffers,
        slack,
    })
}

/// Algorithm 2's winning placement, left unresolved in the workspace's
/// insertion arena.
struct Placement {
    buffer: BufferId,
    buffers: usize,
    prov: u32,
}

/// Algorithm 2's bottom-up walk (paper Steps 1–6 and the driver check):
/// the fewest-buffer noise-clean placement of `lib`'s smallest-resistance
/// buffer, headroom second. Arms `budget` (a no-op on an armed one).
fn place(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    budget: &RunBudget,
) -> Result<Placement, CoreError> {
    let arena = &mut ws.alg2;
    arena.clear();
    let buffer_id = lib.min_resistance().ok_or(CoreError::EmptyLibrary)?;
    let buffer = lib.buffer(buffer_id);
    if scenario.len() != tree.len() {
        return Err(CoreError::ScenarioMismatch {
            tree_len: tree.len(),
            scenario_len: scenario.len(),
        });
    }
    // Arm the wall clock at run start so queue wait costs nothing.
    let budget = budget.armed();
    budget.admit_tree(tree.len())?;

    let mut lists: Vec<Option<Vec<Cand>>> = vec![None; tree.len()];
    for v in tree.postorder() {
        budget.checkpoint()?;
        let mut list = if let Some(spec) = tree.sink_spec(v) {
            vec![Cand {
                current: 0.0,
                slack: spec.noise_margin,
                count: 0,
                prov: NONE,
            }]
        } else {
            let children = tree.children(v);
            match children {
                [] => unreachable!("internal nodes have children"),
                [c] => {
                    let child_list = lists[c.index()].take().expect("postorder");
                    climb_list(tree, scenario, buffer, buffer_id, *c, child_list, arena)?
                }
                [cl, cr] => {
                    let ll = lists[cl.index()].take().expect("postorder");
                    let rl = lists[cr.index()].take().expect("postorder");
                    let lc = climb_list(tree, scenario, buffer, buffer_id, *cl, ll, arena)?;
                    let rc = climb_list(tree, scenario, buffer, buffer_id, *cr, rl, arena)?;
                    let merged =
                        merge(tree, buffer, buffer_id, *cl, *cr, &lc, &rc, arena, &budget)?;
                    if merged.is_empty() {
                        return Err(CoreError::NoiseUnfixable(v));
                    }
                    merged
                }
                _ => unreachable!("trees are binary"),
            }
        };
        budget.admit_candidates(list.len())?;
        prune(&mut list);
        // Algorithm 2's Pareto lists cannot be clamped without risking a
        // false NoiseUnfixable, so the arena cap is a hard error here —
        // degrade-in-place is a DP-only behavior.
        budget.admit_arena_bytes(arena.bytes())?;
        lists[v.index()] = Some(list);
    }

    // Driver check (paper Step 5 of Algorithm 1, generalized).
    let rso = tree.driver().resistance;
    let source_list = lists[tree.source().index()].take().expect("source list");
    let single_child = match tree.children(tree.source()) {
        [c] => Some(*c),
        _ => None,
    };
    let mut best: Option<(usize, f64, u32)> = None;
    for cand in &source_list {
        let headroom = cand.slack - rso * cand.current;
        let option = if headroom >= -NOISE_TOL {
            Some((cand.count, headroom, cand.prov))
        } else if let Some(c) = single_child {
            // The climb invariant guarantees a buffer just below the source
            // fixes the driver (Rb·I ≤ NS, and its own input then sees no
            // wire noise).
            let prov = arena.elem(branch_insertion(tree, c, buffer_id), cand.prov);
            Some((cand.count + 1, buffer.noise_margin, prov))
        } else {
            None
        };
        if let Some((count, head, prov)) = option {
            let better = match &best {
                None => true,
                Some((bc, bh, _)) => count < *bc || (count == *bc && head > *bh),
            };
            if better {
                best = Some((count, head, prov));
            }
        }
    }
    let (buffers, _, prov) = best.ok_or(CoreError::NoFeasibleCandidate)?;
    Ok(Placement {
        buffer: buffer_id,
        buffers,
        prov,
    })
}

/// Elmore source slack of `tree` with `buffer` inserted at `insertions`,
/// evaluated without rebuilding the tree: a postorder sweep carries each
/// node's load and required time (the earliest `RAT − delay` below it)
/// up its parent wire, cutting the wire's π-model at each insertion as
/// [`rebuild_with_insertions`] cuts it. Sorts `insertions`.
fn placement_slack(
    tree: &RoutingTree,
    buffer: &BufferType,
    insertions: &mut [WireInsertion],
) -> f64 {
    insertions.sort_unstable_by(|a, b| {
        a.wire
            .index()
            .cmp(&b.wire.index())
            .then(a.dist_from_bottom.total_cmp(&b.dist_from_bottom))
    });
    // (load, required time) at the top of each node's parent wire.
    let mut up = vec![(0.0, 0.0); tree.len()];
    let mut at_source = (0.0, f64::INFINITY);
    for v in tree.postorder() {
        let (mut load, mut required) = match tree.sink_spec(v) {
            Some(spec) => (spec.capacitance, spec.required_arrival_time),
            None => tree
                .children(v)
                .iter()
                .map(|c| up[c.index()])
                .fold((0.0, f64::INFINITY), |(l, r), (cl, cr)| (l + cl, r.min(cr))),
        };
        let Some(wire) = tree.parent_wire(v) else {
            at_source = (load, required);
            continue;
        };
        // Bottom to top: climb the piece below each insertion, then let
        // the buffer drive the load. A lumped (zero-length) wire lies
        // wholly above the buffers on it.
        let share = |from: f64, to: f64| {
            if wire.length > 0.0 {
                (to - from) / wire.length
            } else {
                0.0
            }
        };
        let first = insertions.partition_point(|i| i.wire.index() < v.index());
        let mut bottom = 0.0;
        for ins in insertions[first..].iter().take_while(|i| i.wire == v) {
            let at = ins.dist_from_bottom.clamp(0.0, wire.length);
            (load, required) = climb_piece(wire, share(bottom, at), load, required);
            required -= buffer.delay(load);
            load = buffer.input_capacitance;
            bottom = at;
        }
        let top = if wire.length > 0.0 {
            share(bottom, wire.length)
        } else {
            1.0
        };
        (load, required) = climb_piece(wire, top, load, required);
        up[v.index()] = (load, required);
    }
    let d = tree.driver();
    at_source.1 - elmore::gate_delay(d.intrinsic_delay, d.resistance, at_source.0)
}

/// `(load, required time)` at the top of the share `frac` of `wire`'s
/// length, given them at its bottom: the piece's π-model Elmore delay.
fn climb_piece(wire: &Wire, frac: f64, load: f64, required: f64) -> (f64, f64) {
    let piece = Wire {
        resistance: wire.resistance * frac,
        capacitance: wire.capacitance * frac,
        length: wire.length * frac,
    };
    (
        load + piece.capacitance,
        required - elmore::wire_delay(&piece, load),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use buffopt_noise::metric::NoiseReport;
    use buffopt_tree::{Driver, SinkSpec, Technology, TreeBuilder};

    fn lib() -> BufferLibrary {
        BufferLibrary::single(BufferType::new("b", 10e-15, 200.0, 20e-12, 0.9))
    }

    fn estimation(tree: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(tree, 0.7, 7.2e9)
    }

    /// A symmetric two-sink net: source — trunk — {left arm, right arm}.
    fn y_net(trunk: f64, arm: f64, nm: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b
            .add_internal(b.source(), tech.wire(trunk))
            .expect("junction");
        for _ in 0..2 {
            b.add_sink(j, tech.wire(arm), SinkSpec::new(20e-15, 1e-9, nm))
                .expect("sink");
        }
        b.build().expect("tree")
    }

    #[test]
    fn quiet_net_needs_no_buffers() {
        let t = y_net(1000.0, 500.0, 0.8);
        let s = NoiseScenario::quiet(&t);
        let sol = avoid_noise(&t, &s, &lib()).expect("solve");
        assert_eq!(sol.inserted(), 0);
    }

    #[test]
    fn violating_y_net_is_fixed() {
        for (trunk, arm) in [
            (10_000.0, 5_000.0),
            (30_000.0, 10_000.0),
            (2_000.0, 20_000.0),
        ] {
            let t = y_net(trunk, arm, 0.8);
            let s = estimation(&t);
            let before = NoiseReport::analyze(&t, &s);
            assert!(before.has_violation(), "{trunk}/{arm} should violate");
            let sol = avoid_noise(&t, &s, &lib()).expect("solve");
            assert!(sol.inserted() > 0);
            let after =
                audit::noise(&sol.tree, &sol.scenario, &lib(), &sol.assignment).expect("audit");
            assert!(
                !after.has_violation(),
                "{trunk}/{arm}: worst headroom {}",
                after.worst_headroom()
            );
        }
    }

    #[test]
    fn agrees_with_algorithm1_on_chains() {
        use crate::algorithm1;
        let tech = Technology::global_layer();
        for len in [8_000.0, 25_000.0, 70_000.0] {
            let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
            b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, 1e-9, 0.8))
                .expect("sink");
            let t = b.build().expect("tree");
            let s = estimation(&t);
            let a1 = algorithm1::avoid_noise(&t, &s, &lib()).expect("alg1");
            let a2 = avoid_noise(&t, &s, &lib()).expect("alg2");
            assert_eq!(a1.inserted(), a2.inserted(), "len {len}");
        }
    }

    #[test]
    fn asymmetric_branches_buffer_the_heavy_side() {
        // Left arm is long and noisy, right arm is short: the merge should
        // not force a buffer on the right branch.
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(500.0)).expect("j");
        let heavy = b
            .add_sink(j, tech.wire(40_000.0), SinkSpec::new(20e-15, 1e-9, 0.8))
            .expect("heavy");
        let light = b
            .add_sink(j, tech.wire(300.0), SinkSpec::new(20e-15, 1e-9, 0.8))
            .expect("light");
        let t = b.build().expect("tree");
        let s = estimation(&t);
        let sol = avoid_noise(&t, &s, &lib()).expect("solve");
        assert!(sol.inserted() >= 1);
        // All buffers lie on the heavy path: check via the rebuilt tree —
        // the light sink's direct parent chain up to the junction holds no
        // buffers.
        let light_new = sol
            .tree
            .sinks()
            .iter()
            .copied()
            .find(|&sk| {
                let w = sol.tree.parent_wire(sk).expect("wire");
                (w.length - 300.0).abs() < 1.0
            })
            .expect("light sink in rebuilt tree");
        let mut v = light_new;
        let mut on_light_path = 0;
        while let Some(p) = sol.tree.parent(v) {
            if sol.assignment.buffer_at(v).is_some() {
                on_light_path += 1;
            }
            let w = sol.tree.parent_wire(v).expect("wire");
            if (w.length - 300.0).abs() >= 1.0 {
                break;
            }
            v = p;
        }
        assert_eq!(on_light_path, 0, "no buffer on the short quiet arm");
        let _ = (heavy, light);
        let after = audit::noise(&sol.tree, &sol.scenario, &lib(), &sol.assignment).expect("audit");
        assert!(!after.has_violation());
    }

    #[test]
    fn minimality_against_discrete_search_small_y() {
        use buffopt_tree::segment;
        let t = y_net(6_000.0, 4_500.0, 0.8);
        let s = estimation(&t);
        let sol = avoid_noise(&t, &s, &lib()).expect("solve");

        // Discrete search with ~1.5 mm sites — finer than the ~2.4 mm
        // noise-driven spacing of this technology.
        let seg = segment::segment_uniform(&t, 4).expect("segment");
        let s_seg = s.for_segmented(&seg);
        let sites: Vec<NodeId> = seg
            .tree
            .node_ids()
            .filter(|&v| seg.tree.node(v).kind.is_feasible_site())
            .collect();
        assert!(sites.len() <= 14);
        let mut best = usize::MAX;
        for mask in 0u32..(1 << sites.len()) {
            let pop = mask.count_ones() as usize;
            if pop >= best {
                continue;
            }
            let mut a = Assignment::empty(&seg.tree);
            for (i, &site) in sites.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    a.insert(site, BufferId::from_index(0));
                }
            }
            if !audit::noise(&seg.tree, &s_seg, &lib(), &a)
                .expect("audit")
                .has_violation()
            {
                best = pop;
            }
        }
        assert!(best < usize::MAX);
        assert!(
            sol.inserted() <= best,
            "continuous optimum {} vs discrete {}",
            sol.inserted(),
            best
        );
    }

    #[test]
    fn many_sink_star_is_fixed() {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let hub = b.add_internal(b.source(), tech.wire(5_000.0)).expect("hub");
        for i in 0..6 {
            b.add_sink(
                hub,
                tech.wire(3_000.0 + 1_000.0 * i as f64),
                SinkSpec::new(15e-15, 1e-9, 0.8),
            )
            .expect("sink");
        }
        let t = b.build().expect("tree");
        let s = estimation(&t);
        let sol = avoid_noise(&t, &s, &lib()).expect("solve");
        let after = audit::noise(&sol.tree, &sol.scenario, &lib(), &sol.assignment).expect("audit");
        assert!(!after.has_violation());
    }

    #[test]
    fn driver_violation_with_branching_source_is_fixed() {
        // Source with two direct branches and a huge driver: the merge at
        // the source must produce buffered candidates that rescue it.
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(30_000.0, 10e-12));
        for _ in 0..2 {
            b.add_sink(
                b.source(),
                tech.wire(2_000.0),
                SinkSpec::new(20e-15, 1e-9, 0.8),
            )
            .expect("sink");
        }
        let t = b.build().expect("tree");
        let s = estimation(&t);
        let before = NoiseReport::analyze(&t, &s);
        assert!(before.has_violation());
        let sol = avoid_noise(&t, &s, &lib()).expect("solve");
        let after = audit::noise(&sol.tree, &sol.scenario, &lib(), &sol.assignment).expect("audit");
        assert!(!after.has_violation());
    }

    #[test]
    fn merge_bifurcation_explores_both_branches() {
        // The paper's motivating scenario for candidates: the left branch
        // is more noise-tolerant (larger NS) but carries more current;
        // the right is the opposite. The merge must keep both buffer
        // alternatives, and the final answer must be discrete-optimal.
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(600.0)).expect("j");
        // Left: long wire (big current) into a high-margin sink.
        let left = b
            .add_sink(j, tech.wire(2_000.0), SinkSpec::new(20e-15, 1e-9, 1.0))
            .expect("left");
        // Right: short wire (small current) into a tight-margin sink.
        let right = b
            .add_sink(j, tech.wire(700.0), SinkSpec::new(20e-15, 1e-9, 0.35))
            .expect("right");
        let t = b.build().expect("tree");
        // Crank the coupling until the merge at j violates.
        let s = NoiseScenario::estimation(&t, 0.9, 14.0e9);
        let lib = lib();
        let i = crate::audit::buffered_currents(&t, &s, &Assignment::empty(&t));
        let ns = buffopt_noise::metric::noise_slack(&t, &s);
        // Confirm the scenario shape (left more current, left more slack).
        let i_l = s.wire_current(&t, left);
        let i_r = s.wire_current(&t, right);
        assert!(i_l > i_r);
        assert!(ns[left.index()] > ns[right.index()]);
        let _ = i;

        let sol = avoid_noise(&t, &s, &lib).expect("solvable");
        let after = audit::noise(&sol.tree, &sol.scenario, &lib, &sol.assignment).expect("audit");
        assert!(!after.has_violation());

        // Discrete lower bound: exhaustive over a fine segmentation must
        // not beat the continuous answer.
        use buffopt_tree::segment;
        let seg = segment::segment_uniform(&t, 4).expect("segment");
        let s_seg = s.for_segmented(&seg);
        let sites: Vec<NodeId> = seg
            .tree
            .node_ids()
            .filter(|&v| seg.tree.node(v).kind.is_feasible_site())
            .collect();
        let mut best = usize::MAX;
        for mask in 0u32..(1 << sites.len()) {
            let pop = mask.count_ones() as usize;
            if pop >= best {
                continue;
            }
            let mut a = Assignment::empty(&seg.tree);
            for (k, &site) in sites.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    a.insert(site, BufferId::from_index(0));
                }
            }
            if !audit::noise(&seg.tree, &s_seg, &lib, &a)
                .expect("audit")
                .has_violation()
            {
                best = pop;
            }
        }
        assert!(best < usize::MAX);
        assert!(
            sol.inserted() <= best,
            "continuous {} vs discrete {}",
            sol.inserted(),
            best
        );
    }

    #[test]
    fn noise_floor_is_the_placement_avoid_noise_rebuilds() {
        let tech = Technology::global_layer();
        let mut nets = vec![
            y_net(1000.0, 500.0, 0.8),
            y_net(10_000.0, 5_000.0, 0.8),
            y_net(30_000.0, 10_000.0, 0.8),
            y_net(2_000.0, 20_000.0, 0.6),
        ];
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let hub = b.add_internal(b.source(), tech.wire(5_000.0)).expect("hub");
        for i in 0..6 {
            b.add_sink(
                hub,
                tech.wire(3_000.0 + 4_000.0 * i as f64),
                SinkSpec::new(15e-15, 1e-9, 0.8),
            )
            .expect("sink");
        }
        nets.push(b.build().expect("star"));
        for t in &nets {
            let s = estimation(t);
            let mut ws = DpWorkspace::new();
            let floor =
                noise_floor_with(&mut ws, t, &s, &lib(), &RunBudget::default()).expect("floor");
            let sol = avoid_noise(t, &s, &lib()).expect("solve");
            assert_eq!(floor.buffers, sol.inserted());
            let audited = audit::delay(&sol.tree, &lib(), &sol.assignment)
                .expect("audit")
                .slack;
            assert!(
                (floor.slack - audited).abs() <= 1e-12 * audited.abs().max(1e-12),
                "{} buffers: floor slack {} vs audited {audited}",
                floor.buffers,
                floor.slack
            );
        }
    }

    #[test]
    fn prune_keeps_pareto_only() {
        let mk = |i: f64, ns: f64, n: usize| Cand {
            current: i,
            slack: ns,
            count: n,
            prov: NONE,
        };
        let mut v = vec![
            mk(1.0, 0.5, 1),
            mk(2.0, 0.4, 1), // dominated by the first
            mk(0.5, 0.3, 0), // incomparable (less current, less slack... ) — wait: 0.5<1.0 current, 0.3<0.5 slack, 0 count: incomparable with first on slack
            mk(1.0, 0.5, 2), // dominated by the first (same I/NS, more buffers)
        ];
        prune(&mut v);
        assert_eq!(v.len(), 2);
    }
}
