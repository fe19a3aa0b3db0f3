//! Materializes mid-wire buffer insertions: rebuilds a routing tree with
//! new internal nodes at the chosen positions, carries the noise scenario
//! over, and produces the matching [`Assignment`].
//!
//! Algorithms 1 and 2 place buffers at *continuous* positions along wires
//! (the maximal distance of Theorem 1), so unlike the van Ginneken-style
//! DP they cannot simply mark existing nodes.

use buffopt_buffers::BufferId;
use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, NodeKind, RoutingTree, TreeBuilder, Wire};

use crate::assignment::Assignment;
use crate::error::CoreError;

/// A buffer placed on the parent wire of `wire` (a node of the *original*
/// tree), `dist_from_bottom` microns above that node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WireInsertion {
    /// Lower endpoint of the wire carrying the buffer.
    pub wire: NodeId,
    /// Distance (µm) of the buffer above the wire's lower endpoint; must
    /// lie in `[0, wire length]`.
    pub dist_from_bottom: f64,
    /// Which buffer to insert.
    pub buffer: BufferId,
}

/// The output of [`rebuild_with_insertions`].
#[derive(Debug, Clone)]
pub(crate) struct Rebuilt {
    /// The tree with insertion points materialized as internal nodes.
    pub tree: RoutingTree,
    /// The scenario carried over (pieces inherit their wire's factor).
    pub scenario: NoiseScenario,
    /// Buffers placed at the new nodes.
    pub assignment: Assignment,
    /// For each new-tree node, the original node it corresponds to
    /// (`None` for inserted buffer positions).
    #[allow(dead_code)] // kept for diagnostics and exercised by tests
    pub original: Vec<Option<NodeId>>,
}

/// The piece of `wire` from `from` to `to` µm above its lower end, as a
/// wire of its own: the one rule for cutting a wire at insertions, shared
/// by [`rebuild_with_insertions`] and Algorithm 2's placement slack.
/// Resistance, capacitance and length scale with the span. A lumped
/// (zero-length) wire has no positions along it, so it lies wholly above
/// the buffers on it: its `top` piece (the one reaching the wire's upper
/// end) is the whole wire and every other piece is empty.
pub(crate) fn wire_piece(wire: &Wire, from: f64, to: f64, top: bool) -> Wire {
    let span = (to - from).max(0.0);
    let share = if wire.length > 0.0 {
        span / wire.length
    } else if top {
        1.0
    } else {
        0.0
    };
    Wire {
        resistance: wire.resistance * share,
        capacitance: wire.capacitance * share,
        length: span,
    }
}

/// Rebuilds `tree` with the given insertions materialized.
///
/// Multiple insertions on one wire are allowed; insertions at equal
/// distances stack adjacently with zero-length wire between them.
pub(crate) fn rebuild_with_insertions(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    insertions: &[WireInsertion],
) -> Result<Rebuilt, CoreError> {
    if scenario.len() != tree.len() {
        return Err(CoreError::ScenarioMismatch {
            tree_len: tree.len(),
            scenario_len: scenario.len(),
        });
    }
    // Group insertions per wire, sorted by descending distance (top first —
    // we build downward from the parent).
    let mut per_wire: Vec<Vec<(f64, BufferId)>> = vec![Vec::new(); tree.len()];
    for ins in insertions {
        let w = tree
            .parent_wire(ins.wire)
            .ok_or(CoreError::NoiseUnfixable(ins.wire))?;
        debug_assert!(
            ins.dist_from_bottom >= -1e-9 && ins.dist_from_bottom <= w.length + 1e-9,
            "insertion distance {} outside wire of length {}",
            ins.dist_from_bottom,
            w.length
        );
        per_wire[ins.wire.index()].push((ins.dist_from_bottom.clamp(0.0, w.length), ins.buffer));
    }
    for list in &mut per_wire {
        list.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
    }

    let mut builder = TreeBuilder::new(*tree.driver());
    let mut new_of = vec![None::<NodeId>; tree.len()];
    new_of[tree.source().index()] = Some(builder.source());
    let mut original = vec![Some(tree.source())];
    let mut factors = vec![0.0];
    let mut pairs: Vec<(NodeId, BufferId)> = Vec::new();

    for v in tree.preorder() {
        if v == tree.source() {
            continue;
        }
        let parent = tree.parent(v).expect("non-source");
        let wire = *tree.parent_wire(v).expect("non-source");
        let factor = scenario.factor(v);
        let mut attach_to = new_of[parent.index()].expect("parent visited");
        let mut upper_bound = wire.length; // distance of the piece's top end
        let mut top = true;
        for &(dist, buffer) in &per_wire[v.index()] {
            let id = builder.add_internal(attach_to, wire_piece(&wire, dist, upper_bound, top))?;
            original.push(None);
            factors.push(factor);
            pairs.push((id, buffer));
            attach_to = id;
            upper_bound = dist;
            top = false;
        }
        let last = wire_piece(&wire, 0.0, upper_bound, top);
        let id = match &tree.node(v).kind {
            NodeKind::Sink(s) => builder.add_sink(attach_to, last, s.clone())?,
            NodeKind::Internal { feasible: true } => builder.add_internal(attach_to, last)?,
            NodeKind::Internal { feasible: false } => {
                builder.add_infeasible_internal(attach_to, last)?
            }
            NodeKind::Source(_) => unreachable!("single source"),
        };
        original.push(Some(v));
        factors.push(factor);
        new_of[v.index()] = Some(id);
    }

    let new_tree = builder.build()?;
    debug_assert_eq!(new_tree.len(), original.len());
    let mut new_scenario = NoiseScenario::quiet(&new_tree);
    for (i, f) in factors.iter().enumerate() {
        new_scenario.set_factor(NodeId::from_index(i), *f);
    }
    let assignment = Assignment::from_pairs(&new_tree, pairs);
    Ok(Rebuilt {
        tree: new_tree,
        scenario: new_scenario,
        assignment,
        original,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_tree::{Driver, SinkSpec};

    fn two_pin() -> (RoutingTree, NodeId) {
        let mut b = TreeBuilder::new(Driver::new(100.0, 0.0));
        let s = b
            .add_sink(
                b.source(),
                Wire::from_rc(500.0, 1000e-15, 2000.0),
                SinkSpec::new(10e-15, 1e-9, 0.8),
            )
            .expect("sink");
        (b.build().expect("tree"), s)
    }

    #[test]
    fn single_insertion_splits_wire() {
        let (t, s) = two_pin();
        let scen = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let r = rebuild_with_insertions(
            &t,
            &scen,
            &[WireInsertion {
                wire: s,
                dist_from_bottom: 500.0,
                buffer: BufferId::from_index(0),
            }],
        )
        .expect("rebuild");
        assert_eq!(r.tree.len(), 3);
        assert_eq!(r.assignment.count(), 1);
        // Totals preserved.
        assert!((r.tree.total_wire_length() - 2000.0).abs() < 1e-9);
        assert!((r.tree.total_capacitance() - t.total_capacitance()).abs() < 1e-27);
        // The buffer node sits 500 µm above the sink.
        let (buf_node, _) = r.assignment.iter().next().expect("one buffer");
        let sink = r.tree.sinks()[0];
        assert_eq!(r.tree.parent(sink), Some(buf_node));
        assert!((r.tree.parent_wire(sink).expect("wire").length - 500.0).abs() < 1e-9);
        assert!((r.tree.parent_wire(buf_node).expect("wire").length - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_insertions_order_top_down() {
        let (t, s) = two_pin();
        let scen = NoiseScenario::quiet(&t);
        let mk = |d: f64| WireInsertion {
            wire: s,
            dist_from_bottom: d,
            buffer: BufferId::from_index(0),
        };
        let r = rebuild_with_insertions(&t, &scen, &[mk(400.0), mk(1200.0), mk(1800.0)])
            .expect("rebuild");
        assert_eq!(r.assignment.count(), 3);
        // Walk down from source: wire lengths 200, 600, 800, 400.
        let mut v = r.tree.children(r.tree.source())[0];
        let mut lengths = vec![r.tree.parent_wire(v).expect("wire").length];
        while let Some(&c) = r.tree.children(v).first() {
            lengths.push(r.tree.parent_wire(c).expect("wire").length);
            v = c;
        }
        let want = [200.0, 600.0, 800.0, 400.0];
        assert_eq!(lengths.len(), want.len());
        for (got, want) in lengths.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lengths:?}");
        }
    }

    #[test]
    fn insertion_at_wire_top_gives_zero_upper_piece() {
        let (t, s) = two_pin();
        let scen = NoiseScenario::quiet(&t);
        let r = rebuild_with_insertions(
            &t,
            &scen,
            &[WireInsertion {
                wire: s,
                dist_from_bottom: 2000.0,
                buffer: BufferId::from_index(0),
            }],
        )
        .expect("rebuild");
        let (buf_node, _) = r.assignment.iter().next().expect("one buffer");
        assert!(r.tree.parent_wire(buf_node).expect("wire").length.abs() < 1e-9);
        assert_eq!(r.tree.parent(buf_node), Some(r.tree.source()));
    }

    #[test]
    fn scenario_factor_carries_to_pieces() {
        let (t, s) = two_pin();
        let scen = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let r = rebuild_with_insertions(
            &t,
            &scen,
            &[WireInsertion {
                wire: s,
                dist_from_bottom: 1000.0,
                buffer: BufferId::from_index(0),
            }],
        )
        .expect("rebuild");
        let total_before: f64 = t.node_ids().map(|v| scen.wire_current(&t, v)).sum();
        let total_after: f64 = r
            .tree
            .node_ids()
            .map(|v| r.scenario.wire_current(&r.tree, v))
            .sum();
        assert!((total_before - total_after).abs() < 1e-18);
    }

    /// A source-side lumped trunk (100 Ω, 0.2 pF, no length) above a hub.
    fn lumped_trunk(insert_on_trunk: bool) -> (RoutingTree, Vec<WireInsertion>) {
        let mut b = TreeBuilder::new(Driver::new(100.0, 0.0));
        let hub = b
            .add_internal(b.source(), Wire::from_rc(100.0, 0.2e-12, 0.0))
            .expect("hub");
        let s = b
            .add_sink(
                hub,
                Wire::from_rc(500.0, 1000e-15, 2000.0),
                SinkSpec::new(10e-15, 1e-9, 0.8),
            )
            .expect("sink");
        let mut ins = vec![WireInsertion {
            wire: s,
            dist_from_bottom: 500.0,
            buffer: BufferId::from_index(0),
        }];
        if insert_on_trunk {
            ins.push(WireInsertion {
                wire: hub,
                dist_from_bottom: 0.0,
                buffer: BufferId::from_index(0),
            });
        }
        (b.build().expect("tree"), ins)
    }

    #[test]
    fn lumped_wire_keeps_its_rc_above_the_buffers() {
        for on_trunk in [false, true] {
            let (t, ins) = lumped_trunk(on_trunk);
            let r = rebuild_with_insertions(&t, &NoiseScenario::quiet(&t), &ins).expect("rebuild");
            assert!(
                (r.tree.total_capacitance() - t.total_capacitance()).abs() < 1e-27,
                "wire capacitance {} vs {}",
                r.tree.total_capacitance(),
                t.total_capacitance()
            );
            // The whole lumped wire hangs off the source, above any buffer.
            let first = r.tree.children(r.tree.source())[0];
            let w = r.tree.parent_wire(first).expect("wire");
            assert_eq!((w.resistance, w.capacitance), (100.0, 0.2e-12));
        }
    }

    #[test]
    fn no_insertions_is_a_copy() {
        let (t, _) = two_pin();
        let scen = NoiseScenario::quiet(&t);
        let r = rebuild_with_insertions(&t, &scen, &[]).expect("rebuild");
        assert_eq!(r.tree.len(), t.len());
        assert!(r.assignment.is_unbuffered());
        assert_eq!(r.original, vec![Some(t.source()), Some(t.sinks()[0])]);
    }
}
