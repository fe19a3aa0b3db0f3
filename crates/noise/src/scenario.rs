use buffopt_tree::{segment::Segmented, NodeId, RoutingTree};

use crate::aggressor::Aggressor;

/// The coupling environment of a victim net: for every wire of a routing
/// tree, the combined current-per-farad factor `Σ_j λ_j · µ_j` (V/s) of the
/// aggressors coupled to it.
///
/// Wires are addressed by the [`NodeId`] of their lower endpoint, exactly
/// like in [`buffopt_tree`]. Because the factor is *per farad of wire
/// capacitance*, it is invariant under wire segmenting: each piece of a
/// split wire inherits the same factor and the injected currents scale with
/// the pieces' capacitances automatically.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseScenario {
    /// `factors[v]` is the Σ λµ factor for the parent wire of node `v`
    /// (the entry for the source is unused and zero).
    factors: Vec<f64>,
}

impl NoiseScenario {
    /// A quiet environment: no aggressors anywhere.
    pub fn quiet(tree: &RoutingTree) -> Self {
        NoiseScenario {
            factors: vec![0.0; tree.len()],
        }
    }

    /// The paper's *estimation mode* (Section II-B): every wire of the tree
    /// is coupled to a single aggressor with coupling ratio
    /// `coupling_ratio` (λ) and slope `slope` (µ, V/s). Used when buffer
    /// insertion runs before routing, so real neighbours are unknown.
    pub fn estimation(tree: &RoutingTree, coupling_ratio: f64, slope: f64) -> Self {
        let a = Aggressor::new(coupling_ratio, slope);
        NoiseScenario {
            factors: vec![a.factor(); tree.len()],
        }
    }

    /// Builds a scenario wire-by-wire from explicit aggressor lists:
    /// `per_wire[i] = (node, aggressors coupled to that node's parent
    /// wire)`. Wires not mentioned are quiet.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range for `tree`.
    pub fn from_aggressors<I>(tree: &RoutingTree, per_wire: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Vec<Aggressor>)>,
    {
        let mut s = NoiseScenario::quiet(tree);
        for (v, aggs) in per_wire {
            assert!(v.index() < s.factors.len(), "node {v} out of range");
            s.factors[v.index()] = aggs.iter().map(Aggressor::factor).sum();
        }
        s
    }

    /// The Σ λµ factor (V/s) of the parent wire of `v`.
    #[inline]
    pub fn factor(&self, v: NodeId) -> f64 {
        self.factors[v.index()]
    }

    /// Overwrites the factor of the parent wire of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `factor` is negative/non-finite.
    pub fn set_factor(&mut self, v: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "coupling factor must be finite and non-negative, got {factor}"
        );
        self.factors[v.index()] = factor;
    }

    /// Number of per-wire entries (equals the node count of the matching
    /// tree).
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// True if the scenario covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The injected current `I_w` (amperes, eq. 6) of the parent wire of
    /// `v` in `tree`: `factor(v) · C_w`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario was built for a different tree (length
    /// mismatch).
    pub fn wire_current(&self, tree: &RoutingTree, v: NodeId) -> f64 {
        assert_eq!(
            self.factors.len(),
            tree.len(),
            "scenario does not match tree"
        );
        self.wire_current_unguarded(tree, v)
    }

    /// [`wire_current`](Self::wire_current) without the per-call length
    /// guard, for kernel metric instances that validate the scenario once
    /// up front and then query every wire of the tree.
    #[inline]
    pub(crate) fn wire_current_unguarded(&self, tree: &RoutingTree, v: NodeId) -> f64 {
        match tree.parent_wire(v) {
            Some(w) => self.factors[v.index()] * w.capacitance,
            None => 0.0,
        }
    }

    /// Injected current per micron (A/µm) of the parent wire of `v`, used
    /// by the Theorem 1 length bound. Zero for zero-length wires.
    pub fn current_per_micron(&self, tree: &RoutingTree, v: NodeId) -> f64 {
        match tree.parent_wire(v) {
            Some(w) if w.length > 0.0 => self.factors[v.index()] * w.capacitance / w.length,
            _ => 0.0,
        }
    }

    /// Transfers the scenario onto a segmented version of its tree: every
    /// piece of a split wire inherits the original wire's factor.
    ///
    /// # Panics
    ///
    /// Panics if `seg` was not produced from the tree this scenario was
    /// built for (detected via index ranges).
    pub fn for_segmented(&self, seg: &Segmented) -> NoiseScenario {
        let tree = &seg.tree;
        let mut factors = vec![0.0; tree.len()];
        for v in tree.node_ids() {
            if tree.parent(v).is_none() {
                continue;
            }
            // Find the original node whose wire this piece came from: walk
            // down single-child chains until a mapped node appears.
            let mut cur = v;
            let orig = loop {
                if let Some(o) = seg.original[cur.index()] {
                    break o;
                }
                let children = tree.children(cur);
                assert_eq!(
                    children.len(),
                    1,
                    "segmenting nodes always lie on single-child chains"
                );
                cur = children[0];
            };
            factors[v.index()] = self.factors[orig.index()];
        }
        NoiseScenario { factors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_tree::{segment, Driver, SinkSpec, TreeBuilder, Wire};

    fn two_pin(len: f64) -> RoutingTree {
        let mut b = TreeBuilder::new(Driver::new(100.0, 0.0));
        b.add_sink(
            b.source(),
            Wire::from_rc(0.1 * len, 0.2e-15 * len, len),
            SinkSpec::new(10e-15, 1e-9, 0.8),
        )
        .expect("sink");
        b.build().expect("tree")
    }

    #[test]
    fn quiet_has_zero_currents() {
        let t = two_pin(1000.0);
        let s = NoiseScenario::quiet(&t);
        for v in t.node_ids() {
            assert_eq!(s.wire_current(&t, v), 0.0);
        }
    }

    #[test]
    fn estimation_mode_current_matches_eq6() {
        let t = two_pin(1000.0);
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let sink = t.sinks()[0];
        let cw = t.parent_wire(sink).expect("wire").capacitance;
        let expect = 0.7 * 7.2e9 * cw;
        assert!((s.wire_current(&t, sink) - expect).abs() < 1e-18);
    }

    #[test]
    fn multiple_aggressors_sum() {
        let t = two_pin(1000.0);
        let sink = t.sinks()[0];
        let s = NoiseScenario::from_aggressors(
            &t,
            [(
                sink,
                vec![Aggressor::new(0.3, 2.0e9), Aggressor::new(0.4, 5.0e9)],
            )],
        );
        assert!((s.factor(sink) - (0.3 * 2.0e9 + 0.4 * 5.0e9)).abs() < 1.0);
    }

    #[test]
    fn current_per_micron_times_length_is_wire_current() {
        let t = two_pin(1234.0);
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let sink = t.sinks()[0];
        let i_per = s.current_per_micron(&t, sink);
        let total = s.wire_current(&t, sink);
        assert!((i_per * 1234.0 - total).abs() < 1e-18);
    }

    #[test]
    fn source_has_no_current() {
        let t = two_pin(100.0);
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        assert_eq!(s.wire_current(&t, t.source()), 0.0);
    }

    #[test]
    fn segmentation_preserves_total_wire_current() {
        let t = two_pin(4000.0);
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let total_before: f64 = t.node_ids().map(|v| s.wire_current(&t, v)).sum();
        let seg = segment::segment_wires(&t, 500.0).expect("segment");
        let s2 = s.for_segmented(&seg);
        let total_after: f64 = seg
            .tree
            .node_ids()
            .map(|v| s2.wire_current(&seg.tree, v))
            .sum();
        assert!((total_before - total_after).abs() < 1e-18);
    }

    #[test]
    fn segmentation_inherits_per_wire_factor() {
        // Give only one of two branch wires an aggressor and check that the
        // pieces of the other branch stay quiet.
        let mut b = TreeBuilder::new(Driver::new(100.0, 0.0));
        let a = b
            .add_internal(b.source(), Wire::from_rc(10.0, 20e-15, 100.0))
            .expect("a");
        let noisy = b
            .add_sink(
                a,
                Wire::from_rc(100.0, 200e-15, 1000.0),
                SinkSpec::new(1e-15, 1e-9, 0.8),
            )
            .expect("noisy");
        let quiet = b
            .add_sink(
                a,
                Wire::from_rc(100.0, 200e-15, 1000.0),
                SinkSpec::new(1e-15, 1e-9, 0.8),
            )
            .expect("quiet");
        let t = b.build().expect("tree");
        let s = NoiseScenario::from_aggressors(&t, [(noisy, vec![Aggressor::new(0.7, 7.2e9)])]);
        let seg = segment::segment_wires(&t, 250.0).expect("segment");
        let s2 = s.for_segmented(&seg);
        let new_noisy = seg.tree.sinks()[0];
        let new_quiet = seg.tree.sinks()[1];
        assert_eq!(seg.original[new_noisy.index()], Some(noisy));
        assert_eq!(seg.original[new_quiet.index()], Some(quiet));
        assert!(s2.wire_current(&seg.tree, new_noisy) > 0.0);
        assert_eq!(s2.wire_current(&seg.tree, new_quiet), 0.0);
        // The chain above the noisy sink is noisy too.
        let p = seg.tree.parent(new_noisy).expect("parent");
        if seg.original[p.index()].is_none() {
            assert!(s2.wire_current(&seg.tree, p) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "does not match tree")]
    fn mismatched_tree_panics() {
        let t1 = two_pin(100.0);
        let t2 = two_pin(4000.0);
        let seg = segment::segment_wires(&t2, 100.0).expect("segment");
        let s = NoiseScenario::quiet(&t1);
        let _ = s.wire_current(&seg.tree, seg.tree.sinks()[0]);
    }
}
