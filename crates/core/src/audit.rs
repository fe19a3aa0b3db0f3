//! Independent re-analysis of a buffered net.
//!
//! The dynamic programs carry incremental `(C, q, I, NS)` state; this
//! module recomputes delay and Devgan noise **from scratch** on the final
//! `(tree, assignment)` pair by splitting the net at its restoring stages.
//! Every optimizer in this crate is cross-checked against these audits in
//! the test-suite, and the experiment harnesses report audited numbers
//! only.
//!
//! Since the kernel refactor the audits are thin drivers of
//! `buffopt_analysis`: [`BufferedLoadMetric`] is the plain Elmore
//! [`Capacitance`] metric with buffer-boundary *cut points* (an inserted
//! buffer presents its input capacitance and adds its gate delay), and
//! [`BufferedCurrentMetric`] is the Devgan [`CouplingCurrent`] metric
//! whose cuts present zero current. The hand-rolled twin sweeps are gone;
//! [`buffopt_analysis::sweep_down_cut`] and the stage walk
//! [`buffopt_analysis::accumulate_from`] produce bitwise-identical
//! tables (proved by the differential suite). The `*_summary_with`
//! variants run entirely inside a pooled
//! [`AnalysisWorkspace`], so batch pipelines and server workers audit
//! without allocating.

use buffopt_analysis::AdditiveMetric;
use buffopt_analysis::{accumulate_from, sweep_down_cut, sweep_up, AnalysisWorkspace};
use buffopt_buffers::{BufferId, BufferLibrary};
use buffopt_noise::{CouplingCurrent, NoiseScenario};
use buffopt_tree::elmore::{self, Capacitance};
use buffopt_tree::{NodeId, RoutingTree};

use crate::assignment::Assignment;
use crate::error::CoreError;

/// The buffered-net load metric: [`Capacitance`] plus buffer-boundary cut
/// points. A node carrying an inserted buffer presents the buffer's input
/// capacitance to its parent wire ([`AdditiveMetric::cut`]) and adds the
/// buffer's load-dependent delay on the way down
/// ([`AdditiveMetric::gate_extra`]).
///
/// [`with_probe`](Self::with_probe) overlays one *trial* insertion
/// without touching the assignment — the incremental optimizer probes
/// candidate sites through this overlay.
#[derive(Debug, Clone, Copy)]
pub struct BufferedLoadMetric<'a> {
    base: Capacitance,
    lib: &'a BufferLibrary,
    assignment: &'a Assignment,
    probe: Option<(NodeId, BufferId)>,
}

impl<'a> BufferedLoadMetric<'a> {
    /// Wraps an assignment over `lib`.
    pub fn new(lib: &'a BufferLibrary, assignment: &'a Assignment) -> Self {
        BufferedLoadMetric {
            base: Capacitance,
            lib,
            assignment,
            probe: None,
        }
    }

    /// Returns a copy that additionally sees `buffer` inserted at `site`.
    pub fn with_probe(mut self, site: NodeId, buffer: BufferId) -> Self {
        self.probe = Some((site, buffer));
        self
    }

    /// The buffer visible at `v`, including the probe overlay.
    pub fn buffer_at(&self, v: NodeId) -> Option<BufferId> {
        if let Some((s, b)) = self.probe {
            if s == v {
                return Some(b);
            }
        }
        self.assignment.buffer_at(v)
    }
}

impl AdditiveMetric<RoutingTree> for BufferedLoadMetric<'_> {
    #[inline]
    fn node_injection(&self, t: &RoutingTree, v: u32) -> Option<f64> {
        self.base.node_injection(t, v)
    }

    #[inline]
    fn edge_quantity(&self, t: &RoutingTree, v: u32) -> f64 {
        self.base.edge_quantity(t, v)
    }

    #[inline]
    fn edge_resistance(&self, t: &RoutingTree, v: u32) -> f64 {
        self.base.edge_resistance(t, v)
    }

    #[inline]
    fn cut(&self, _t: &RoutingTree, v: u32) -> Option<f64> {
        self.buffer_at(NodeId::from_index(v as usize))
            .map(|b| self.lib.buffer(b).input_capacitance)
    }

    #[inline]
    fn gate_extra(&self, _t: &RoutingTree, v: u32, below: f64) -> Option<f64> {
        self.buffer_at(NodeId::from_index(v as usize))
            .map(|b| self.lib.buffer(b).delay(below))
    }

    #[inline]
    fn requirement(&self, t: &RoutingTree, v: u32) -> Option<f64> {
        self.base.requirement(t, v)
    }
}

/// The buffered-net current metric: [`CouplingCurrent`] plus buffer cut
/// points that present zero current (the buffer supplies its subtree's
/// coupling current itself, eq. 10).
#[derive(Debug, Clone, Copy)]
pub struct BufferedCurrentMetric<'a> {
    base: CouplingCurrent<'a>,
    assignment: &'a Assignment,
    probe: Option<NodeId>,
}

impl<'a> BufferedCurrentMetric<'a> {
    /// Wraps an assignment over `scenario`.
    pub fn new(scenario: &'a NoiseScenario, assignment: &'a Assignment) -> Self {
        BufferedCurrentMetric {
            base: CouplingCurrent::new(scenario),
            assignment,
            probe: None,
        }
    }

    /// Returns a copy that additionally sees a buffer inserted at `site`.
    pub fn with_probe(mut self, site: NodeId) -> Self {
        self.probe = Some(site);
        self
    }

    fn is_buffered(&self, v: NodeId) -> bool {
        self.probe == Some(v) || self.assignment.buffer_at(v).is_some()
    }
}

impl AdditiveMetric<RoutingTree> for BufferedCurrentMetric<'_> {
    #[inline]
    fn node_injection(&self, t: &RoutingTree, v: u32) -> Option<f64> {
        self.base.node_injection(t, v)
    }

    #[inline]
    fn edge_quantity(&self, t: &RoutingTree, v: u32) -> f64 {
        self.base.edge_quantity(t, v)
    }

    #[inline]
    fn edge_resistance(&self, t: &RoutingTree, v: u32) -> f64 {
        self.base.edge_resistance(t, v)
    }

    #[inline]
    fn cut(&self, _t: &RoutingTree, v: u32) -> Option<f64> {
        if self.is_buffered(NodeId::from_index(v as usize)) {
            Some(0.0)
        } else {
            None
        }
    }

    #[inline]
    fn requirement(&self, t: &RoutingTree, v: u32) -> Option<f64> {
        self.base.requirement(t, v)
    }
}

fn check_assignment(tree: &RoutingTree, assignment: &Assignment) -> Result<(), CoreError> {
    if assignment.len() == tree.len() {
        Ok(())
    } else {
        Err(CoreError::AssignmentMismatch {
            tree_len: tree.len(),
            assignment_len: assignment.len(),
        })
    }
}

fn check_scenario(tree: &RoutingTree, scenario: &NoiseScenario) -> Result<(), CoreError> {
    if scenario.len() == tree.len() {
        Ok(())
    } else {
        Err(CoreError::ScenarioMismatch {
            tree_len: tree.len(),
            scenario_len: scenario.len(),
        })
    }
}

/// Result of [`delay`]: Elmore timing of the buffered net.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayAudit {
    /// Arrival time at each node (at a buffered node: the buffer *output*).
    pub arrival: Vec<f64>,
    /// Per-sink `(sink, source-to-sink delay)`.
    pub sink_delays: Vec<(NodeId, f64)>,
    /// `min_sink (RAT − delay)`: the net meets timing iff non-negative.
    pub slack: f64,
}

impl DelayAudit {
    /// The largest source-to-sink delay.
    pub fn max_delay(&self) -> f64 {
        self.sink_delays
            .iter()
            .map(|&(_, d)| d)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// True if every sink meets its required arrival time.
    pub fn meets_timing(&self) -> bool {
        self.slack >= 0.0
    }
}

/// Scalar result of [`delay_summary_with`]: the audit numbers the batch
/// pipeline consumes, computed without materializing per-node tables for
/// the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySummary {
    /// `min_sink (RAT − delay)`.
    pub slack: f64,
    /// The largest source-to-sink delay.
    pub max_delay: f64,
}

impl DelaySummary {
    /// True if every sink meets its required arrival time.
    pub fn meets_timing(&self) -> bool {
        self.slack >= 0.0
    }
}

/// Downstream load at each node of the buffered tree, plus the load each
/// node *presents upstream* (its buffer's input capacitance when buffered).
///
/// Returns `(load_below, presented)` tables indexed by [`NodeId`]:
/// `load_below[v]` is what a gate at `v` would drive; `presented[v]` is
/// what the parent wire of `v` sees at its lower end.
pub fn buffered_loads(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> (Vec<f64>, Vec<f64>) {
    let m = BufferedLoadMetric::new(lib, assignment);
    let mut below = Vec::new();
    let mut presented = Vec::new();
    sweep_down_cut(tree, &m, &mut below, &mut presented);
    (below, presented)
}

/// The shared delay sweeps: cut-aware loads, then the arrival preorder.
fn delay_tables(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    assignment: &Assignment,
    below: &mut Vec<f64>,
    presented: &mut Vec<f64>,
    arrival: &mut Vec<f64>,
) -> Result<(), CoreError> {
    let m = BufferedLoadMetric::new(lib, assignment);
    sweep_down_cut(tree, &m, below, presented);
    let d = tree.driver();
    let root_term = elmore::gate_delay(
        d.intrinsic_delay,
        d.resistance,
        below[tree.source().index()],
    );
    sweep_up(tree, &m, below, presented, root_term, arrival)?;
    Ok(())
}

fn slack_over_sinks(tree: &RoutingTree, arrival: &[f64]) -> f64 {
    tree.sinks()
        .iter()
        .map(|&s| tree.sink_spec(s).expect("is sink").required_arrival_time - arrival[s.index()])
        .fold(f64::INFINITY, f64::min)
}

/// Recomputes Elmore delay of the buffered net (eq. 2–4 with buffers as
/// linear gates).
///
/// # Errors
///
/// Returns [`CoreError::AssignmentMismatch`] if `assignment` was built
/// for a different tree (the seed audit panicked here).
pub fn delay(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> Result<DelayAudit, CoreError> {
    check_assignment(tree, assignment)?;
    let mut below = Vec::new();
    let mut presented = Vec::new();
    let mut arrival = Vec::new();
    delay_tables(
        tree,
        lib,
        assignment,
        &mut below,
        &mut presented,
        &mut arrival,
    )?;
    let sink_delays: Vec<(NodeId, f64)> = tree
        .sinks()
        .iter()
        .map(|&s| (s, arrival[s.index()]))
        .collect();
    let slack = slack_over_sinks(tree, &arrival);
    Ok(DelayAudit {
        arrival,
        sink_delays,
        slack,
    })
}

/// Like [`delay`] but runs entirely inside the pooled workspace and
/// returns only the scalar summary — zero steady-state allocations.
pub fn delay_summary_with(
    ws: &mut AnalysisWorkspace,
    tree: &RoutingTree,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> Result<DelaySummary, CoreError> {
    check_assignment(tree, assignment)?;
    let AnalysisWorkspace {
        below,
        presented,
        up,
    } = ws;
    delay_tables(tree, lib, assignment, below, presented, up)?;
    let slack = slack_over_sinks(tree, up);
    let max_delay = tree
        .sinks()
        .iter()
        .map(|&s| up[s.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    Ok(DelaySummary { slack, max_delay })
}

/// One noise constraint checked by [`noise`]: either an original sink or
/// the input of an inserted buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseCheck {
    /// The node where noise is measured.
    pub node: NodeId,
    /// Devgan-metric noise propagated from the nearest upstream restoring
    /// gate (eq. 9).
    pub noise: f64,
    /// The margin the noise is checked against (sink `NM` or buffer `NM`).
    pub margin: f64,
    /// True when the check point is an inserted buffer's input.
    pub is_buffer_input: bool,
}

impl NoiseCheck {
    /// True if the noise exceeds the margin.
    ///
    /// A picovolt tolerance absorbs floating-point residue: optimal
    /// placements meet their constraint with exact equality (Theorem 1),
    /// and recomputing the same quantity along a different association
    /// order can land within ~1 ulp on either side.
    pub fn is_violation(&self) -> bool {
        self.noise > self.margin + 1e-12
    }
}

/// Result of [`noise`]: every noise constraint of the buffered net.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseAudit {
    /// All checked constraints (sinks and buffer inputs).
    pub checks: Vec<NoiseCheck>,
}

impl NoiseAudit {
    /// True if any constraint is violated.
    pub fn has_violation(&self) -> bool {
        self.checks.iter().any(NoiseCheck::is_violation)
    }

    /// Violated constraints.
    pub fn violations(&self) -> impl Iterator<Item = &NoiseCheck> {
        self.checks.iter().filter(|c| c.is_violation())
    }

    /// The smallest `margin − noise` across constraints (negative when
    /// violating), or `f64::INFINITY` if nothing was checked.
    pub fn worst_headroom(&self) -> f64 {
        self.checks
            .iter()
            .map(|c| c.margin - c.noise)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Scalar result of [`noise_summary_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSummary {
    /// The smallest `margin − noise` across constraints (negative when
    /// violating), or `f64::INFINITY` if nothing was checked.
    pub worst_headroom: f64,
    /// Number of violated constraints.
    pub violations: usize,
    /// Total constraints checked (sinks + buffer inputs).
    pub checks: usize,
}

impl NoiseSummary {
    /// True if any constraint is violated.
    pub fn has_violation(&self) -> bool {
        self.violations > 0
    }
}

/// Per-node downstream coupling currents of the buffered net:
/// `(below, reported)` where `below[v]` is the current a gate at `v` must
/// supply and `reported[v]` is what flows through the parent wire's lower
/// end (zero for buffered nodes, whose subtree current is supplied by the
/// buffer).
///
/// # Panics
///
/// Panics if the scenario was built for a different tree.
pub fn buffered_currents(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    assignment: &Assignment,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(scenario.len(), tree.len(), "scenario does not match tree");
    let m = BufferedCurrentMetric::new(scenario, assignment);
    let mut below = Vec::new();
    let mut reported = Vec::new();
    sweep_down_cut(tree, &m, &mut below, &mut reported);
    (below, reported)
}

/// Walks every restoring stage (the driver and each inserted buffer) and
/// emits the noise check at each stage end point, in stage order.
fn noise_checks(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    assignment: &Assignment,
    below: &[f64],
    reported: &[f64],
    mut emit: impl FnMut(NoiseCheck),
) -> Result<(), CoreError> {
    let m = BufferedCurrentMetric::new(scenario, assignment);
    // Every restoring gate starts a stage.
    let mut gates: Vec<(NodeId, f64)> = vec![(tree.source(), tree.driver().resistance)];
    for (v, b) in assignment.iter() {
        gates.push((v, lib.buffer(b).resistance));
    }
    for (root, gate_r) in gates {
        let gate_term = gate_r * below[root.index()];
        accumulate_from(
            tree,
            &m,
            reported,
            root.index() as u32,
            gate_term,
            |vu, acc| {
                let v = NodeId::from_index(vu as usize);
                if v == root {
                    return true;
                }
                if let Some(b) = assignment.buffer_at(v) {
                    emit(NoiseCheck {
                        node: v,
                        noise: acc,
                        margin: lib.buffer(b).noise_margin,
                        is_buffer_input: true,
                    });
                    // The buffer restores the signal; do not descend.
                    false
                } else if let Some(spec) = tree.sink_spec(v) {
                    emit(NoiseCheck {
                        node: v,
                        noise: acc,
                        margin: spec.noise_margin,
                        is_buffer_input: false,
                    });
                    false
                } else {
                    true
                }
            },
        )?;
    }
    Ok(())
}

/// Recomputes Devgan-metric noise on the buffered net by splitting it at
/// restoring stages (the driver and every inserted buffer) and applying
/// eq. 9 within each stage.
///
/// # Errors
///
/// Returns [`CoreError::AssignmentMismatch`] /
/// [`CoreError::ScenarioMismatch`] if `assignment` or `scenario` was
/// built for a different tree (the seed audit panicked on both).
pub fn noise(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> Result<NoiseAudit, CoreError> {
    check_assignment(tree, assignment)?;
    check_scenario(tree, scenario)?;
    let m = BufferedCurrentMetric::new(scenario, assignment);
    let mut below = Vec::new();
    let mut reported = Vec::new();
    sweep_down_cut(tree, &m, &mut below, &mut reported);
    let mut checks = Vec::new();
    noise_checks(tree, scenario, lib, assignment, &below, &reported, |c| {
        checks.push(c)
    })?;
    checks.sort_by_key(|c| c.node);
    Ok(NoiseAudit { checks })
}

/// Like [`noise`] but runs inside the pooled workspace and folds the
/// checks into a scalar summary instead of materializing them.
pub fn noise_summary_with(
    ws: &mut AnalysisWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> Result<NoiseSummary, CoreError> {
    check_assignment(tree, assignment)?;
    check_scenario(tree, scenario)?;
    let AnalysisWorkspace {
        below, presented, ..
    } = ws;
    let m = BufferedCurrentMetric::new(scenario, assignment);
    sweep_down_cut(tree, &m, below, presented);
    let mut summary = NoiseSummary {
        worst_headroom: f64::INFINITY,
        violations: 0,
        checks: 0,
    };
    noise_checks(tree, scenario, lib, assignment, below, presented, |c| {
        summary.checks += 1;
        summary.worst_headroom = summary.worst_headroom.min(c.margin - c.noise);
        if c.is_violation() {
            summary.violations += 1;
        }
    })?;
    Ok(summary)
}

/// Signal polarity at every node of a buffered net: `false` where the
/// signal equals the source polarity, `true` where it is complemented by
/// an odd number of inverting buffers on the path. Sinks must read
/// `false` for a polarity-legal solution (the Lillis inverting-buffer
/// rule).
pub fn signal_parity(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    assignment: &Assignment,
) -> Vec<bool> {
    let mut parity = vec![false; tree.len()];
    for v in tree.preorder() {
        let from_parent = tree.parent(v).is_some_and(|p| parity[p.index()]);
        let flips = assignment
            .buffer_at(v)
            .is_some_and(|b| lib.buffer(b).inverting);
        parity[v.index()] = from_parent ^ flips;
    }
    parity
}

/// True if every sink of the buffered net receives the true (non-
/// complemented) signal.
pub fn polarity_legal(tree: &RoutingTree, lib: &BufferLibrary, assignment: &Assignment) -> bool {
    let parity = signal_parity(tree, lib, assignment);
    tree.sinks().iter().all(|&s| !parity[s.index()])
}

/// A restoring stage of a buffered net: the gate that drives it and the
/// points where the stage ends (sinks and buffer inputs). Used by the
/// simulation referee to analyze each stage as an independent coupled
/// circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Node carrying the driving gate (the source or a buffered node).
    pub root: NodeId,
    /// Output resistance of the driving gate.
    pub gate_resistance: f64,
    /// Nodes belonging to the stage, excluding `root`, including boundary
    /// nodes.
    pub members: Vec<NodeId>,
    /// `(node, margin, extra load capacitance)` for each stage end point:
    /// sinks carry their pin capacitance, buffer inputs their `Cin`.
    pub ends: Vec<(NodeId, f64, f64)>,
}

/// Decomposes a buffered net into its restoring stages.
pub fn stages(tree: &RoutingTree, lib: &BufferLibrary, assignment: &Assignment) -> Vec<Stage> {
    let mut gates: Vec<(NodeId, f64)> = vec![(tree.source(), tree.driver().resistance)];
    for (v, b) in assignment.iter() {
        gates.push((v, lib.buffer(b).resistance));
    }
    gates
        .into_iter()
        .map(|(root, gate_resistance)| {
            let mut members = Vec::new();
            let mut ends = Vec::new();
            let mut stack: Vec<NodeId> = tree.children(root).to_vec();
            while let Some(v) = stack.pop() {
                members.push(v);
                if let Some(b) = assignment.buffer_at(v) {
                    let buf = lib.buffer(b);
                    ends.push((v, buf.noise_margin, buf.input_capacitance));
                } else if let Some(spec) = tree.sink_spec(v) {
                    ends.push((v, spec.noise_margin, spec.capacitance));
                } else {
                    stack.extend(tree.children(v).iter().copied());
                }
            }
            members.sort();
            ends.sort_by_key(|e| e.0);
            Stage {
                root,
                gate_resistance,
                members,
                ends,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_buffers::{BufferId, BufferType};
    use buffopt_tree::{slack, Driver, SinkSpec, TreeBuilder, Wire};

    fn lib1() -> BufferLibrary {
        BufferLibrary::single(BufferType::new("b", 10e-15, 200.0, 20e-12, 0.9))
    }

    /// source -(w)- m -(w)- sink, both wires identical.
    fn chain() -> (RoutingTree, NodeId) {
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let m = b
            .add_internal(b.source(), Wire::from_rc(400.0, 500e-15, 2000.0))
            .expect("m");
        b.add_sink(
            m,
            Wire::from_rc(400.0, 500e-15, 2000.0),
            SinkSpec::new(30e-15, 2e-9, 0.8),
        )
        .expect("s");
        (b.build().expect("tree"), m)
    }

    #[test]
    fn unbuffered_delay_matches_plain_elmore() {
        let (t, _) = chain();
        let audit = delay(&t, &lib1(), &Assignment::empty(&t)).expect("audit");
        let plain = elmore::arrival_times(&t);
        for v in t.node_ids() {
            assert!((audit.arrival[v.index()] - plain[v.index()]).abs() < 1e-21);
        }
        assert!((audit.slack - slack::source_slack(&t)).abs() < 1e-21);
    }

    #[test]
    fn buffer_decouples_downstream_load() {
        let (t, m) = chain();
        let lib = lib1();
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let (below, presented) = buffered_loads(&t, &lib, &a);
        // Upstream of m: source sees first wire + Cin only.
        assert!((presented[m.index()] - 10e-15).abs() < 1e-27);
        // The buffer itself drives the second wire + sink pin.
        assert!((below[m.index()] - 530e-15).abs() < 1e-27);
    }

    #[test]
    fn buffering_long_chain_reduces_delay() {
        let (t, m) = chain();
        let lib = lib1();
        let unbuffered = delay(&t, &lib, &Assignment::empty(&t)).expect("audit");
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let buffered = delay(&t, &lib, &a).expect("audit");
        assert!(
            buffered.max_delay() < unbuffered.max_delay(),
            "buffer splits a quadratic wire: {} !< {}",
            buffered.max_delay(),
            unbuffered.max_delay()
        );
    }

    #[test]
    fn delay_audit_by_hand_with_buffer() {
        let (t, m) = chain();
        let lib = lib1();
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let audit = delay(&t, &lib, &a).expect("audit");
        // Stage 1: driver drives w1 + Cin = 510 fF.
        let t_src = 10e-12 + 300.0 * 510e-15;
        let t_in_m = t_src + 400.0 * (250e-15 + 10e-15);
        // Buffer drives w2 + pin = 530 fF.
        let t_out_m = t_in_m + 20e-12 + 200.0 * 530e-15;
        let t_sink = t_out_m + 400.0 * (250e-15 + 30e-15);
        let sink = t.sinks()[0];
        assert!((audit.arrival[sink.index()] - t_sink).abs() < 1e-18);
    }

    #[test]
    fn mismatched_assignment_is_a_typed_error() {
        let (t, _) = chain();
        let mut bigger = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let m = bigger
            .add_internal(bigger.source(), Wire::from_rc(1.0, 1e-15, 10.0))
            .expect("m");
        let m2 = bigger
            .add_internal(m, Wire::from_rc(1.0, 1e-15, 10.0))
            .expect("m2");
        bigger
            .add_sink(
                m2,
                Wire::from_rc(1.0, 1e-15, 10.0),
                SinkSpec::new(1e-15, 1e-9, 0.8),
            )
            .expect("s");
        let big = bigger.build().expect("tree");
        let a = Assignment::empty(&big);
        let err = delay(&t, &lib1(), &a).unwrap_err();
        assert_eq!(
            err,
            CoreError::AssignmentMismatch {
                tree_len: t.len(),
                assignment_len: big.len(),
            }
        );
        let s = NoiseScenario::quiet(&t);
        assert!(matches!(
            noise(&t, &s, &lib1(), &a),
            Err(CoreError::AssignmentMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_scenario_is_a_typed_error() {
        let (t, _) = chain();
        let mut two = TreeBuilder::new(Driver::new(300.0, 10e-12));
        two.add_sink(
            two.source(),
            Wire::from_rc(1.0, 1e-15, 10.0),
            SinkSpec::new(1e-15, 1e-9, 0.8),
        )
        .expect("s");
        let small = two.build().expect("tree");
        let s = NoiseScenario::quiet(&small);
        let err = noise(&t, &s, &lib1(), &Assignment::empty(&t)).unwrap_err();
        assert!(matches!(err, CoreError::ScenarioMismatch { .. }));
    }

    #[test]
    fn summaries_match_full_audits() {
        let (t, m) = chain();
        let lib = lib1();
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let mut ws = AnalysisWorkspace::new();
        for buffered in [false, true] {
            let mut a = Assignment::empty(&t);
            if buffered {
                a.insert(m, BufferId::from_index(0));
            }
            let full_d = delay(&t, &lib, &a).expect("delay");
            let sum_d = delay_summary_with(&mut ws, &t, &lib, &a).expect("summary");
            assert_eq!(full_d.slack.to_bits(), sum_d.slack.to_bits());
            assert_eq!(full_d.max_delay().to_bits(), sum_d.max_delay.to_bits());
            let full_n = noise(&t, &s, &lib, &a).expect("noise");
            let sum_n = noise_summary_with(&mut ws, &t, &s, &lib, &a).expect("summary");
            assert_eq!(full_n.checks.len(), sum_n.checks);
            assert_eq!(
                full_n.worst_headroom().to_bits(),
                sum_n.worst_headroom.to_bits()
            );
            assert_eq!(full_n.violations().count(), sum_n.violations);
        }
    }

    #[test]
    fn noise_audit_unbuffered_matches_metric() {
        let (t, _) = chain();
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let audit = noise(&t, &s, &lib1(), &Assignment::empty(&t)).expect("audit");
        let metric = buffopt_noise::metric::sink_noise(&t, &s);
        assert_eq!(audit.checks.len(), 1);
        assert!((audit.checks[0].noise - metric[0].noise).abs() < 1e-15);
    }

    #[test]
    fn buffer_reduces_sink_noise_and_adds_a_check() {
        let (t, m) = chain();
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let lib = lib1();
        let before = noise(&t, &s, &lib, &Assignment::empty(&t)).expect("audit");
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let after = noise(&t, &s, &lib, &a).expect("audit");
        assert_eq!(after.checks.len(), 2);
        let buf_check = after
            .checks
            .iter()
            .find(|c| c.is_buffer_input)
            .expect("buffer check");
        let sink_check = after
            .checks
            .iter()
            .find(|c| !c.is_buffer_input)
            .expect("sink check");
        assert!(buf_check.noise < before.checks[0].noise);
        assert!(sink_check.noise < before.checks[0].noise);
    }

    #[test]
    fn buffered_noise_by_hand() {
        let (t, m) = chain();
        let lib = lib1();
        let mut scenario = NoiseScenario::quiet(&t);
        // Put coupling only on the lower wire: factor so I_w2 = 100 µA.
        scenario.set_factor(t.sinks()[0], 100e-6 / 500e-15);
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let audit = noise(&t, &scenario, &lib, &a).expect("audit");
        // Buffer input: upper wire quiet, no downstream current reported
        // (buffer decouples) ⇒ noise = Rso·0 + R_w1·(0 + 0) = 0.
        let buf_check = audit
            .checks
            .iter()
            .find(|c| c.is_buffer_input)
            .expect("buffer check");
        assert!(buf_check.noise.abs() < 1e-15);
        // Sink: gate term Rb·100µ = 20 mV, wire 400·(50µ + 0) = 20 mV.
        let sink_check = audit
            .checks
            .iter()
            .find(|c| !c.is_buffer_input)
            .expect("sink check");
        assert!((sink_check.noise - 40e-3).abs() < 1e-12);
    }

    #[test]
    fn stage_decomposition_counts() {
        let (t, m) = chain();
        let lib = lib1();
        let mut a = Assignment::empty(&t);
        a.insert(m, BufferId::from_index(0));
        let st = stages(&t, &lib, &a);
        assert_eq!(st.len(), 2);
        let drv_stage = st.iter().find(|s| s.root == t.source()).expect("driver");
        assert_eq!(drv_stage.ends.len(), 1);
        assert_eq!(drv_stage.ends[0].0, m);
        let buf_stage = st.iter().find(|s| s.root == m).expect("buffer");
        assert_eq!(buf_stage.ends[0].0, t.sinks()[0]);
        assert!((buf_stage.gate_resistance - 200.0).abs() < 1e-12);
    }

    #[test]
    fn worst_headroom_sign() {
        let (t, _) = chain();
        let s = NoiseScenario::estimation(&t, 0.7, 7.2e9);
        let audit = noise(&t, &s, &lib1(), &Assignment::empty(&t)).expect("audit");
        assert_eq!(audit.has_violation(), audit.worst_headroom() < 0.0);
    }
}
