//! Simultaneous buffer insertion and **wire sizing** — the Lillis/Cheng/
//! Lin extension (paper reference \[18\]) that the paper's introduction
//! singles out: each wire may be widened, trading load capacitance for
//! resistance, while buffers are inserted by the same dynamic program.
//!
//! Electrical model for a width multiplier `w`:
//! `R' = R/w`, `C' = C·(α + (1−α)·w)` where `α` is the *fringe fraction*
//! of the wire capacitance (the part that does not grow with width).
//! Widening pays exactly because of `α > 0`: resistance falls faster than
//! capacitance grows. The per-farad coupling factor is kept, so injected
//! current scales with the capacitance — conservative for noise, since in
//! reality widening mostly adds *ground* capacitance.
//!
//! The DP carries the same `(C, q, I, NS)` state as [`crate::buffopt`]
//! plus two persistent sets (buffers and width choices); candidates are
//! pruned pairwise on all tracked dimensions.

use buffopt_buffers::{BufferId, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, RoutingTree, Wire};

use crate::assignment::Assignment;
use crate::candidate::PSet;
use crate::climb::NOISE_TOL;
use crate::error::CoreError;

/// Options for [`optimize`].
#[derive(Debug, Clone)]
pub struct WireSizeOptions {
    /// Width multipliers every wire may choose from; must be non-empty
    /// and positive. `vec![1.0]` reduces to plain buffer insertion.
    pub widths: Vec<f64>,
    /// Enforce noise constraints.
    pub noise: bool,
    /// Hard cap on inserted buffers.
    pub max_buffers: Option<usize>,
    /// Fraction of wire capacitance that is fringe (width-independent),
    /// in `[0, 1)`. Typical deep-submicron values are 0.4–0.7.
    pub fringe_fraction: f64,
}

impl Default for WireSizeOptions {
    fn default() -> Self {
        WireSizeOptions {
            widths: vec![1.0, 2.0, 4.0],
            noise: true,
            max_buffers: None,
            fringe_fraction: 0.6,
        }
    }
}

/// Capacitance multiplier for width `w` under fringe fraction `alpha`.
#[inline]
fn cap_multiplier(alpha: f64, w: f64) -> f64 {
    alpha + (1.0 - alpha) * w
}

/// A solution with buffer placements and per-wire width choices.
#[derive(Debug, Clone)]
pub struct SizedSolution {
    /// Buffer placements.
    pub assignment: Assignment,
    /// Width multiplier of each node's parent wire (1.0 where unsized,
    /// including the source entry).
    pub widths: Vec<f64>,
    /// The fringe fraction the widths were optimized under.
    pub fringe_fraction: f64,
    /// Source timing slack including the driver gate delay.
    pub slack: f64,
    /// Number of inserted buffers.
    pub buffers: usize,
}

impl SizedSolution {
    /// The input tree with the chosen widths applied, ready for the
    /// standard audits.
    pub fn apply_widths(&self, tree: &RoutingTree) -> RoutingTree {
        resize_tree(tree, &self.widths, self.fringe_fraction)
    }
}

/// Returns a copy of `tree` with each node's parent wire resized by the
/// corresponding multiplier under fringe fraction `alpha`.
///
/// # Panics
///
/// Panics if `widths` does not match the tree, contains a non-positive
/// value, or `alpha` is outside `[0, 1)`.
pub fn resize_tree(tree: &RoutingTree, widths: &[f64], alpha: f64) -> RoutingTree {
    assert_eq!(widths.len(), tree.len(), "width table does not match tree");
    assert!((0.0..1.0).contains(&alpha), "fringe fraction in [0, 1)");
    let mut builder = buffopt_tree::TreeBuilder::new(*tree.driver());
    let mut new_of = vec![None; tree.len()];
    new_of[tree.source().index()] = Some(builder.source());
    for v in tree.preorder() {
        if v == tree.source() {
            continue;
        }
        let p = tree.parent(v).expect("non-source");
        let w = tree.parent_wire(v).expect("non-source");
        let mult = widths[v.index()];
        assert!(mult > 0.0, "width multiplier must be positive");
        let wire = Wire {
            resistance: w.resistance / mult,
            capacitance: w.capacitance * cap_multiplier(alpha, mult),
            length: w.length,
        };
        let parent_id = new_of[p.index()].expect("preorder");
        let id = match &tree.node(v).kind {
            buffopt_tree::NodeKind::Sink(s) => builder
                .add_sink(parent_id, wire, s.clone())
                .expect("same topology"),
            buffopt_tree::NodeKind::Internal { feasible: true } => builder
                .add_internal(parent_id, wire)
                .expect("same topology"),
            buffopt_tree::NodeKind::Internal { feasible: false } => builder
                .add_infeasible_internal(parent_id, wire)
                .expect("same topology"),
            buffopt_tree::NodeKind::Source(_) => unreachable!("single source"),
        };
        new_of[v.index()] = Some(id);
    }
    builder.build().expect("same sink set")
}

#[derive(Debug, Clone)]
struct Cand {
    cap: f64,
    q: f64,
    cur: f64,
    ns: f64,
    count: usize,
    buffers: PSet<(NodeId, BufferId)>,
    widths: PSet<(NodeId, f64)>,
}

fn prune(cands: &mut Vec<Cand>, noise: bool) {
    let mut keep: Vec<Cand> = Vec::with_capacity(cands.len());
    'outer: for c in cands.drain(..) {
        let mut i = 0;
        while i < keep.len() {
            let k = &keep[i];
            let k_dom = k.cap <= c.cap
                && k.q >= c.q
                && (!noise || (k.cur <= c.cur && k.ns >= c.ns))
                && k.count <= c.count;
            if k_dom {
                continue 'outer;
            }
            let c_dom = c.cap <= k.cap
                && c.q >= k.q
                && (!noise || (c.cur <= k.cur && c.ns >= k.ns))
                && c.count <= k.count;
            if c_dom {
                keep.swap_remove(i);
            } else {
                i += 1;
            }
        }
        keep.push(c);
    }
    *cands = keep;
}

/// Simultaneous buffer insertion and wire sizing: maximizes the source
/// timing slack over all width/buffer combinations, subject to the noise
/// constraints when `options.noise` is set.
///
/// # Errors
///
/// * [`CoreError::EmptyLibrary`] — no buffer types;
/// * [`CoreError::ScenarioMismatch`] — scenario built for another tree;
/// * [`CoreError::NoFeasibleCandidate`] — no combination satisfies the
///   constraints.
///
/// # Panics
///
/// Panics if `options.widths` is empty or contains non-positive values.
pub fn optimize(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &WireSizeOptions,
) -> Result<SizedSolution, CoreError> {
    assert!(
        !options.widths.is_empty() && options.widths.iter().all(|&w| w > 0.0),
        "widths must be non-empty and positive"
    );
    assert!(
        (0.0..1.0).contains(&options.fringe_fraction),
        "fringe fraction in [0, 1)"
    );
    if lib.is_empty() {
        return Err(CoreError::EmptyLibrary);
    }
    if scenario.len() != tree.len() {
        return Err(CoreError::ScenarioMismatch {
            tree_len: tree.len(),
            scenario_len: scenario.len(),
        });
    }

    let mut lists: Vec<Option<Vec<Cand>>> = vec![None; tree.len()];
    for v in tree.postorder() {
        let mut cands: Vec<Cand> = if let Some(spec) = tree.sink_spec(v) {
            vec![Cand {
                cap: spec.capacitance,
                q: spec.required_arrival_time,
                cur: 0.0,
                ns: spec.noise_margin,
                count: 0,
                buffers: PSet::empty(),
                widths: PSet::empty(),
            }]
        } else {
            let mut climbed: Vec<Vec<Cand>> = Vec::new();
            for &c in tree.children(v) {
                let wire = tree.parent_wire(c).expect("child has wire");
                let factor = scenario.factor(c);
                let list = lists[c.index()].take().expect("postorder");
                let mut adjusted = Vec::with_capacity(list.len() * options.widths.len());
                for cand in &list {
                    for &mult in &options.widths {
                        let r = wire.resistance / mult;
                        let cw = wire.capacitance * cap_multiplier(options.fringe_fraction, mult);
                        let iw = factor * cw;
                        let next = Cand {
                            cap: cand.cap + cw,
                            q: cand.q - r * (cw / 2.0 + cand.cap),
                            cur: cand.cur + iw,
                            ns: cand.ns - r * (iw / 2.0 + cand.cur),
                            count: cand.count,
                            buffers: cand.buffers.clone(),
                            widths: cand.widths.insert((c, mult)),
                        };
                        if options.noise && next.ns < -NOISE_TOL {
                            continue;
                        }
                        adjusted.push(next);
                    }
                }
                if adjusted.is_empty() {
                    return Err(CoreError::NoFeasibleCandidate);
                }
                prune(&mut adjusted, options.noise);
                climbed.push(adjusted);
            }
            match climbed.len() {
                1 => climbed.pop().expect("one child"),
                2 => {
                    let right = climbed.pop().expect("two");
                    let left = climbed.pop().expect("two");
                    let mut merged = Vec::with_capacity(left.len() * right.len());
                    for a in &left {
                        for b in &right {
                            let count = a.count + b.count;
                            if let Some(max) = options.max_buffers {
                                if count > max {
                                    continue;
                                }
                            }
                            merged.push(Cand {
                                cap: a.cap + b.cap,
                                q: a.q.min(b.q),
                                cur: a.cur + b.cur,
                                ns: a.ns.min(b.ns),
                                count,
                                buffers: a.buffers.join(&b.buffers),
                                widths: a.widths.join(&b.widths),
                            });
                        }
                    }
                    if merged.is_empty() {
                        return Err(CoreError::NoFeasibleCandidate);
                    }
                    merged
                }
                _ => unreachable!("binary trees"),
            }
        };
        if tree.node(v).kind.is_feasible_site() {
            let mut fresh = Vec::new();
            for (bid, buf) in lib.entries() {
                for c in &cands {
                    if let Some(max) = options.max_buffers {
                        if c.count + 1 > max {
                            continue;
                        }
                    }
                    if options.noise && buf.resistance * c.cur > c.ns + NOISE_TOL {
                        continue;
                    }
                    fresh.push(Cand {
                        cap: buf.input_capacitance,
                        q: c.q - buf.delay(c.cap),
                        cur: 0.0,
                        ns: buf.noise_margin,
                        count: c.count + 1,
                        buffers: c.buffers.insert((v, bid)),
                        widths: c.widths.clone(),
                    });
                }
            }
            cands.extend(fresh);
        }
        prune(&mut cands, options.noise);
        lists[v.index()] = Some(cands);
    }

    let d = tree.driver();
    let source = lists[tree.source().index()].take().expect("source");
    let best = source
        .into_iter()
        .filter(|c| !options.noise || d.resistance * c.cur <= c.ns + NOISE_TOL)
        .map(|c| {
            let slack = c.q - (d.intrinsic_delay + d.resistance * c.cap);
            (slack, c)
        })
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite slack"))
        .ok_or(CoreError::NoFeasibleCandidate)?;
    let (slack, cand) = best;
    let mut widths = vec![1.0; tree.len()];
    for (node, mult) in cand.widths.to_vec() {
        widths[node.index()] = mult;
    }
    Ok(SizedSolution {
        assignment: Assignment::from_pairs(tree, cand.buffers.to_vec()),
        widths,
        fringe_fraction: options.fringe_fraction,
        slack,
        buffers: cand.count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use crate::buffopt::{self as algo3, BuffOptOptions};
    use buffopt_buffers::catalog;
    use buffopt_tree::{segment, Driver, SinkSpec, Technology, TreeBuilder};

    fn net(len: f64, pieces: usize) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(
            b.source(),
            tech.wire(len),
            SinkSpec::new(20e-15, 1.5e-9, 0.8),
        )
        .expect("sink");
        segment::segment_uniform(&b.build().expect("tree"), pieces)
            .expect("segment")
            .tree
    }

    fn estimation(t: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(t, 0.7, 7.2e9)
    }

    #[test]
    fn unit_width_matches_plain_buffopt() {
        let t = net(12_000.0, 10);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let plain = algo3::solve(
            &mut crate::DpWorkspace::new(),
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions::default(),
        )
        .expect("plain")
        .max_slack();
        let sized = optimize(
            &t,
            &s,
            &lib,
            &WireSizeOptions {
                widths: vec![1.0],
                ..WireSizeOptions::default()
            },
        )
        .expect("sized");
        assert!(
            (plain.slack - sized.slack).abs() < 1e-13,
            "width=1 must reduce to plain insertion: {} vs {}",
            plain.slack,
            sized.slack
        );
    }

    #[test]
    fn wider_wires_never_hurt() {
        let t = net(12_000.0, 10);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let narrow = optimize(
            &t,
            &s,
            &lib,
            &WireSizeOptions {
                widths: vec![1.0],
                ..WireSizeOptions::default()
            },
        )
        .expect("narrow");
        let wide = optimize(&t, &s, &lib, &WireSizeOptions::default()).expect("wide");
        assert!(wide.slack >= narrow.slack - 1e-15);
    }

    #[test]
    fn sized_solution_audits_clean_on_resized_tree() {
        let t = net(15_000.0, 12);
        let s0 = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = optimize(&t, &s0, &lib, &WireSizeOptions::default()).expect("sized");
        let resized = sol.apply_widths(&t);
        // The coupling factor is per farad, so the same scenario values
        // apply to the resized tree (node order is preserved).
        let mut s1 = NoiseScenario::quiet(&resized);
        for v in resized.node_ids() {
            s1.set_factor(v, s0.factor(v));
        }
        let d = audit::delay(&resized, &lib, &sol.assignment).expect("audit");
        assert!(
            (d.slack - sol.slack).abs() < 1e-13,
            "audited {} vs DP {}",
            d.slack,
            sol.slack
        );
        let n = audit::noise(&resized, &s1, &lib, &sol.assignment).expect("audit");
        assert!(!n.has_violation(), "worst {}", n.worst_headroom());
    }

    #[test]
    fn resize_preserves_length_and_scales_rc() {
        let t = net(6_000.0, 3);
        let mut widths = vec![1.0; t.len()];
        let sink = t.sinks()[0];
        widths[sink.index()] = 2.0;
        let r = resize_tree(&t, &widths, 0.5);
        assert!((r.total_wire_length() - t.total_wire_length()).abs() < 1e-9);
        let w_old = t.parent_wire(sink).expect("wire");
        let w_new = r.parent_wire(r.sinks()[0]).expect("wire");
        assert!((w_new.resistance - w_old.resistance / 2.0).abs() < 1e-12);
        // C multiplier at w=2, alpha=0.5: 0.5 + 0.5*2 = 1.5.
        assert!((w_new.capacitance - w_old.capacitance * 1.5).abs() < 1e-27);
    }

    #[test]
    fn sizing_can_reduce_buffer_count() {
        // On a resistance-dominated net, widening trades buffers away.
        let tech = Technology::local_layer(); // 0.8 Ω/µm: resistive
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(
            b.source(),
            tech.wire(6_000.0),
            SinkSpec::new(20e-15, 2e-9, 0.8),
        )
        .expect("sink");
        let t = segment::segment_uniform(&b.build().expect("tree"), 8)
            .expect("segment")
            .tree;
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let narrow = optimize(
            &t,
            &s,
            &lib,
            &WireSizeOptions {
                widths: vec![1.0],
                ..WireSizeOptions::default()
            },
        )
        .expect("narrow");
        let wide = optimize(
            &t,
            &s,
            &lib,
            &WireSizeOptions {
                widths: vec![1.0, 3.0],
                ..WireSizeOptions::default()
            },
        )
        .expect("wide");
        assert!(wide.slack >= narrow.slack);
        assert!(
            wide.widths.iter().any(|&w| w > 1.0),
            "the resistive net should use wide wires"
        );
    }

    #[test]
    fn branching_net_sizes_each_branch_independently() {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(3_000.0)).expect("j");
        b.add_sink(j, tech.wire(8_000.0), SinkSpec::new(20e-15, 1.0e-9, 0.8))
            .expect("critical");
        b.add_sink(j, tech.wire(1_000.0), SinkSpec::new(10e-15, 5e-9, 0.8))
            .expect("relaxed");
        let t = segment::segment_uniform(&b.build().expect("tree"), 3)
            .expect("segment")
            .tree;
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = optimize(&t, &s, &lib, &WireSizeOptions::default()).expect("sized");
        let resized = sol.apply_widths(&t);
        let d = audit::delay(&resized, &lib, &sol.assignment).expect("audit");
        assert!((d.slack - sol.slack).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "widths must be non-empty")]
    fn empty_widths_panics() {
        let t = net(1_000.0, 2);
        let s = estimation(&t);
        let _ = optimize(
            &t,
            &s,
            &catalog::ibm_like(),
            &WireSizeOptions {
                widths: vec![],
                ..WireSizeOptions::default()
            },
        );
    }
}
