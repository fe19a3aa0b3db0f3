//! The seed (pre-arena) van Ginneken engine, kept verbatim as the
//! differential tests' reference (`crate::difftest`).
//!
//! This is the implementation `crate::dp` shipped with before the
//! arena-backed rewrite: every candidate carries its partial solution as a
//! persistent `PSet` (`Arc` DAG), `merge` materializes the full |L|·|R|
//! cross product, and pruning runs after the fact. It is compiled only for
//! tests, so every other build carries exactly one engine.
//!
//! The single deliberate difference from the seed: the pairwise
//! (conservative / cost-aware) prune uses `Vec::remove` instead of
//! `Vec::swap_remove`, so survivors come out in generation order. The
//! surviving *set* is identical — `swap_remove` only scrambled the order —
//! and generation order is what the arena engine's index-based prune
//! emits, which lets the differential tests compare candidate lists
//! positionally instead of as multisets.
//!
//! [`run`] speaks the arena engine's own types ([`dp::DpConfig`],
//! [`dp::SourceCand`], [`dp::DpStats`]), so a test drives both engines
//! with one configuration and compares their outputs field by field.

use buffopt_buffers::{BufferId, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, RoutingTree, Wire};

use crate::budget::RunBudget;
use crate::candidate::PSet;
use crate::climb::NOISE_TOL;
use crate::dp::{self, DpStats};
use crate::error::CoreError;

/// Runs the seed engine. Its solutions are reduced to the best slack per
/// buffer count as [`dp::run`]'s are; its statistics fill the fields the
/// seed tracks (peak candidates, the raw merge-product peak, enumerated
/// and blocked merge pairs) and leave the rest at their defaults.
///
/// # Errors
///
/// Same as the production DP: [`CoreError::EmptyLibrary`],
/// [`CoreError::ScenarioMismatch`], [`CoreError::NoFeasibleCandidate`],
/// and budget errors.
pub(crate) fn run(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    cfg: &dp::DpConfig,
    budget: &RunBudget,
) -> Result<(Vec<dp::SourceCand>, DpStats), CoreError> {
    let (cands, stats) = run_seed(tree, scenario, lib, cfg, budget)?;
    let out = cands
        .into_iter()
        .map(|c| dp::SourceCand {
            slack: c.slack,
            count: c.count,
            cost: c.cost,
            insertions: c.set.to_vec(),
        })
        .collect();
    Ok((out, stats))
}

// ---------------------------------------------------------------------------
// The seed engine, verbatim (modulo the pairwise-prune order fix above).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct DpCand {
    cap: f64,
    q: f64,
    cur: f64,
    ns: f64,
    count: usize,
    cost: f64,
    parity: bool,
    set: PSet<(NodeId, BufferId)>,
}

#[derive(Debug, Clone)]
struct SourceCand {
    slack: f64,
    count: usize,
    cost: f64,
    set: PSet<(NodeId, BufferId)>,
}

fn prune(cands: &mut Vec<DpCand>, cfg: &dp::DpConfig) {
    if cands.len() <= 1 {
        return;
    }
    if cfg.conservative || cfg.cost_aware {
        let noise_dims = cfg.conservative;
        let mut keep: Vec<DpCand> = Vec::with_capacity(cands.len());
        'outer: for c in cands.drain(..) {
            let mut i = 0;
            while i < keep.len() {
                let k = &keep[i];
                let comparable = !cfg.polarity || k.parity == c.parity;
                let k_dominates = comparable
                    && k.cap <= c.cap
                    && k.q >= c.q
                    && (!noise_dims || (k.cur <= c.cur && k.ns >= c.ns))
                    && k.count <= c.count
                    && (!cfg.cost_aware || k.cost <= c.cost);
                if k_dominates {
                    continue 'outer;
                }
                let c_dominates = comparable
                    && c.cap <= k.cap
                    && c.q >= k.q
                    && (!noise_dims || (c.cur <= k.cur && c.ns >= k.ns))
                    && c.count <= k.count
                    && (!cfg.cost_aware || c.cost <= k.cost);
                if c_dominates {
                    // Seed used swap_remove here; remove keeps generation
                    // order without changing the surviving set.
                    keep.remove(i);
                } else {
                    i += 1;
                }
            }
            keep.push(c);
        }
        *cands = keep;
        return;
    }
    cands.sort_by(|a, b| {
        a.parity
            .cmp(&b.parity)
            .then(a.count.cmp(&b.count))
            .then(a.cap.partial_cmp(&b.cap).expect("finite caps"))
            .then(b.q.partial_cmp(&a.q).expect("finite slacks"))
    });
    let mut frontier: Vec<(f64, f64)> = Vec::new();
    let mut out: Vec<DpCand> = Vec::new();
    let mut i = 0;
    let n = cands.len();
    while i < n {
        let count = cands[i].count;
        let parity = cands[i].parity;
        if i > 0 && cands[i - 1].parity != parity {
            frontier.clear();
        }
        let mut class_survivors: Vec<DpCand> = Vec::new();
        let mut best_q = f64::NEG_INFINITY;
        while i < n && cands[i].count == count && cands[i].parity == parity {
            let c = &cands[i];
            let dominated_in_class = c.q <= best_q;
            let dominated_cross = frontier_max_q(&frontier, c.cap) >= c.q;
            if !dominated_in_class && !dominated_cross {
                best_q = c.q;
                class_survivors.push(c.clone());
            }
            i += 1;
        }
        for c in &class_survivors {
            frontier_insert(&mut frontier, c.cap, c.q);
        }
        out.extend(class_survivors);
    }
    *cands = out;
}

/// Max `q` among frontier entries with `cap ≤ limit` (−∞ if none).
pub(crate) fn frontier_max_q(frontier: &[(f64, f64)], limit: f64) -> f64 {
    // frontier is sorted by cap ascending with strictly increasing prefix
    // max q (we store the running max directly).
    match frontier.binary_search_by(|&(cap, _)| cap.partial_cmp(&limit).expect("finite caps")) {
        Ok(mut idx) => {
            // Multiple equal caps collapse on insert; step to the entry.
            while idx + 1 < frontier.len() && frontier[idx + 1].0 <= limit {
                idx += 1;
            }
            frontier[idx].1
        }
        Err(0) => f64::NEG_INFINITY,
        Err(idx) => frontier[idx - 1].1,
    }
}

/// Inserts `(cap, q)` keeping caps ascending and q the running prefix max.
pub(crate) fn frontier_insert(frontier: &mut Vec<(f64, f64)>, cap: f64, q: f64) {
    let pos = frontier
        .binary_search_by(|&(c, _)| c.partial_cmp(&cap).expect("finite caps"))
        .unwrap_or_else(|e| e);
    // q must beat the prefix max to matter.
    let prefix = if pos == 0 {
        f64::NEG_INFINITY
    } else {
        frontier[pos - 1].1
    };
    if q <= prefix {
        return;
    }
    frontier.insert(pos, (cap, q.max(prefix)));
    // Fix running max downstream and drop obsolete entries.
    let mut run = q.max(prefix);
    let mut j = pos + 1;
    while j < frontier.len() {
        if frontier[j].1 <= run {
            frontier.remove(j);
        } else {
            run = frontier[j].1;
            j += 1;
        }
    }
}

fn add_wire(c: &DpCand, wire: &Wire, wire_current: f64) -> DpCand {
    DpCand {
        cap: c.cap + wire.capacitance,
        q: c.q - wire.resistance * (wire.capacitance / 2.0 + c.cap),
        cur: c.cur + wire_current,
        ns: c.ns - wire.resistance * (wire_current / 2.0 + c.cur),
        count: c.count,
        cost: c.cost,
        parity: c.parity,
        set: c.set.clone(),
    }
}

fn merge(left: &[DpCand], right: &[DpCand], cfg: &dp::DpConfig) -> Vec<DpCand> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    for a in left {
        for b in right {
            if cfg.polarity && a.parity != b.parity {
                continue;
            }
            let count = a.count + b.count;
            if let Some(max) = cfg.max_buffers {
                if count > max {
                    continue;
                }
            }
            out.push(DpCand {
                cap: a.cap + b.cap,
                q: a.q.min(b.q),
                cur: a.cur + b.cur,
                ns: a.ns.min(b.ns),
                count,
                cost: a.cost + b.cost,
                parity: a.parity,
                set: a.set.join(&b.set),
            });
        }
    }
    out
}

fn insert_buffers(v: NodeId, cands: &mut Vec<DpCand>, lib: &BufferLibrary, cfg: &dp::DpConfig) {
    let mut fresh: Vec<DpCand> = Vec::new();
    for (bid, buf) in lib.entries() {
        let mut best: Vec<Option<(f64, usize)>> = Vec::new();
        for (idx, c) in cands.iter().enumerate() {
            if let Some(max) = cfg.max_buffers {
                if c.count + 1 > max {
                    continue;
                }
            }
            if cfg.noise && buf.resistance * c.cur > c.ns + NOISE_TOL {
                continue;
            }
            let q_new = c.q - buf.delay(c.cap);
            if cfg.cost_aware {
                fresh.push(buffered_candidate(v, c, bid, buf, q_new));
                continue;
            }
            let class = 2 * c.count + usize::from(c.parity);
            if best.len() <= class {
                best.resize(class + 1, None);
            }
            let slot = &mut best[class];
            if slot.is_none_or(|(bq, _)| q_new > bq) {
                *slot = Some((q_new, idx));
            }
        }
        for slot in best.into_iter().flatten() {
            let (q_new, idx) = slot;
            let c = &cands[idx];
            fresh.push(buffered_candidate(v, c, bid, buf, q_new));
        }
    }
    cands.extend(fresh);
}

fn buffered_candidate(
    v: NodeId,
    c: &DpCand,
    bid: BufferId,
    buf: &buffopt_buffers::BufferType,
    q_new: f64,
) -> DpCand {
    DpCand {
        cap: buf.input_capacitance,
        q: q_new,
        cur: 0.0,
        ns: buf.noise_margin,
        count: c.count + 1,
        cost: c.cost + buf.cost,
        parity: c.parity ^ buf.inverting,
        set: c.set.insert((v, bid)),
    }
}

fn run_seed(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    cfg: &dp::DpConfig,
    budget: &RunBudget,
) -> Result<(Vec<SourceCand>, DpStats), CoreError> {
    if lib.is_empty() {
        return Err(CoreError::EmptyLibrary);
    }
    if let Some(s) = scenario {
        if s.len() != tree.len() {
            return Err(CoreError::ScenarioMismatch {
                tree_len: tree.len(),
                scenario_len: s.len(),
            });
        }
    }
    debug_assert!(
        !cfg.noise || scenario.is_some(),
        "noise mode requires a scenario"
    );
    let budget = budget.armed();
    budget.admit_tree(tree.len())?;
    let wire_current = |v: NodeId| -> f64 { scenario.map_or(0.0, |s| s.wire_current(tree, v)) };

    let mut stats = DpStats::default();
    let mut lists: Vec<Option<Vec<DpCand>>> = vec![None; tree.len()];
    for v in tree.postorder() {
        budget.check_deadline()?;
        let mut cands: Vec<DpCand> = if let Some(spec) = tree.sink_spec(v) {
            vec![DpCand {
                cap: spec.capacitance,
                q: spec.required_arrival_time,
                cur: 0.0,
                ns: spec.noise_margin,
                count: 0,
                cost: 0.0,
                parity: false,
                set: PSet::empty(),
            }]
        } else {
            let mut climbed: Vec<Vec<DpCand>> = Vec::new();
            for &c in tree.children(v) {
                let wire = tree.parent_wire(c).expect("child has wire");
                let iw = wire_current(c);
                let list = lists[c.index()].take().expect("postorder order");
                let adjusted: Vec<DpCand> = list
                    .iter()
                    .map(|cand| add_wire(cand, wire, iw))
                    .filter(|cand| !cfg.noise || cand.ns >= -NOISE_TOL)
                    .collect();
                if adjusted.is_empty() {
                    return Err(CoreError::NoFeasibleCandidate);
                }
                climbed.push(adjusted);
            }
            match climbed.len() {
                1 => climbed.pop().expect("one child"),
                2 => {
                    let right = climbed.pop().expect("two children");
                    let left = climbed.pop().expect("two children");
                    let product = left.len().saturating_mul(right.len());
                    stats.peak_merge_product = stats.peak_merge_product.max(product);
                    budget.admit_candidates(product)?;
                    let merged = merge(&left, &right, cfg);
                    // Every legal pair is materialized here; only the
                    // block filters (polarity, buffer cap) are "pruned".
                    stats.merge_products_enumerated += merged.len();
                    stats.merge_products_pruned += product - merged.len();
                    if merged.is_empty() {
                        return Err(CoreError::NoFeasibleCandidate);
                    }
                    merged
                }
                _ => unreachable!("trees are binary and internals have children"),
            }
        };
        if tree.node(v).kind.is_feasible_site() {
            insert_buffers(v, &mut cands, lib, cfg);
        }
        budget.admit_candidates(cands.len())?;
        stats.peak_candidates = stats.peak_candidates.max(cands.len());
        prune(&mut cands, cfg);
        lists[v.index()] = Some(cands);
    }

    let d = tree.driver();
    let source_list = lists[tree.source().index()].take().expect("source");
    let mut out: Vec<SourceCand> = Vec::new();
    for c in source_list {
        if cfg.noise && d.resistance * c.cur > c.ns + NOISE_TOL {
            continue;
        }
        if cfg.polarity && c.parity {
            continue;
        }
        let slack = c.q - (d.intrinsic_delay + d.resistance * c.cap);
        out.push(SourceCand {
            slack,
            count: c.count,
            cost: c.cost,
            set: c.set,
        });
    }
    out.sort_by(|a, b| {
        a.count
            .cmp(&b.count)
            .then(a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .then(b.slack.partial_cmp(&a.slack).expect("finite slacks"))
    });
    let mut reduced: Vec<SourceCand> = Vec::new();
    for c in out {
        let dominated = reduced
            .iter()
            .any(|k| k.count <= c.count && k.cost <= c.cost + 1e-12 && k.slack >= c.slack - 1e-30);
        if !dominated {
            reduced.push(c);
        }
    }
    if reduced.is_empty() {
        return Err(CoreError::NoFeasibleCandidate);
    }
    Ok((reduced, stats))
}
