//! **BuffOpt** — Algorithm 3 of the paper and the delay-only baseline it
//! is compared against, behind one DP entry point.
//!
//! The DP indexes candidates by buffer count (the Lillis extension), so a
//! single bottom-up pass leaves the best solution for every buffer count
//! at the source. [`solve`] runs that pass once and returns the source
//! [`Frontier`]; the problems are selections on it:
//!
//! * [`Frontier::max_slack`] — Problem 2 (maximum slack under noise), or
//!   DelayOpt when no scenario is given;
//! * [`Frontier::fewest_meeting`] — Problem 3, the production mode: the
//!   fewest buffers such that noise *and* timing are met, slack second;
//!   [`Frontier::min_buffers`] serves it with the best-slack fallback;
//! * [`Frontier::per_count`] — `DelayOpt(k)` and BuffOpt per-count tables.
//!
//! [`min_cost`] is a different DP (cost tracking changes dominance), so it
//! stays a function of its own.

use std::sync::Arc;

use buffopt_buffers::BufferLibrary;
use buffopt_memo::MemoTable;
use buffopt_noise::NoiseScenario;
use buffopt_tree::RoutingTree;

use crate::algorithm2;
use crate::assignment::Assignment;
use crate::budget::RunBudget;
use crate::dp::{self, DpConfig, DpStats, SourceCand};
use crate::error::{BudgetResource, CoreError};
use crate::workspace::{DpWork, DpWorkspace};

/// Options for [`solve`] and [`min_cost`].
///
/// Not `Copy`: the embedded [`RunBudget`] carries a shared
/// [`crate::CancelToken`], so options are cloned explicitly where a run
/// needs its own handle.
#[derive(Debug, Clone, Default)]
pub struct BuffOptOptions {
    /// Hard cap on the number of inserted buffers — the paper's
    /// `DelayOpt(k)` when no scenario is given.
    pub max_buffers: Option<usize>,
    /// Prune only candidates dominated in `(C, q, I, NS)` rather than the
    /// paper's `(C, q)`. Slower but exact when the library violates the
    /// Theorem 5 assumptions (`Cin` not minimal, margins not ordered).
    pub conservative_pruning: bool,
    /// Track signal polarity through inverting buffers (Lillis): sinks
    /// must receive the true signal, so inverters may only appear in
    /// pairs along any source-to-sink path.
    pub polarity_aware: bool,
    /// Resource limits; the default is unlimited. A capped run aborts
    /// with [`CoreError::BudgetExceeded`] / [`CoreError::DeadlineExceeded`]
    /// instead of exhausting the machine.
    pub budget: RunBudget,
    /// Cross-request subtree memo table (`None` = no memoization). Shared
    /// via `Arc` so batch workers reuse each other's frontiers; seeded
    /// runs return solutions bitwise-identical to cold runs. Ignored when
    /// `budget.max_arena_bytes` is set — see
    /// [`buffopt_memo`] and DESIGN §13 for why arena-byte degrade cannot
    /// be memoized.
    pub memo: Option<Arc<MemoTable>>,
}

/// A buffered solution returned by the optimizers.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Which buffer sits at which node.
    pub assignment: Assignment,
    /// Timing slack at the source (`min (RAT − delay)` including the
    /// driver gate delay); the net meets timing iff non-negative.
    pub slack: f64,
    /// Number of inserted buffers.
    pub buffers: usize,
    /// Total area/power cost of the inserted buffers.
    pub cost: f64,
    /// True when the solution was produced under noise constraints.
    pub meets_noise: bool,
    /// Largest candidate list the DP held live at any node (after the
    /// fused merge-prune, including freshly buffered candidates) — the
    /// count the candidate budget gates on. Zero for optimizers that do
    /// not run the DP (e.g. the greedy baseline).
    pub peak_candidates: usize,
    /// Largest per-node count of merge rows the DP actually enumerated
    /// (pre-prune). With predictive pruning this can sit well below the
    /// raw |L|·|R| cross product; the gap is the fused prune's savings.
    /// Zero for non-DP optimizers.
    pub peak_merge_product: usize,
    /// Total merge rows enumerated across the whole run — the work the
    /// DP's merge loops actually did. Zero for non-DP optimizers.
    pub merge_products_enumerated: usize,
    /// Total merge pairs skipped without being enumerated (polarity /
    /// buffer-cap blocks plus predictive witness skips). Per merge node,
    /// `enumerated + pruned` equals the raw |L|·|R| product exactly, so
    /// the pair measures predictive-pruning effectiveness end-to-end.
    pub merge_products_pruned: usize,
    /// High-water mark of the provenance arena during the run, in bytes —
    /// the quantity a [`RunBudget::with_max_arena_bytes`] cap gates on.
    /// Zero for optimizers that do not run the DP.
    pub peak_arena_bytes: usize,
    /// `Some(resource)` when the run hit a resource cap and — because the
    /// budget set an arena cap ([`RunBudget::max_arena_bytes`]), which
    /// turns on degrade-in-place — finished by tightening pruning instead
    /// of erroring. The solution is feasible
    /// but possibly suboptimal; `None` means the full search ran.
    pub degraded_by: Option<BudgetResource>,
}

/// The source frontier of one DP run: the surviving solutions, at most a
/// few per buffer count, plus the run's statistics. Every selection
/// builds a [`Solution`] only for what it reads, stamped with those
/// statistics.
#[derive(Debug, Clone)]
pub struct Frontier<'t> {
    tree: &'t RoutingTree,
    /// Ascending buffer count; never empty.
    cands: Vec<SourceCand>,
    stats: DpStats,
    noise: bool,
}

impl Frontier<'_> {
    fn solution(&self, c: &SourceCand) -> Solution {
        let s = &self.stats;
        Solution {
            assignment: Assignment::from_pairs(self.tree, c.insertions.iter().copied()),
            slack: c.slack,
            buffers: c.count,
            cost: c.cost,
            meets_noise: self.noise,
            peak_candidates: s.peak_candidates,
            peak_merge_product: s.peak_merge_product,
            merge_products_enumerated: s.merge_products_enumerated,
            merge_products_pruned: s.merge_products_pruned,
            peak_arena_bytes: s.peak_arena_bytes,
            degraded_by: s.degraded_by,
        }
    }

    /// Problem 2 — the maximum source slack such that every noise
    /// constraint (sinks and inserted buffer inputs) is met; DelayOpt when
    /// the run had no scenario.
    ///
    /// Optimal for single-type libraries under the paper's Theorem 5
    /// assumptions, and with conservative pruning; within ~2 % of the
    /// delay-only upper bound for the 11-buffer library (paper Table IV,
    /// reproduced in the bench crate).
    pub fn max_slack(&self) -> Solution {
        let best = self
            .cands
            .iter()
            .max_by(|a, b| a.slack.partial_cmp(&b.slack).expect("finite slack"))
            .expect("a frontier is never empty");
        self.solution(best)
    }

    /// Problem 3 — the solution with the fewest buffers whose slack is
    /// non-negative, maximizing slack as a secondary objective; `None`
    /// when no buffer count meets timing (read [`Frontier::max_slack`]
    /// for the best-slack fallback).
    pub fn fewest_meeting(&self) -> Option<Solution> {
        self.cands
            .iter()
            .filter(|c| c.slack >= 0.0)
            .min_by(|a, b| {
                a.count
                    .cmp(&b.count)
                    .then(b.slack.partial_cmp(&a.slack).expect("finite slack"))
            })
            .map(|c| self.solution(c))
    }

    /// Problem 3 as it is served: [`Frontier::fewest_meeting`], or the
    /// [`Frontier::max_slack`] solution when no buffer count meets timing.
    /// The result meets timing iff its slack is non-negative.
    pub fn min_buffers(&self) -> Solution {
        self.fewest_meeting().unwrap_or_else(|| self.max_slack())
    }

    /// The best solution for every buffer count up to `k` (Lillis indexed
    /// lists): entry `j` holds the best solution using exactly `j`
    /// buffers, or `None` when none survives — a count whose best is no
    /// better than a smaller count's is pruned away, and under noise a
    /// count may have no clean solution at all. Run with
    /// `max_buffers: Some(k)` to keep the DP no larger than the table.
    pub fn per_count(&self, k: usize) -> Vec<Option<Solution>> {
        let mut best: Vec<Option<&SourceCand>> = vec![None; k + 1];
        for c in &self.cands {
            if c.count <= k && best[c.count].is_none_or(|prev| c.slack > prev.slack) {
                best[c.count] = Some(c);
            }
        }
        best.into_iter()
            .map(|c| c.map(|c| self.solution(c)))
            .collect()
    }
}

/// Runs the DP once over `tree` and returns its source frontier. Noise
/// constraints are on exactly when a `scenario` is given (Algorithm 3);
/// without one this is the paper's DelayOpt baseline.
///
/// # Errors
///
/// * [`CoreError::EmptyLibrary`] — no buffer types;
/// * [`CoreError::ScenarioMismatch`] — scenario built for another tree;
/// * [`CoreError::NoFeasibleCandidate`] — no insertion satisfies the noise
///   margins (e.g. insufficient wire segmenting), or polarity / the
///   buffer cap leaves nothing;
/// * [`CoreError::BudgetExceeded`] / [`CoreError::DeadlineExceeded`] /
///   [`CoreError::Cancelled`] — the budget stopped the run.
pub fn solve<'t>(
    ws: &mut DpWorkspace,
    tree: &'t RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
) -> Result<Frontier<'t>, CoreError> {
    run(
        ws,
        tree,
        scenario,
        lib,
        opts,
        false,
        &mut DpStats::default(),
    )
}

/// Runs the DP once, leaving its statistics in `stats` even when it
/// fails.
fn run<'t>(
    ws: &mut DpWorkspace,
    tree: &'t RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
    cost_aware: bool,
    stats: &mut DpStats,
) -> Result<Frontier<'t>, CoreError> {
    let cfg = DpConfig {
        noise: scenario.is_some(),
        max_buffers: opts.max_buffers,
        conservative: opts.conservative_pruning,
        polarity: opts.polarity_aware,
        cost_aware,
    };
    let cands = dp::run_into(
        &mut ws.dp,
        tree,
        scenario,
        lib,
        &cfg,
        &opts.budget,
        opts.memo.as_deref(),
        stats,
    )?;
    Ok(Frontier {
        tree,
        cands,
        stats: *stats,
        noise: cfg.noise,
    })
}

/// [`solve`] under noise, read as [`Frontier::max_slack`]. Kept with this
/// signature because the repository benchmark (`perfbench/src/layers.rs`)
/// calls it; it goes once that benchmark moves to [`solve`].
///
/// # Errors
///
/// Those of [`solve`].
pub fn optimize_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    Ok(solve(ws, tree, Some(scenario), lib, options)?.max_slack())
}

/// Problem 3 as it is served — [`Frontier::min_buffers`] of an uncapped
/// [`solve`] under noise — found by a bounded count search that runs the
/// DP no larger than the answer needs (DESIGN §1, §7):
///
/// 1. the floor pass: Algorithm 2's noise floor `L`
///    ([`algorithm2::noise_floor_with`]), the fewest buffers that fix
///    noise, and whether its own placement meets timing;
/// 2. if it does, one probe: [`solve`] capped at `K = L + ⌊L/8⌋` (when
///    below the caller's own `max_buffers`), served if its
///    [`Frontier::fewest_meeting`] exists, or — when its cap cut nothing,
///    so it *is* the uncapped run — as its [`Frontier::min_buffers`] or
///    its error;
/// 3. otherwise one run at the caller's `max_buffers` finishes.
///
/// A count cap only removes frontier rows above it, so the answer is
/// bitwise that of the single run whatever `K` was: the floor picks the
/// cap and is never a premise of the answer. A floor-pass error skips
/// the probe and leaves the final run to meet it. Nets whose floor
/// placement misses timing are those where timing, not noise, sets the
/// count, so a probe near `L` would only be cut. No floor pass or probe
/// runs when the budget caps candidates or arena bytes — those clamps
/// see whole candidate lists, so a capped run would meet them
/// differently. The budget is armed once: a time limit covers the whole
/// search. The solution's DP statistics are those of the whole search —
/// peaks maxed, totals summed — and so is [`DpWorkspace::work`]
/// afterwards; the floor pass is no DP run and adds nothing to them.
///
/// # Errors
///
/// Those of [`solve`].
pub fn min_buffers_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    let budget = options.budget.armed();
    let probing = budget.max_candidates.is_none() && budget.max_arena_bytes.is_none();
    let last = options.max_buffers;
    let probe = probing
        .then(|| probe_cap(ws, tree, scenario, lib, &budget))
        .flatten()
        .filter(|&k| last.is_none_or(|max| k < max));
    let mut opts = BuffOptOptions {
        budget,
        ..options.clone()
    };
    let mut total = DpStats::default();
    let mut work = DpWork::default();
    for cap in probe.into_iter().map(Some).chain([last]) {
        opts.max_buffers = cap;
        let mut stats = DpStats::default();
        let result = run(ws, tree, Some(scenario), lib, &opts, false, &mut stats);
        total.absorb(&stats);
        work.absorb(&ws.work());
        // The caller's cap ends the search, and so does a probe whose cap
        // cut nothing: it is that run.
        let exact = cap == last || !stats.cap_bound;
        let served = match result {
            Ok(f) => f
                .fewest_meeting()
                .or_else(|| exact.then(|| f.min_buffers()))
                .map(Ok),
            // Only an infeasibility can be the cap's doing; any other
            // error (input, tree size, deadline, cancel) would end every
            // later run too.
            Err(CoreError::NoFeasibleCandidate) if !exact => None,
            Err(e) => Some(Err(e)),
        };
        if let Some(result) = served {
            ws.dp.work = work;
            return result.map(|mut sol| {
                sol.peak_candidates = total.peak_candidates;
                sol.peak_merge_product = total.peak_merge_product;
                sol.merge_products_enumerated = total.merge_products_enumerated;
                sol.merge_products_pruned = total.merge_products_pruned;
                sol.peak_arena_bytes = total.peak_arena_bytes;
                sol
            });
        }
    }
    unreachable!("the run at the caller's cap always serves")
}

/// The count cap of the search's one probe, [`floor_cap`], when
/// Algorithm 2's own placement meets timing; `None` when it misses timing
/// or the floor pass fails.
fn probe_cap(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    budget: &RunBudget,
) -> Option<usize> {
    let floor = algorithm2::noise_floor_with(ws, tree, scenario, lib, budget).ok()?;
    floor.meets_timing().then(|| floor_cap(&floor))
}

/// The probe cap `K = L + ⌊L/8⌋` for a noise floor of `L` buffers:
/// answers sit at `L` or `L + 1` on small nets and a few above `L` on
/// the largest.
pub(crate) fn floor_cap(floor: &algorithm2::NoiseFloor) -> usize {
    floor.buffers + floor.buffers / 8
}

/// The Lillis power objective: the solution with the smallest **total
/// buffer cost** (area/power units from [`buffopt_buffers::BufferType::cost`])
/// such that both noise and timing constraints are satisfied; slack is
/// maximized as a secondary objective. Falls back to the best-slack
/// noise-clean solution when no candidate meets timing.
///
/// Unlike [`Frontier::fewest_meeting`], two solutions with the same
/// buffer count but different device sizes are distinguished, so the DP
/// runs with cost tracking (pairwise pruning — somewhat slower).
///
/// # Errors
///
/// Those of [`solve`].
pub fn min_cost(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    let f = run(
        ws,
        tree,
        Some(scenario),
        lib,
        options,
        true,
        &mut DpStats::default(),
    )?;
    let best_meeting = f.cands.iter().filter(|c| c.slack >= 0.0).min_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .expect("finite costs")
            .then(b.slack.partial_cmp(&a.slack).expect("finite slack"))
    });
    Ok(match best_meeting {
        Some(c) => f.solution(c),
        None => f.max_slack(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use crate::oracle::assert_search_exact;
    use buffopt_buffers::{catalog, BufferLibrary, BufferType};
    use buffopt_noise::metric::NoiseReport;
    use buffopt_tree::{segment, Driver, SinkSpec, Technology, TreeBuilder};

    fn estimation(tree: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(tree, 0.7, 7.2e9)
    }

    /// Problem 2 (DelayOpt without a scenario) on a fresh workspace.
    fn max_slack(
        t: &RoutingTree,
        s: Option<&NoiseScenario>,
        lib: &BufferLibrary,
        opts: &BuffOptOptions,
    ) -> Result<Solution, CoreError> {
        Ok(solve(&mut DpWorkspace::new(), t, s, lib, opts)?.max_slack())
    }

    /// Problem 3 with its best-slack fallback, as the ladder serves it.
    fn fewest(t: &RoutingTree, s: &NoiseScenario, lib: &BufferLibrary) -> Solution {
        solve(
            &mut DpWorkspace::new(),
            t,
            Some(s),
            lib,
            &BuffOptOptions::default(),
        )
        .expect("p3")
        .min_buffers()
    }

    fn cheapest(t: &RoutingTree, s: &NoiseScenario, lib: &BufferLibrary) -> Solution {
        min_cost(
            &mut DpWorkspace::new(),
            t,
            s,
            lib,
            &BuffOptOptions::default(),
        )
        .expect("cost")
    }

    fn capped(k: usize) -> BuffOptOptions {
        BuffOptOptions {
            max_buffers: Some(k),
            ..BuffOptOptions::default()
        }
    }

    fn two_pin_segmented(len: f64, pieces: usize, rat: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, rat, 0.8))
            .expect("sink");
        let t = b.build().expect("tree");
        segment::segment_uniform(&t, pieces).expect("segment").tree
    }

    fn y_net_segmented(trunk: f64, arm: f64, pieces: usize) -> RoutingTree {
        y_net_segmented_rat(trunk, arm, pieces, 1.5e-9)
    }

    fn y_net_segmented_rat(trunk: f64, arm: f64, pieces: usize, rat: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(trunk)).expect("j");
        for _ in 0..2 {
            b.add_sink(j, tech.wire(arm), SinkSpec::new(20e-15, rat, 0.8))
                .expect("sink");
        }
        let t = b.build().expect("tree");
        segment::segment_uniform(&t, pieces).expect("segment").tree
    }

    #[test]
    fn fixes_noise_and_audits_clean() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        assert!(NoiseReport::analyze(&t, &s).has_violation());
        let sol = max_slack(&t, Some(&s), &lib, &BuffOptOptions::default()).expect("solve");
        assert!(sol.buffers > 0 && sol.meets_noise);
        let na = audit::noise(&t, &s, &lib, &sol.assignment).expect("audit");
        assert!(
            !na.has_violation(),
            "worst headroom {}",
            na.worst_headroom()
        );
        let da = audit::delay(&t, &lib, &sol.assignment).expect("audit");
        assert!((sol.slack - da.slack).abs() < 1e-15);
    }

    #[test]
    fn never_worse_noise_than_unconstrained_never_better_slack() {
        let t = y_net_segmented(8_000.0, 6_000.0, 6);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let opts = BuffOptOptions::default();
        let noise_sol = max_slack(&t, Some(&s), &lib, &opts).expect("buffopt");
        let delay_sol = max_slack(&t, None, &lib, &opts).expect("delayopt");
        assert!(!delay_sol.meets_noise);
        // DelayOpt is an upper bound on BuffOpt's slack (paper Section V-C).
        assert!(noise_sol.slack <= delay_sol.slack + 1e-15);
        // And BuffOpt is noise-clean while DelayOpt need not be.
        assert!(!audit::noise(&t, &s, &lib, &noise_sol.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn matches_exhaustive_single_buffer_library() {
        // Theorem 5 setting: one buffer type, Cin below sink caps, margin
        // above sink margins. The DP must find the exhaustive optimum of
        // Problem 2.
        let t = y_net_segmented(6_000.0, 4_000.0, 4);
        let s = estimation(&t);
        let lib = BufferLibrary::single(BufferType::new("b", 8e-15, 220.0, 25e-12, 0.9));
        let sol = max_slack(&t, Some(&s), &lib, &BuffOptOptions::default()).expect("solve");

        let sites: Vec<_> = t
            .node_ids()
            .filter(|&v| t.node(v).kind.is_feasible_site())
            .collect();
        assert!(sites.len() <= 16);
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << sites.len()) {
            let mut a = Assignment::empty(&t);
            for (i, &site) in sites.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    a.insert(site, buffopt_buffers::BufferId::from_index(0));
                }
            }
            if audit::noise(&t, &s, &lib, &a)
                .expect("audit")
                .has_violation()
            {
                continue;
            }
            best = best.max(audit::delay(&t, &lib, &a).expect("audit").slack);
        }
        assert!(best > f64::NEG_INFINITY, "some legal assignment exists");
        assert!(
            (sol.slack - best).abs() < 1e-14,
            "DP {} vs exhaustive {}",
            sol.slack,
            best
        );
    }

    #[test]
    fn min_buffers_prefers_fewer_when_timing_met() {
        let t = two_pin_segmented(20_000.0, 16, 3e-9); // loose timing
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let f = solve(
            &mut DpWorkspace::new(),
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions::default(),
        )
        .expect("solve");
        let frugal = f.fewest_meeting().expect("timing is meetable");
        assert!(frugal.buffers <= f.max_slack().buffers);
        assert!(frugal.slack >= 0.0, "timing met");
        assert!(!audit::noise(&t, &s, &lib, &frugal.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn min_buffers_falls_back_to_best_slack() {
        let t = two_pin_segmented(20_000.0, 16, 1e-12); // impossible timing
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let f = solve(
            &mut DpWorkspace::new(),
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions::default(),
        )
        .expect("solve");
        assert!(f.fewest_meeting().is_none(), "timing is unmeetable");
        let sol = fewest(&t, &s, &lib);
        assert!(sol.slack < 0.0);
        assert_eq!(sol.slack.to_bits(), f.max_slack().slack.to_bits());
        assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn per_count_zero_entry_absent_when_unbuffered_violates() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        assert!(NoiseReport::analyze(&t, &s).has_violation());
        let per = solve(&mut DpWorkspace::new(), &t, Some(&s), &lib, &capped(12))
            .expect("solve")
            .per_count(12);
        assert!(per[0].is_none(), "unbuffered candidate violates noise");
        assert!(per.iter().flatten().count() >= 1);
        for sol in per.iter().flatten() {
            assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
                .expect("audit")
                .has_violation());
        }
    }

    #[test]
    fn conservative_pruning_never_loses_feasibility() {
        // A pathological library violating Theorem 5's assumptions: the
        // fast buffer has a huge Cin and a tiny margin.
        let mut lib = BufferLibrary::new();
        lib.push(BufferType::new("fast", 60e-15, 80.0, 10e-12, 0.30));
        lib.push(BufferType::new("clean", 6e-15, 450.0, 30e-12, 0.95));
        let t = two_pin_segmented(25_000.0, 20, 3e-9);
        let s = estimation(&t);
        let paper = max_slack(&t, Some(&s), &lib, &BuffOptOptions::default());
        let safe = max_slack(
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions {
                conservative_pruning: true,
                ..BuffOptOptions::default()
            },
        );
        let safe_sol = safe.expect("conservative mode must find the fix");
        assert!(!audit::noise(&t, &s, &lib, &safe_sol.assignment)
            .expect("audit")
            .has_violation());
        if let Ok(p) = paper {
            // When both succeed, conservative is at least as good.
            assert!(safe_sol.slack >= p.slack - 1e-15);
        }
    }

    #[test]
    fn polarity_aware_solutions_are_polarity_legal() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like(); // 5 inverting + 6 non-inverting
        let free = max_slack(&t, Some(&s), &lib, &BuffOptOptions::default()).expect("free");
        let strict = max_slack(
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions {
                polarity_aware: true,
                ..BuffOptOptions::default()
            },
        )
        .expect("strict");
        assert!(audit::polarity_legal(&t, &lib, &strict.assignment));
        // Polarity is a restriction: it can never beat the free optimum.
        assert!(strict.slack <= free.slack + 1e-15);
        assert!(!audit::noise(&t, &s, &lib, &strict.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn inverter_only_library_pairs_up_under_polarity() {
        // With only inverting buffers, a polarity-legal chain must carry
        // an even number of them.
        let mut lib = BufferLibrary::new();
        lib.push(BufferType::new("inv", 6e-15, 300.0, 15e-12, 0.9).inverting());
        // 500 µm sites: coarse 1 mm sites force an odd buffer count on
        // this net, which is genuinely parity-infeasible.
        let t = two_pin_segmented(12_000.0, 24, 2e-9);
        let s = estimation(&t);
        let sol = max_slack(
            &t,
            Some(&s),
            &lib,
            &BuffOptOptions {
                polarity_aware: true,
                ..BuffOptOptions::default()
            },
        )
        .expect("solvable with inverter pairs");
        assert_eq!(sol.buffers % 2, 0, "chain needs an even inverter count");
        assert!(audit::polarity_legal(&t, &lib, &sol.assignment));
        // Without polarity tracking the same run may use an odd count.
        let free = max_slack(&t, Some(&s), &lib, &BuffOptOptions::default()).expect("free");
        assert!(free.slack >= sol.slack - 1e-15);
    }

    #[test]
    fn min_cost_never_exceeds_min_buffers_cost() {
        let t = two_pin_segmented(18_000.0, 14, 3e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let frugal_count = fewest(&t, &s, &lib);
        let frugal_cost = cheapest(&t, &s, &lib);
        assert!(frugal_cost.cost <= frugal_count.cost + 1e-12);
        assert!(frugal_cost.slack >= 0.0, "timing met");
        assert!(!audit::noise(&t, &s, &lib, &frugal_cost.assignment)
            .expect("audit")
            .has_violation());
        // The reported cost matches the assignment.
        assert!((frugal_cost.cost - frugal_cost.assignment.total_cost(&lib)).abs() < 1e-12);
    }

    #[test]
    fn min_cost_prefers_small_devices_when_slack_allows() {
        // Loose timing: the cheapest fix should avoid x16/x32 monsters.
        let t = two_pin_segmented(14_000.0, 14, 10e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = cheapest(&t, &s, &lib);
        let max_level = sol
            .assignment
            .iter()
            .map(|(_, b)| lib.buffer(b).cost)
            .fold(0.0f64, f64::max);
        assert!(
            max_level <= 8.0 + 1e-12,
            "no x16/x32 devices in the cheap fix, got max level {max_level}"
        );
    }

    // DelayOpt: the same run without a scenario.

    #[test]
    fn delayopt_dp_slack_matches_audit() {
        let t = two_pin_segmented(8000.0, 8, 1e-9);
        let lib = catalog::ibm_like();
        let sol = max_slack(&t, None, &lib, &BuffOptOptions::default()).expect("solve");
        let audit = audit::delay(&t, &lib, &sol.assignment).expect("audit");
        assert!(
            (sol.slack - audit.slack).abs() < 1e-15,
            "DP slack {} vs audited {}",
            sol.slack,
            audit.slack
        );
    }

    #[test]
    fn delayopt_buffering_beats_unbuffered_on_long_nets() {
        let t = two_pin_segmented(10_000.0, 10, 1e-9);
        let lib = catalog::ibm_like();
        let unbuffered = audit::delay(&t, &lib, &Assignment::empty(&t)).expect("audit");
        let sol = max_slack(&t, None, &lib, &BuffOptOptions::default()).expect("solve");
        assert!(sol.buffers > 0);
        assert!(sol.slack > unbuffered.slack);
    }

    #[test]
    fn delayopt_per_count_table_consistent_with_capped_runs() {
        let t = two_pin_segmented(12_000.0, 12, 1e-9);
        let lib = catalog::ibm_like();
        let per = solve(&mut DpWorkspace::new(), &t, None, &lib, &capped(6))
            .expect("solve")
            .per_count(6);
        // Prefix best over counts ≤ k equals an independent capped run
        // ("more buffers allowed never hurts").
        let mut prefix = f64::NEG_INFINITY;
        for (k, sol) in per.iter().enumerate() {
            if let Some(s) = sol {
                assert_eq!(s.buffers, k, "entry k holds exactly k buffers");
                prefix = prefix.max(s.slack);
            }
            let capped = max_slack(&t, None, &lib, &capped(k)).expect("solve");
            assert!(
                (capped.slack - prefix).abs() < 1e-15,
                "k={k}: capped {} vs prefix best {}",
                capped.slack,
                prefix
            );
        }
        // Count-0 exists and matches the unbuffered audit.
        let zero = per[0].as_ref().expect("unbuffered candidate");
        let audit = audit::delay(&t, &lib, &Assignment::empty(&t)).expect("audit");
        assert!((zero.slack - audit.slack).abs() < 1e-15);
    }

    #[test]
    fn delayopt_max_buffers_caps_insertions() {
        let t = two_pin_segmented(40_000.0, 20, 1e-9);
        let lib = catalog::ibm_like();
        let free = max_slack(&t, None, &lib, &BuffOptOptions::default()).expect("free");
        assert!(free.buffers > 2);
        let capped = max_slack(&t, None, &lib, &capped(2)).expect("capped");
        assert!(capped.buffers <= 2);
        assert!(capped.slack <= free.slack);
    }

    #[test]
    fn delayopt_branching_net_decoupling() {
        // Classic van Ginneken motif: a critical sink plus a heavy side
        // load; a buffer should decouple the side branch.
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(1000.0)).expect("j");
        b.add_sink(j, tech.wire(500.0), SinkSpec::new(10e-15, 0.25e-9, 0.8))
            .expect("critical");
        b.add_sink(j, tech.wire(15_000.0), SinkSpec::new(50e-15, 1e9, 0.8))
            .expect("lazy"); // effectively no timing constraint
        let t0 = b.build().expect("tree");
        let t = segment::segment_uniform(&t0, 4).expect("segment").tree;
        let lib = catalog::ibm_like();
        let unbuffered = audit::delay(&t, &lib, &Assignment::empty(&t)).expect("audit");
        let sol = max_slack(&t, None, &lib, &BuffOptOptions::default()).expect("solve");
        assert!(sol.buffers >= 1);
        assert!(sol.slack > unbuffered.slack + 50e-12, "decoupling wins big");
    }

    /// The bounded count search and the DP runs it took.
    fn search(
        t: &RoutingTree,
        s: &NoiseScenario,
        opts: &BuffOptOptions,
    ) -> (Result<Solution, CoreError>, u64) {
        let mut ws = DpWorkspace::new();
        let sol = min_buffers_with(&mut ws, t, s, &catalog::ibm_like(), opts);
        (sol, ws.work().dp_runs)
    }

    /// Algorithm 2's floor on `t` and the search's probe cap `K`.
    fn floor(t: &RoutingTree, s: &NoiseScenario) -> (algorithm2::NoiseFloor, usize) {
        let f = algorithm2::noise_floor_with(
            &mut DpWorkspace::new(),
            t,
            s,
            &catalog::ibm_like(),
            &RunBudget::default(),
        )
        .expect("floor");
        (f, floor_cap(&f))
    }

    #[test]
    fn noise_bound_net_takes_one_dp_run_at_the_floor_cap() {
        let t = y_net_segmented_rat(12_000.0, 9_000.0, 40, 3e-9);
        let s = estimation(&t);
        let (f, k) = floor(&t, &s);
        assert!(f.buffers >= 2 && f.meets_timing(), "{f:?}");
        let opts = BuffOptOptions::default();
        assert_search_exact(&t, &s, &catalog::ibm_like(), &opts, "search");
        let (sol, runs) = search(&t, &s, &opts);
        assert_eq!(runs, 1, "the probe at K = {k} serves");
        assert!(sol.expect("search").buffers <= k);
        // The probe is the run capped at K, not an uncapped one.
        let mut ws = DpWorkspace::new();
        solve(&mut ws, &t, Some(&s), &catalog::ibm_like(), &capped(k)).expect("capped");
        let at_k = ws.work().merge_rows_swept;
        solve(&mut ws, &t, Some(&s), &catalog::ibm_like(), &opts).expect("uncapped");
        assert!(at_k < ws.work().merge_rows_swept);
        let mut ws = DpWorkspace::new();
        min_buffers_with(&mut ws, &t, &s, &catalog::ibm_like(), &opts).expect("search");
        assert_eq!(ws.work().merge_rows_swept, at_k);
    }

    #[test]
    fn net_whose_floor_misses_timing_takes_one_uncapped_run() {
        for rat in [1e-12, 0.3e-9] {
            let t = two_pin_segmented(8_000.0, 16, rat);
            let s = estimation(&t);
            let (f, _) = floor(&t, &s);
            assert!(!f.meets_timing(), "RAT {rat}: {f:?}");
            let opts = BuffOptOptions::default();
            assert_search_exact(&t, &s, &catalog::ibm_like(), &opts, "search");
            assert_eq!(search(&t, &s, &opts).1, 1, "RAT {rat}");
        }
    }

    #[test]
    fn caller_cap_at_or_below_the_floor_cap_skips_the_probe() {
        let t = two_pin_segmented(20_000.0, 32, 3e-9);
        let s = estimation(&t);
        let (f, k) = floor(&t, &s);
        assert!(f.meets_timing());
        for cap in [k, k.saturating_sub(1)] {
            assert_search_exact(&t, &s, &catalog::ibm_like(), &capped(cap), "search");
            assert_eq!(search(&t, &s, &capped(cap)).1, 1, "cap {cap}, K {k}");
        }
        // Above K the probe runs first and serves.
        assert_search_exact(&t, &s, &catalog::ibm_like(), &capped(k + 1), "search");
        assert_eq!(search(&t, &s, &capped(k + 1)).1, 1);
    }

    #[test]
    fn search_runs_no_probe_under_a_candidate_or_arena_cap() {
        let t = two_pin_segmented(20_000.0, 16, 3e-9);
        let s = estimation(&t);
        for budget in [
            RunBudget::default().with_max_candidates(1 << 20),
            RunBudget::default().with_max_arena_bytes(1 << 30),
        ] {
            let opts = BuffOptOptions {
                budget,
                ..BuffOptOptions::default()
            };
            let (sol, runs) = search(&t, &s, &opts);
            assert_eq!(runs, 1, "one uncapped run");
            assert_eq!(
                sol.expect("search").buffers,
                fewest(&t, &s, &catalog::ibm_like()).buffers
            );
        }
    }

    #[test]
    fn empty_library_rejected() {
        let t = two_pin_segmented(1000.0, 2, 1e-9);
        let s = estimation(&t);
        for scenario in [None, Some(&s)] {
            assert!(matches!(
                solve(
                    &mut DpWorkspace::new(),
                    &t,
                    scenario,
                    &BufferLibrary::new(),
                    &BuffOptOptions::default()
                ),
                Err(CoreError::EmptyLibrary)
            ));
        }
    }
}
