//! The van Ginneken-style dynamic-programming engine behind
//! [`crate::buffopt::solve`]: Algorithm 3, or the paper's DelayOpt
//! baseline when it runs without noise checks.
//!
//! Candidates are the paper's 5-tuples `(C, q, I, NS, M)` extended with the
//! Lillis buffer count, so one bottom-up pass yields the best solution *for
//! every number of buffers* (`DelayOpt(k)`, Problem 3):
//!
//! * `C` — downstream load capacitance seen at the node (eq. 1);
//! * `q` — timing slack `min (RAT − delay)` over downstream sinks (eq. 5);
//! * `I` — downstream coupling current (eq. 7);
//! * `NS` — noise slack (eq. 12);
//! * `M` — the partial solution, held as a `u32` provenance index into a
//!   per-run [`ProvArena`] (see DESIGN §10) instead of the paper's explicit
//!   set: candidates are plain `Copy` rows and the winning solution is
//!   reconstructed once at the source.
//!
//! The noise modifications (boldface in the paper's Fig. 10/11) are:
//! a buffer is only inserted when it can legally drive its subtree
//! (`Rb·I ≤ NS`), candidates whose noise slack goes negative are dead and
//! dropped, and the driver is checked at the source. Pruning follows the
//! paper (`(C, q)` dominance per buffer count, with lower counts allowed
//! to dominate higher ones); an optional *conservative* mode also requires
//! `(I, NS)` dominance before discarding, which restores exactness for
//! libraries that break Theorem 5's assumptions.
//!
//! Hot-path layout (the arena rewrite; the pre-arena engine survives,
//! compiled for tests only, in `dp_reference` for differential testing):
//!
//! * **in-place wire climb** — the taken child list is mutated and
//!   `retain`ed instead of map-allocating a new one;
//! * **fused merge-prune** — each cross-product row is offered, as it is
//!   generated, to a live `(C, q)` staircase of its class, which drops it
//!   or evicts what it dominates, so neither the |L|·|R| product nor its
//!   dominated rows are ever held and the `budget.admit_candidates` gate
//!   applies to the *surviving* count; a dropped row whose dominator is
//!   no worse in `(I, NS)` either skips its buffer bids, and one
//!   lower-count pass over the staircases ends the merge (DESIGN §15);
//! * **run-merging prune** — callers tell the dominance sweep how long a
//!   prefix they already hold in sweep order; the sweep checks both runs
//!   in linear time, comparison-sorts only one that is out of order and
//!   merges the two, and the lower-count frontier is a staircase read by
//!   a forward cursor and extended by one linear merge per class;
//! * **sweep-ordered spawns** — buffer bids go into one class-major best
//!   table, each candidate bidding into its class's row of per-buffer
//!   slots, and the spawns come out class by class in input-capacitance
//!   order, so the node prune finds them already sorted (DESIGN §15);
//! * **scratch reuse** — every list, frontier, and best-per-class table
//!   lives in a [`DpScratch`] reused across nodes and (via
//!   [`crate::workspace::DpWorkspace`]) across nets.

use std::cmp::Ordering;
use std::mem;
use std::sync::Arc;

use buffopt_buffers::{BufferId, BufferLibrary, BufferType};
use buffopt_memo::{FrontierRow, Hasher64, MemoTable, SubtreeDigests};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, RoutingTree, Wire};

use crate::arena::{ProvArena, NONE};
use crate::budget::RunBudget;
use crate::climb::NOISE_TOL;
use crate::error::{BudgetResource, CoreError};
use crate::workspace::DpWork;

/// A DP candidate (paper Fig. 10: `(C, q, I, NS, M)` plus the Lillis
/// extensions: buffer count, total buffer cost, and signal parity).
/// Plain-old-data: the partial solution is the `prov` index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DpCand {
    pub cap: f64,
    pub q: f64,
    pub cur: f64,
    pub ns: f64,
    pub count: usize,
    /// Total area/power cost of the inserted buffers.
    pub cost: f64,
    /// Number of signal inversions inside the subtree, mod 2, counted only
    /// when polarity tracking is on: all sinks of a candidate share it
    /// (mixed-parity merges are rejected). With polarity off it is always
    /// `false`, so each buffer count is one class.
    pub parity: bool,
    /// Provenance of the partial solution in the run's arena
    /// ([`NONE`] = no insertions).
    pub prov: u32,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DpConfig {
    /// Enforce noise constraints (Algorithm 3) or ignore them (DelayOpt).
    pub noise: bool,
    /// Hard cap on inserted buffers (`DelayOpt(k)` runs with `Some(k)`).
    pub max_buffers: Option<usize>,
    /// Keep candidates unless dominated in *all four* electrical
    /// dimensions. Slower, but exact for libraries violating the paper's
    /// Theorem 5 assumptions.
    pub conservative: bool,
    /// Track signal polarity through inverting buffers (Lillis): sinks
    /// must receive the true signal, so only even-inversion paths are
    /// legal and merges require matching parity. This flag only decides
    /// whether an inverting buffer flips a candidate's parity; merges, the
    /// pairwise prune and the source read the parity itself, which stays
    /// `false` without polarity.
    pub polarity: bool,
    /// Track total buffer cost and include it in dominance, enabling
    /// minimum-power objectives. Forces pairwise pruning.
    pub cost_aware: bool,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            noise: true,
            max_buffers: None,
            conservative: false,
            polarity: false,
            cost_aware: false,
        }
    }
}

/// Run statistics the DP reports alongside its solutions, so batch
/// drivers can record how close a net came to its resource caps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DpStats {
    /// Largest candidate list held live at any node (after the fused
    /// merge-prune, including freshly buffered candidates) — the count
    /// the budget gate sees.
    pub peak_candidates: usize,
    /// Largest per-node count of merge rows actually *enumerated* by a
    /// merge (pre-prune). Before the predictive Li–Shi merge this equaled
    /// the raw |L|·|R| product; it stays the continuity metric for
    /// per-node candidate pressure and is always ≤ the raw product.
    pub peak_merge_product: usize,
    /// Total merge rows enumerated across the whole run — the work the
    /// merge loops actually did. The predictive witness skips make this
    /// grow subquadratically where the raw product cannot.
    pub merge_products_enumerated: usize,
    /// Total merge pairs avoided across the whole run: block filters
    /// (polarity mismatch, buffer cap) plus predictive witness skips. Per
    /// merge node, enumerated + pruned equals the raw |L|·|R| product
    /// exactly, so the split conserves the old raw-product accounting.
    pub merge_products_pruned: usize,
    /// High-water mark of the provenance arena's live bytes — what the
    /// `max_arena_bytes` budget gates on.
    pub peak_arena_bytes: usize,
    /// Set when the run finished under degrade-in-place: the first
    /// resource whose pressure forced the frontier clamp. `None` means
    /// the result is the exact DP optimum.
    pub degraded_by: Option<BudgetResource>,
    /// Set when `max_buffers` may have cut the run: it rejected a merge
    /// pair, a row at the cap reached a buffer site (its bids are
    /// rejected), or a memo entry seeded a subtree whose own rejections
    /// the run cannot see. Clear means nothing was cut, so the capped run
    /// *is* the uncapped run (DESIGN §1).
    pub cap_bound: bool,
}

impl DpStats {
    /// Folds another run's statistics into these: peaks take the
    /// maximum, totals add up, and the first degrade wins.
    pub fn absorb(&mut self, other: &DpStats) {
        self.peak_candidates = self.peak_candidates.max(other.peak_candidates);
        self.peak_merge_product = self.peak_merge_product.max(other.peak_merge_product);
        self.merge_products_enumerated += other.merge_products_enumerated;
        self.merge_products_pruned += other.merge_products_pruned;
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.degraded_by = self.degraded_by.or(other.degraded_by);
        self.cap_bound |= other.cap_bound;
    }
}

/// A feasible solution observed at the source, after the driver, with its
/// insertion list already reconstructed from the arena.
#[derive(Debug, Clone)]
pub(crate) struct SourceCand {
    /// Timing slack at the source including the driver gate delay.
    pub slack: f64,
    /// Number of inserted buffers.
    pub count: usize,
    /// Total cost of the inserted buffers.
    pub cost: f64,
    /// The insertions (unspecified order; rebuild/assignment consumers
    /// are order-insensitive).
    pub insertions: Vec<(NodeId, BufferId)>,
}

/// Best already-seen candidate for one (count/parity class, buffer) slot
/// during buffer insertion; the spawn is deferred so dominated rows pay
/// nothing.
#[derive(Debug, Clone, Copy)]
struct BestBuf {
    q_new: f64,
    /// The winning candidate; [`emit_spawns`] replaces it with its spawn
    /// once the spawn's provenance is allocated.
    cand: DpCand,
    /// Deferred provenance: the spawn's predecessor is `join(left, right)`
    /// (for plain candidates `left = cand.prov`, `right = NONE`).
    left: u32,
    right: u32,
}

/// A cross-product row whose provenance join is deferred until it survives
/// the fused prune.
#[derive(Debug, Clone, Copy)]
struct MergeRow {
    cand: DpCand,
    left: u32,
    right: u32,
}

/// Anything the dominance sweep can prune: a plain candidate or a merge
/// row carrying deferred provenance.
trait Row: Copy {
    fn cand(&self) -> &DpCand;
}

impl Row for DpCand {
    #[inline]
    fn cand(&self) -> &DpCand {
        self
    }
}

impl Row for MergeRow {
    #[inline]
    fn cand(&self) -> &DpCand {
        &self.cand
    }
}

/// Reusable scratch for one DP run: the provenance arena plus every
/// intermediate vector, so steady-state runs allocate nothing. Obtain one
/// via [`crate::workspace::DpWorkspace`] and reuse it across nets.
#[derive(Debug, Default)]
pub(crate) struct DpScratch {
    arena: ProvArena<(NodeId, BufferId)>,
    /// Per-node candidate lists (postorder producer/consumer).
    lists: Vec<Vec<DpCand>>,
    /// Recycled list vectors.
    pool: Vec<Vec<DpCand>>,
    /// Fused merge: one live staircase of merge rows per class
    /// `2·count + parity` (see [`stair_offer`]).
    stairs: Vec<Vec<MergeRow>>,
    /// Fused merge: the staircases concatenated in sweep order.
    rows: Vec<MergeRow>,
    /// Sweep prune: the lower-count dominance frontier.
    frontier: Staircase,
    /// Sweep prune: out-of-place copy of a presorted candidate run.
    head_cands: Vec<DpCand>,
    /// Sweep prune: out-of-place copy of a presorted merge-row run.
    head_rows: Vec<MergeRow>,
    /// Best-buffer bids, class-major: slot `class·nbuf + bi` holds the
    /// best candidate of class `2·count + parity` for buffer `bi` (parity
    /// stays `false` unless polarity is tracked).
    best: Vec<Option<BestBuf>>,
    /// The run's library in spawn order (see [`SpawnOrder`]).
    spawn_order: Vec<SpawnOrder>,
    /// Pairwise prune: candidate indices in presorted order.
    order: Vec<u32>,
    /// Pairwise prune: surviving candidate indices.
    keep: Vec<u32>,
    /// Predictive merge: left operand's per-row witness envelope.
    wit_l: Vec<f64>,
    /// Predictive merge: right operand's per-row witness envelope.
    wit_r: Vec<f64>,
    /// Predictive merge: per-class prefix max of the right operand's q.
    pmax_r: Vec<f64>,
    /// Predictive merge: per-class suffix min of `wit_r`.
    smin_r: Vec<f64>,
    /// Predictive merge: right operand's (parity, count) class ranges.
    rcls: Vec<(u32, u32)>,
    /// Predictive merge: q-descending probe order within one class.
    qord: Vec<u32>,
    /// Exact work counters of the current run.
    pub(crate) work: DpWork,
}

impl DpScratch {
    /// Prepares the scratch for a run over `nodes` tree nodes with buffer
    /// library `lib`. Clears everything (so a panic mid-run cannot poison
    /// the next one) while keeping the backing allocations.
    fn reset(&mut self, nodes: usize, lib: &BufferLibrary) {
        self.arena.clear();
        for l in &mut self.lists {
            l.clear();
        }
        if self.lists.len() < nodes {
            self.lists.resize_with(nodes, Vec::new);
        }
        self.best.clear();
        SpawnOrder::fill(&mut self.spawn_order, lib);
        self.rows.clear();
        self.frontier.clear();
        self.head_cands.clear();
        self.head_rows.clear();
        self.order.clear();
        self.keep.clear();
        self.wit_l.clear();
        self.wit_r.clear();
        self.pmax_r.clear();
        self.smin_r.clear();
        self.rcls.clear();
        self.qord.clear();
        self.work = DpWork::default();
    }

    fn alloc(&mut self) -> Vec<DpCand> {
        self.pool.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut v: Vec<DpCand>) {
        v.clear();
        self.pool.push(v);
    }
}

/// Merge-row stride between budget checkpoints inside the fused merge:
/// one cancel poll + deadline read per this many cross-product rows, so a
/// single huge merge can no longer overrun the deadline by seconds while
/// the amortized overhead stays unmeasurable (power of two — the stride
/// test is a mask).
const CHECK_STRIDE: usize = 1024;

/// Frontier width a degraded run clamps its candidate lists to once
/// arena-byte pressure trips. Small enough to stop arena growth almost
/// immediately, wide enough to keep a useful (C, q) spread per node.
const DEGRADE_TOP_K: usize = 32;

/// Deterministically clamps `cands` to at most `k` entries by sorting on
/// the full candidate key and keeping `k` evenly-spaced (stratified)
/// entries — both frontier extremes always survive, so the degraded run
/// keeps its cheapest-load and best-slack options. Stable for exact key
/// ties, hence bitwise-reproducible for a fixed budget.
fn clamp_stratified(cands: &mut Vec<DpCand>, k: usize) {
    if cands.len() <= k {
        return;
    }
    cands
        .sort_by(|a, b| sweep_order(a, b).then(a.cost.partial_cmp(&b.cost).expect("finite costs")));
    let n = cands.len();
    if k == 1 {
        cands.truncate(1);
        return;
    }
    // keep indices round(i·(n−1)/(k−1)): integer arithmetic, ascending,
    // first and last always included.
    let mut write = 0;
    for i in 0..k {
        let idx = (i * (n - 1) + (k - 1) / 2) / (k - 1);
        cands[write] = cands[idx];
        write += 1;
    }
    cands.truncate(write);
}

/// Prunes `cands` in the configured dominance mode. `sorted_prefix` is
/// how many leading candidates the caller already holds in sweep order
/// (a hint: it is verified, and only the paper's sweep uses it).
fn prune(cands: &mut Vec<DpCand>, cfg: &DpConfig, scratch: &mut DpScratch, sorted_prefix: usize) {
    if cands.len() <= 1 {
        return;
    }
    if cfg.conservative || cfg.cost_aware {
        prune_pairwise(cands, cfg, &mut scratch.order, &mut scratch.keep);
    } else {
        debug_assert!(
            cfg.polarity || cands.iter().all(|c| !c.parity),
            "a swept candidate carries parity with polarity off"
        );
        scratch.work.prune_rows_sorted += sweep_prune(
            cands,
            sorted_prefix,
            &mut scratch.head_cands,
            &mut scratch.frontier,
        ) as u64;
    }
}

/// The sweep order: (parity, count) classes ascending, then cap
/// ascending, then q descending.
fn sweep_order(a: &DpCand, b: &DpCand) -> Ordering {
    a.parity
        .cmp(&b.parity)
        .then(a.count.cmp(&b.count))
        .then(a.cap.partial_cmp(&b.cap).expect("finite caps"))
        .then(b.q.partial_cmp(&a.q).expect("finite slacks"))
}

/// Stable-sorts `items` into sweep order when `items[..sorted_prefix]`
/// is (claimed to be) in that order already: the prefix and the tail are
/// each put in order by [`fix_up_run`] — comparison-sorted only when
/// that gives up — then the two runs are merged, prefix first on ties —
/// exactly the stable sort of the whole list. The prefix claim can fail
/// (a wire climb can round two ascending caps into a tie whose q order
/// then reads backwards); a tail of buffered spawns arrives sorted
/// ([`emit_spawns`]). `head` is reusable scratch for the out-of-place
/// part of the merge. Returns how many rows went to a comparison sort.
fn sort_sweep_order<R: Row>(items: &mut [R], sorted_prefix: usize, head: &mut Vec<R>) -> usize {
    let by_key = |a: &R, b: &R| sweep_order(a.cand(), b.cand());
    let mut sorted = 0;
    let mut sort_run = |run: &mut [R]| {
        if !fix_up_run(run, by_key) {
            run.sort_by(by_key);
            sorted += run.len();
        }
    };
    let split = sorted_prefix.min(items.len());
    let (prefix, tail) = items.split_at_mut(split);
    sort_run(prefix);
    sort_run(tail);
    let Some(first_tail) = tail.first() else {
        return sorted;
    };
    // Prefix rows ordered before the whole tail are already in place.
    let mut w = prefix.partition_point(|x| by_key(x, first_tail) != Ordering::Greater);
    if w == split {
        return sorted;
    }
    head.clear();
    head.extend_from_slice(&prefix[w..]);
    // Writes trail the tail's read cursor (w ≤ j), so the merge is in
    // place apart from the copied head run.
    let (mut i, mut j) = (0, split);
    while i < head.len() && j < items.len() {
        if by_key(&items[j], &head[i]) == Ordering::Less {
            items[w] = items[j];
            j += 1;
        } else {
            items[w] = head[i];
            i += 1;
        }
        w += 1;
    }
    items[w..w + head.len() - i].copy_from_slice(&head[i..]);
    sorted
}

/// How far [`fix_up_run`] moves one row before it gives up: a climb tie
/// displaces a row by one place, while a run far out of order (no
/// caller hands one over, so the sort is a safety net) is cheaper to
/// comparison-sort than to shift.
const FIX_UP_REACH: usize = 8;

/// Puts a nearly sorted run in `by_key` order by stable insertion: each
/// row that sorts before its predecessor moves left past the rows that
/// sort strictly after it. A climb tie leaves a few adjacent rows
/// swapped, which this fixes in linear time. Gives up, returning false,
/// before one row would move more than [`FIX_UP_REACH`] places or the
/// moves would exceed the run's length; the run is then a permutation
/// that kept every pair of equal rows in order, so a stable sort of it
/// is still the stable sort of the input.
fn fix_up_run<R: Copy>(run: &mut [R], by_key: impl Fn(&R, &R) -> Ordering) -> bool {
    let mut budget = run.len();
    for i in 1..run.len() {
        if by_key(&run[i - 1], &run[i]) != Ordering::Greater {
            continue;
        }
        let mut j = i - 1;
        while j > 0 && by_key(&run[j - 1], &run[i]) == Ordering::Greater {
            j -= 1;
            if i - j > FIX_UP_REACH.min(budget) {
                return false;
            }
        }
        if i - j > budget {
            return false;
        }
        budget -= i - j;
        run[j..=i].rotate_right(1);
    }
    true
}

/// Paper pruning as an in-place sweep over the sweep order (see
/// [`sort_sweep_order`] for `sorted_prefix`), carrying the cumulative
/// lower-count frontier per parity — one frontier in all when polarity
/// is off, since parity then stays `false`. A candidate survives its
/// class iff its q strictly exceeds everything cheaper in-class and
/// beats the best q of lower counts at cap ≤ its own. Returns how many
/// rows went to a comparison sort.
fn sweep_prune<R: Row>(
    items: &mut Vec<R>,
    sorted_prefix: usize,
    head: &mut Vec<R>,
    frontier: &mut Staircase,
) -> usize {
    if items.len() <= 1 {
        return 0;
    }
    let sorted = sort_sweep_order(items, sorted_prefix, head);
    frontier.clear();
    let n = items.len();
    let mut i = 0;
    let mut write = 0;
    let mut prev_parity = items[0].cand().parity;
    while i < n {
        let (count, parity) = (items[i].cand().count, items[i].cand().parity);
        if parity != prev_parity {
            frontier.clear(); // parities are incomparable
            prev_parity = parity;
        }
        let class_start = write;
        let mut best_q = f64::NEG_INFINITY;
        // Caps ascend within a class, so the lower-count query only ever
        // moves forward along the staircase.
        let mut lower = frontier.cursor();
        while i < n {
            let r = items[i];
            let c = *r.cand();
            if c.count != count || c.parity != parity {
                break;
            }
            let dominated = c.q <= best_q || lower.best_at(c.cap) >= c.q;
            if !dominated {
                best_q = c.q;
                items[write] = r;
                write += 1;
            }
            i += 1;
        }
        // Class survivors join the frontier for higher counts of the
        // same parity.
        if i < n && items[i].cand().parity == parity {
            frontier.absorb(&items[class_start..write]);
        }
    }
    items.truncate(write);
    sorted
}

/// The sweep's lower-count dominance frontier: `(cap, q)` steps with cap
/// non-decreasing and q strictly increasing, so the best q among
/// everything absorbed at cap ≤ c is the q of the last step at or left
/// of c.
#[derive(Debug, Default)]
struct Staircase {
    steps: Vec<(f64, f64)>,
    /// Merge target of [`Staircase::absorb`], swapped in afterwards.
    spare: Vec<(f64, f64)>,
}

impl Staircase {
    fn clear(&mut self) {
        self.steps.clear();
    }

    fn cursor(&self) -> StairCursor<'_> {
        StairCursor {
            steps: &self.steps,
            next: 0,
            best: f64::NEG_INFINITY,
        }
    }

    /// Folds class survivors — cap and q both ascending, as the sweep
    /// emits them — into the staircase with one linear merge, keeping
    /// only steps that raise the running max q.
    fn absorb<R: Row>(&mut self, survivors: &[R]) {
        let Staircase { steps, spare } = self;
        spare.clear();
        let mut run = f64::NEG_INFINITY;
        let (mut i, mut j) = (0, 0);
        loop {
            let (cap, q) = match (steps.get(i), survivors.get(j)) {
                (Some(&s), Some(r)) if s.0 <= r.cand().cap => {
                    i += 1;
                    s
                }
                (_, Some(r)) => {
                    j += 1;
                    (r.cand().cap, r.cand().q)
                }
                (Some(&s), None) => {
                    i += 1;
                    s
                }
                (None, None) => break,
            };
            if q > run {
                run = q;
                spare.push((cap, q));
            }
        }
        mem::swap(steps, spare);
    }
}

/// Forward cursor over a [`Staircase`]: answers "best q at cap ≤ c" for
/// a non-decreasing sequence of c in amortized constant time.
struct StairCursor<'a> {
    steps: &'a [(f64, f64)],
    next: usize,
    best: f64,
}

impl StairCursor<'_> {
    /// Best q among steps with cap ≤ `cap` (−∞ if none). `cap` must not
    /// be below the previous query's.
    #[inline]
    fn best_at(&mut self, cap: f64) -> f64 {
        while let Some(&(c, q)) = self.steps.get(self.next) {
            if c > cap {
                break;
            }
            self.best = q;
            self.next += 1;
        }
        self.best
    }
}

/// Pairwise dominance over every tracked dimension (conservative /
/// cost-aware modes). Candidates are visited in `(parity, count, cap)`
/// presorted order, so a candidate can only be dominated by entries
/// already kept — except inside an exact sort-key tie group, which forms
/// the tail of `keep` and is scanned both ways. Survivors are compacted
/// back in original (generation) order.
fn prune_pairwise(
    cands: &mut Vec<DpCand>,
    cfg: &DpConfig,
    order: &mut Vec<u32>,
    keep: &mut Vec<u32>,
) {
    let noise_dims = cfg.conservative;
    let dominates = |k: &DpCand, c: &DpCand| -> bool {
        k.parity == c.parity
            && k.cap <= c.cap
            && k.q >= c.q
            && (!noise_dims || (k.cur <= c.cur && k.ns >= c.ns))
            && k.count <= c.count
            && (!cfg.cost_aware || k.cost <= c.cost)
    };
    order.clear();
    order.extend(0..u32::try_from(cands.len()).expect("candidate list fits u32"));
    order.sort_unstable_by(|&x, &y| {
        let (a, b) = (&cands[x as usize], &cands[y as usize]);
        a.parity
            .cmp(&b.parity)
            .then(a.count.cmp(&b.count))
            .then(a.cap.partial_cmp(&b.cap).expect("finite caps"))
            .then(x.cmp(&y)) // generation order breaks ties (first wins)
    });
    keep.clear();
    'outer: for &ci in order.iter() {
        let c = cands[ci as usize];
        for &ki in keep.iter() {
            if dominates(&cands[ki as usize], &c) {
                continue 'outer;
            }
        }
        // c can only dominate kept entries sharing its exact sort key
        // (k earlier in key order with k.count ≤/cap ≤ both ways forces
        // equality); those form a contiguous tail of `keep`.
        let same_key = |k: &DpCand| k.count == c.count && k.cap == c.cap && k.parity == c.parity;
        let mut start = keep.len();
        while start > 0 && same_key(&cands[keep[start - 1] as usize]) {
            start -= 1;
        }
        let mut j = start;
        while j < keep.len() {
            if dominates(&c, &cands[keep[j] as usize]) {
                keep.remove(j);
            } else {
                j += 1;
            }
        }
        keep.push(ci);
    }
    // Compact survivors in generation order (indices ascend, so in-place
    // copies never clobber unread entries).
    keep.sort_unstable();
    for (w, &ki) in keep.iter().enumerate() {
        cands[w] = cands[ki as usize];
    }
    cands.truncate(keep.len());
}

/// Applies the parent wire of a node to every candidate in place (paper
/// Step 6), dropping candidates whose noise slack dies. The arithmetic
/// matches the seed engine expression-for-expression (q and ns update
/// before cap and cur, which they read).
fn climb_in_place(
    list: &mut Vec<DpCand>,
    wire: &Wire,
    wire_current: f64,
    cfg: &DpConfig,
) -> Result<(), CoreError> {
    list.retain_mut(|c| {
        c.q -= wire.resistance * (wire.capacitance / 2.0 + c.cap);
        c.ns -= wire.resistance * (wire_current / 2.0 + c.cur);
        c.cap += wire.capacitance;
        c.cur += wire_current;
        !cfg.noise || c.ns >= -NOISE_TOL
    });
    if list.is_empty() {
        return Err(CoreError::NoFeasibleCandidate);
    }
    Ok(())
}

/// The candidate created by placing `buf` on top of `c`, with provenance
/// `prov`. The buffer flips the parity only when polarity is tracked:
/// otherwise every candidate keeps parity `false`, and each buffer count
/// is one class with one frontier.
fn buffered_candidate(
    c: &DpCand,
    buf: &BufferType,
    cfg: &DpConfig,
    q_new: f64,
    prov: u32,
) -> DpCand {
    DpCand {
        cap: buf.input_capacitance,
        q: q_new,
        cur: 0.0,
        ns: buf.noise_margin,
        count: c.count + 1,
        cost: c.cost + buf.cost,
        parity: c.parity ^ (cfg.polarity && buf.inverting),
        prov,
    }
}

/// Buffer-insertion step at a feasible node (paper Step 5 with the
/// boldface noise guard): for every buffer type and every count class,
/// the candidate producing the largest post-buffer slack — such that the
/// buffer can legally drive the subtree — spawns a new candidate. The
/// bids go class-major in one pass over the candidates ([`bid`]), and
/// the spawns are appended by [`emit_spawns`]. With cost tracking,
/// different downstream costs are incomparable, so every feasible
/// candidate spawns one, buffer-major (pairwise pruning collapses the
/// list afterwards).
fn insert_buffers_plain(
    v: NodeId,
    cands: &mut Vec<DpCand>,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    scratch: &mut DpScratch,
) {
    let DpScratch {
        arena,
        best,
        spawn_order,
        work,
        ..
    } = scratch;
    let n = cands.len();
    if cfg.cost_aware {
        for (bid, buf) in lib.entries() {
            for i in 0..n {
                let c = cands[i];
                if cfg.max_buffers.is_some_and(|max| c.count + 1 > max)
                    || cfg.noise && buf.resistance * c.cur > c.ns + NOISE_TOL
                {
                    continue;
                }
                let q_new = c.q - buf.delay(c.cap);
                let prov = arena.elem((v, bid), c.prov);
                cands.push(buffered_candidate(&c, buf, cfg, q_new, prov));
            }
        }
        return;
    }
    best.clear();
    for c in cands.iter() {
        bid(c, c.prov, NONE, lib, cfg, best, &mut work.bids);
    }
    emit_spawns(v, lib, cfg, best, spawn_order, arena, cands);
}

/// Offers `c`, whose partial solution is `join(left, right)`, to every
/// buffer's slot of its class in the class-major best table: a buffer
/// that can legally drive `c` takes it on a strict slack improvement, so
/// exact ties go to the earliest bidder. Counts the slots evaluated in
/// `bids`.
#[inline]
fn bid(
    c: &DpCand,
    left: u32,
    right: u32,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    best: &mut Vec<Option<BestBuf>>,
    bids: &mut u64,
) {
    if cfg.max_buffers.is_some_and(|max| c.count + 1 > max) {
        return;
    }
    let nbuf = lib.len();
    *bids += nbuf as u64;
    let row = (2 * c.count + usize::from(c.parity)) * nbuf;
    if best.len() < row + nbuf {
        best.resize(row + nbuf, None);
    }
    for ((_, buf), slot) in lib.entries().zip(&mut best[row..row + nbuf]) {
        if cfg.noise && buf.resistance * c.cur > c.ns + NOISE_TOL {
            continue; // the buffer would violate downstream noise
        }
        let q_new = c.q - buf.delay(c.cap);
        if slot.is_none_or(|s| q_new > s.q_new) {
            *slot = Some(BestBuf {
                q_new,
                cand: *c,
                left,
                right,
            });
        }
    }
}

/// One library entry in spawn order: the library sorted stably by input
/// capacitance, so the spawns of one target class — at most one per
/// buffer, each with its buffer's input capacitance as cap — come out
/// cap-ascending when visited in this order.
#[derive(Debug, Clone, Copy)]
struct SpawnOrder {
    /// Library index of the buffer.
    bi: usize,
    inverting: bool,
    /// Same input capacitance as the previous entry: the two spawns tie
    /// on cap and need the q-descending fix-up.
    tied: bool,
}

impl SpawnOrder {
    /// Rebuilds the spawn order of `lib` into `out`.
    fn fill(out: &mut Vec<SpawnOrder>, lib: &BufferLibrary) {
        out.clear();
        out.extend(lib.entries().enumerate().map(|(bi, (_, b))| SpawnOrder {
            bi,
            inverting: b.inverting,
            tied: false,
        }));
        let cap = |o: &SpawnOrder| lib.buffer(BufferId::from_index(o.bi)).input_capacitance;
        out.sort_by(|a, b| cap(a).partial_cmp(&cap(b)).expect("finite caps"));
        for k in 1..out.len() {
            out[k].tied = cap(&out[k]) == cap(&out[k - 1]);
        }
    }
}

/// Turns the best table's winners into buffered spawns appended to
/// `out`. Provenance is allocated buffer-major, then class-ascending,
/// whatever the emission order, so the arena layout does not depend on
/// it. For the sweep the spawns are appended in sweep order — target
/// class by class (parity, then count), each class's spawns by
/// [`SpawnOrder`], with equal-cap runs fixed up to q descending, then
/// buffer index — which is what the stable sweep sort makes of the
/// buffer-major order, so the node prune finds the tail already sorted.
/// The pairwise prune keeps survivors in generation order, so for it
/// they are appended buffer-major.
fn emit_spawns(
    v: NodeId,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    best: &mut [Option<BestBuf>],
    spawn_order: &[SpawnOrder],
    arena: &mut ProvArena<(NodeId, BufferId)>,
    out: &mut Vec<DpCand>,
) {
    let nbuf = lib.len();
    debug_assert_eq!(
        spawn_order.len(),
        nbuf,
        "scratch not reset for this library"
    );
    let classes = best.len() / nbuf;
    for (bi, (bid, buf)) in lib.entries().enumerate() {
        for class in 0..classes {
            if let Some(s) = &mut best[class * nbuf + bi] {
                let pred = arena.join(s.left, s.right);
                let prov = arena.elem((v, bid), pred);
                s.cand = buffered_candidate(&s.cand, buf, cfg, s.q_new, prov);
                if cfg.conservative {
                    out.push(s.cand);
                }
            }
        }
    }
    if cfg.conservative {
        return;
    }
    // A spawn of buffer b in target class (parity, count) comes from
    // source class (parity ^ flips_b, count − 1), where b flips the
    // parity only when polarity is tracked.
    let start = out.len();
    for parity in [false, true] {
        for count in 1..=classes.div_ceil(2) {
            let mut tie_start = out.len();
            for o in spawn_order {
                if !o.tied {
                    tie_start = out.len();
                }
                let class = 2 * (count - 1) + usize::from(parity ^ (cfg.polarity && o.inverting));
                let Some(Some(s)) = best.get(class * nbuf + o.bi) else {
                    continue;
                };
                out.push(s.cand);
                let mut k = out.len() - 1;
                while k > tie_start && out[k - 1].q < out[k].q {
                    out.swap(k - 1, k);
                    k -= 1;
                }
            }
        }
    }
    debug_assert!(
        out[start..].is_sorted_by(|a, b| sweep_order(a, b) != Ordering::Greater),
        "buffered spawns left out of sweep order"
    );
}

/// The Li–Shi sorted-frontier invariant every sweep-pruned candidate list
/// maintains (DESIGN §15): (parity, count) classes are contiguous and in
/// ascending order, and capacitance is non-decreasing within each class.
/// `sweep_prune` establishes it (with strictly ascending caps),
/// `climb_in_place` (uniform cap shift, order-preserving retain) and
/// `clamp_stratified` (sorted subsequence) preserve it, and memo-seeded
/// frontiers inherit it from the post-prune snapshot they were stored
/// from. The climb's shift is rounded per row, so it can turn two
/// adjacent ascending caps into a tie: strictness is not preserved.
fn frontier_is_class_sorted(list: &[DpCand]) -> bool {
    list.windows(2).all(|w| {
        let (a, b) = (&w[0], &w[1]);
        match a.parity.cmp(&b.parity).then(a.count.cmp(&b.count)) {
            Ordering::Less => true,
            Ordering::Equal => a.cap <= b.cap,
            Ordering::Greater => false,
        }
    })
}

/// Contiguous (parity, count) class ranges of a class-sorted list.
fn class_ranges(list: &[DpCand], out: &mut Vec<(u32, u32)>) {
    out.clear();
    let mut s = 0;
    while s < list.len() {
        let (count, parity) = (list[s].count, list[s].parity);
        let mut e = s + 1;
        while e < list.len() && list[e].count == count && list[e].parity == parity {
            e += 1;
        }
        out.push((s as u32, e as u32));
        s = e;
    }
}

/// Fills `wit[k]` with row k's *witness envelope*: the largest q among
/// earlier rows of the same (parity, count) class that can stand in for
/// row k in any merge pair — no larger cap (sort order), equal count and
/// parity, and, when `conditioned` (a noise-guarded best table is live),
/// no worse coupling current and no worse noise slack, so the witness
/// passes every buffer's legality guard whenever row k's pair does. A
/// merge pair `(k, b)` with `b.q ≤ wit[k]` is weakly dominated by the
/// witness pair `(w, b)` — generated earlier, cap no larger, merged q at
/// least as large — so the dominance sweep would discard it and its
/// best-table bids can never beat the witness's (strict `>` slot update,
/// earlier-equal wins). Skipping it changes nothing downstream. The skip
/// stays sound when a climb has tied the two caps: the witness pair then
/// has the same cap and a q at least as large, so under the stable
/// (cap ascending, q descending) sweep order it still sorts first and
/// dominates.
fn witness_envelopes(list: &[DpCand], conditioned: bool, wit: &mut Vec<f64>, qord: &mut Vec<u32>) {
    wit.clear();
    wit.resize(list.len(), f64::NEG_INFINITY);
    let mut s = 0;
    while s < list.len() {
        let (count, parity) = (list[s].count, list[s].parity);
        let mut e = s + 1;
        while e < list.len() && list[e].count == count && list[e].parity == parity {
            e += 1;
        }
        if !conditioned {
            let mut run = f64::NEG_INFINITY;
            for k in s..e {
                wit[k] = run;
                run = run.max(list[k].q);
            }
        } else {
            // Post-climb q is not monotone in cap, and the (cur, ns)
            // conditions are per-row: probe earlier rows in q-descending
            // order and stop at the first that qualifies — exactly the
            // conditioned max, usually found in one or two probes.
            qord.clear();
            qord.extend(s as u32..e as u32);
            qord.sort_unstable_by(|&x, &y| {
                list[y as usize]
                    .q
                    .partial_cmp(&list[x as usize].q)
                    .expect("finite slacks")
                    .then(x.cmp(&y))
            });
            for k in s..e {
                let c = &list[k];
                for &w in qord.iter() {
                    let w = w as usize;
                    if w < k && list[w].cur <= c.cur && list[w].ns >= c.ns {
                        wit[k] = list[w].q;
                        break;
                    }
                }
            }
        }
        s = e;
    }
}

/// What [`stair_offer`] did with a merge row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    /// The row joined its class's staircase.
    Kept,
    /// A row already on the staircase dominates it in `(C, q)`, so the
    /// final sweep would drop it; its bids may still win a slot.
    Dropped,
    /// Dropped, and the dominating row also wins every bid the row could
    /// make, so the row need not bid.
    Outbid,
}

/// Offers merge row `row` to its class's live staircase `st`: the rows
/// offered so far that no other offered row dominates, cap and q both
/// strictly ascending. Let `k` be the first step whose cap exceeds the
/// row's. If step `k − 1` — the best q at cap ≤ the row's — has q ≥ the
/// row's, the row is dropped (so an exact `(cap, q)` tie keeps the
/// earlier row, as the stable sweep does). Otherwise the row goes in and
/// evicts the steps it dominates: step `k − 1` if its cap is equal, and
/// the run from `k` on with q ≤ the row's. Weak dominance is transitive,
/// so after any sequence of offers the staircase is exactly the class's
/// survivors of one stable sweep over the whole sequence (DESIGN §15).
/// Counts the steps moved in `shifts`.
///
/// A dropped row is [`Offer::Outbid`] when its dominating step also has
/// cur ≤ and ns ≥ the row's, or whatever they are when `noise` is off.
/// That step was kept, so it bid; it passes the noise guard of every
/// buffer the row passes it for; and `q − (Db + Rb·C)` rounds
/// monotonically in q and C. So its bid is at least the row's in every
/// slot, and under the strict `>` slot update the row can win none.
#[inline]
fn stair_offer(
    st: &mut Vec<MergeRow>,
    row: MergeRow,
    noise: bool,
    shifts: &mut u64,
) -> Offer {
    let c = &row.cand;
    let k = st.partition_point(|s| s.cand.cap <= c.cap);
    if let Some(w) = k.checked_sub(1).map(|i| &st[i].cand) {
        if w.q >= c.q {
            return if !noise || (w.cur <= c.cur && w.ns >= c.ns) {
                Offer::Outbid
            } else {
                Offer::Dropped
            };
        }
    }
    let lo = if k > 0 && st[k - 1].cand.cap == c.cap {
        k - 1
    } else {
        k
    };
    let mut hi = k;
    while hi < st.len() && st[hi].cand.q <= c.q {
        hi += 1;
    }
    if hi == lo {
        *shifts += (st.len() - lo) as u64;
        st.insert(lo, row);
    } else {
        if hi - lo > 1 {
            *shifts += (st.len() - hi) as u64;
            st.drain(lo + 1..hi);
        }
        st[lo] = row;
    }
    Offer::Kept
}

/// Emits one legal merge pair `(a, b)` whose row has buffer count
/// `count`: offers the row, with its provenance join deferred, to its
/// class's live staircase `st`, and at a feasible site bids it into the
/// best table in generation order (so the buffered spawns are those of
/// the seed's insert_buffers over the materialized product) unless the
/// staircase shows it outbid.
// The enumeration calls this once per legal pair; flat arguments
// keep the hot loop free of aggregate construction.
#[allow(clippy::too_many_arguments)]
#[inline]
fn emit_pair(
    a: &DpCand,
    b: &DpCand,
    count: usize,
    st: &mut Vec<MergeRow>,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    feasible: bool,
    best: &mut Vec<Option<BestBuf>>,
    work: &mut DpWork,
) {
    let row = DpCand {
        cap: a.cap + b.cap,
        q: a.q.min(b.q),
        cur: a.cur + b.cur,
        ns: a.ns.min(b.ns),
        count,
        cost: a.cost + b.cost,
        parity: a.parity,
        prov: NONE,
    };
    let offer = stair_offer(
        st,
        MergeRow {
            cand: row,
            left: a.prov,
            right: b.prov,
        },
        cfg.noise,
        &mut work.merge_stair_shifts,
    );
    if offer != Offer::Kept {
        work.merge_rows_dropped += 1;
    }
    if feasible && offer != Offer::Outbid {
        bid(&row, a.prov, b.prov, lib, cfg, best, &mut work.bids);
    }
}

/// Moves the live staircases `stairs` (class `2·count + parity` at index
/// `class`) onto `rows` in sweep order — parity `false` first, then
/// count ascending — leaving them empty.
fn drain_stairs(stairs: &mut [Vec<MergeRow>], rows: &mut Vec<MergeRow>) {
    rows.clear();
    for parity in 0..2 {
        for st in stairs.iter_mut().skip(parity).step_by(2) {
            debug_assert!(
                st.windows(2)
                    .all(|w| w[0].cand.cap < w[1].cand.cap && w[0].cand.q < w[1].cand.q),
                "a live staircase is not strictly ascending"
            );
            rows.append(st);
        }
    }
}

/// Fused merge + buffer-insert + prune for the paper's (C, q) pruning
/// modes. Cross-product rows are generated with *deferred* provenance and
/// offered in generation order to one live `(C, q)` staircase per class
/// ([`stair_offer`]), which keeps exactly the class's frontier of the rows
/// so far; the best-per-(buffer, class) table is updated row by row in
/// the same order ([`emit_pair`]), skipping rows the staircase shows
/// outbid. Neither the |L|·|R| product nor its dominated rows are ever
/// held, so the `budget.admit_candidates` gate applies to the surviving
/// count. At the end the staircases, concatenated in sweep order, go
/// through one [`sweep_prune`] that sorts nothing and only applies the
/// lower-count check: the same rows, in the same order, as one stable
/// sweep over every generated row.
///
/// The enumeration itself goes Li–Shi (DESIGN §15): both operands are
/// class-sorted with ascending caps, so a per-row witness envelope
/// ([`witness_envelopes`]) bounds what any pair starting at that row
/// could contribute, and whole cap ranges of the partner frontier are
/// skipped *before* their cross products exist — via a per-class prefix-max binary search for the
/// window start and a suffix-min early break for its end. In the clean
/// monotone case this degenerates to the classic linear zip
/// (|L|+|R|−1 pairs); post-climb q non-monotonicity only shrinks the
/// skips, never the output. Skipped pairs are provably discarded by the
/// final dominance sweep and outbid in every best-buffer slot, so the
/// surviving rows, slot winners, provenance, and solutions are bitwise
/// those of the full enumeration.
///
/// Returns the pruned product followed by the freshly buffered
/// candidates, each run in sweep order, and the length of the first.
#[allow(clippy::too_many_arguments)]
fn merge_fused(
    v: NodeId,
    left: &[DpCand],
    right: &[DpCand],
    lib: &BufferLibrary,
    cfg: &DpConfig,
    feasible: bool,
    budget: &RunBudget,
    scratch: &mut DpScratch,
    stats: &mut DpStats,
) -> Result<(Vec<DpCand>, usize), CoreError> {
    debug_assert!(!cfg.conservative && !cfg.cost_aware);
    debug_assert!(
        cfg.polarity || left.iter().chain(right).all(|c| !c.parity),
        "a merge operand carries parity with polarity off"
    );
    debug_assert!(
        frontier_is_class_sorted(left),
        "left merge operand violates the sorted-frontier invariant"
    );
    debug_assert!(
        frontier_is_class_sorted(right),
        "right merge operand violates the sorted-frontier invariant"
    );
    let product = left.len().saturating_mul(right.len());
    let mut out = scratch.alloc();
    let DpScratch {
        arena,
        stairs,
        rows,
        frontier,
        head_rows,
        best,
        spawn_order,
        wit_l,
        wit_r,
        pmax_r,
        smin_r,
        rcls,
        qord,
        work,
        ..
    } = scratch;
    best.clear();
    // Every class a pair can land in: counts add, parity is shared. A
    // merge the budget cut short may have left its staircases filled.
    let top = |list: &[DpCand]| list.iter().map(|c| c.count).max().unwrap_or(0);
    let classes = 2 * (top(left) + top(right) + 1);
    if stairs.len() < classes {
        stairs.resize_with(classes, Vec::new);
    }
    let stairs = &mut stairs[..classes];
    stairs.iter_mut().for_each(Vec::clear);
    let mut generated = 0usize;
    let mut tick = 0usize;
    // The (cur, ns) witness conditions are only needed while a
    // noise-guarded best table is live; otherwise the plain per-class
    // prefix max is the (larger, still sound) envelope.
    let conditioned = feasible && cfg.noise;
    witness_envelopes(left, conditioned, wit_l, qord);
    witness_envelopes(right, conditioned, wit_r, qord);
    class_ranges(right, rcls);
    pmax_r.clear();
    pmax_r.resize(right.len(), 0.0);
    smin_r.clear();
    smin_r.resize(right.len(), 0.0);
    for &(s, e) in rcls.iter() {
        let (s, e) = (s as usize, e as usize);
        let mut run = f64::NEG_INFINITY;
        for j in s..e {
            run = run.max(right[j].q);
            pmax_r[j] = run;
        }
        let mut run = f64::INFINITY;
        for j in (s..e).rev() {
            run = run.min(wit_r[j]);
            smin_r[j] = run;
        }
    }
    // Outer index ascending over left, inner ascending over right:
    // the pairs that *are* emitted come out in exactly the lex order
    // of the full double loop, so staircase ties and best-table
    // ties resolve as the seed's generation order dictates.
    let mut ls = 0;
    while ls < left.len() {
        let (lc, lp) = (left[ls].count, left[ls].parity);
        let mut le = ls + 1;
        while le < left.len() && left[le].count == lc && left[le].parity == lp {
            le += 1;
        }
        for i in ls..le {
            let a = &left[i];
            let wa = wit_l[i];
            for &(rs, re) in rcls.iter() {
                let (rs, re) = (rs as usize, re as usize);
                let b0 = &right[rs];
                if b0.parity != lp {
                    continue; // whole block mixes parity
                }
                let count = lc + b0.count;
                if let Some(max) = cfg.max_buffers {
                    stats.cap_bound |= count > max || (feasible && count == max);
                    if count > max {
                        continue; // whole block busts the cap
                    }
                }
                let st = &mut stairs[2 * count + usize::from(lp)];
                // Rows below the window start can never beat a's
                // witness: their prefix-max q is within the envelope.
                let jlo = rs + pmax_r[rs..re].partition_point(|&p| p <= wa);
                for j in jlo..re {
                    // Stride checkpoint: without it a single huge
                    // merge would not observe the budget at all,
                    // overrunning deadlines and ignoring cancellation
                    // for the whole |L|·|R| product.
                    tick += 1;
                    if tick & (CHECK_STRIDE - 1) == 0 {
                        budget.checkpoint()?;
                    }
                    let b = &right[j];
                    if b.q <= wa {
                        continue; // a's witness covers this pair
                    }
                    if a.q <= smin_r[j] {
                        break; // every remaining row's witness covers a
                    }
                    if a.q <= wit_r[j] {
                        continue; // b's witness covers this pair
                    }
                    emit_pair(a, b, count, st, lib, cfg, feasible, best, work);
                    generated += 1;
                }
            }
        }
        ls = le;
    }
    stats.peak_merge_product = stats.peak_merge_product.max(generated);
    stats.merge_products_enumerated += generated;
    stats.merge_products_pruned += product - generated;
    if generated == 0 {
        return Err(CoreError::NoFeasibleCandidate);
    }
    drain_stairs(stairs, rows);
    let swept = rows.len();
    work.merge_rows_swept += swept as u64;
    // Each class is already its frontier, in sweep order: the pass sorts
    // nothing and only drops rows that a lower count dominates.
    work.prune_rows_sorted += sweep_prune(rows, swept, head_rows, frontier) as u64;
    out.reserve(rows.len());
    for r in rows.iter() {
        let mut c = r.cand;
        c.prov = arena.join(r.left, r.right);
        out.push(c);
    }
    if feasible {
        emit_spawns(v, lib, cfg, best, spawn_order, arena, &mut out);
    }
    Ok((out, rows.len()))
}

/// Degrade-in-place for the materialized merge: when the pending |L|·|R|
/// product would bust the candidate cap, deterministically clamp both
/// operands to ⌊√cap⌋ entries so the product fits, and record which
/// resource bent the run. No-op when the product is within budget.
fn degrade_merge_operands(
    left: &mut Vec<DpCand>,
    right: &mut Vec<DpCand>,
    budget: &RunBudget,
    stats: &mut DpStats,
) {
    let Some(cap) = budget.max_candidates else {
        return;
    };
    if left.len().saturating_mul(right.len()) <= cap {
        return;
    }
    // Integer ⌊√cap⌋ (seeded by the correctly-rounded float sqrt, then
    // corrected — exact for every usize, hence deterministic).
    let mut k = (cap as f64).sqrt() as usize;
    while k.saturating_mul(k) > cap {
        k -= 1;
    }
    while (k + 1).saturating_mul(k + 1) <= cap {
        k += 1;
    }
    let k = k.max(1);
    clamp_stratified(left, k);
    clamp_stratified(right, k);
    if stats.degraded_by.is_none() {
        stats.degraded_by = Some(BudgetResource::Candidates);
    }
}

/// Materialized merge for the pairwise pruning modes (conservative /
/// cost-aware), matching the seed engine: the full cross product is built
/// (and gated on the budget up front, as the seed did), then buffer
/// insertion scans it.
fn merge_materialized(
    left: &[DpCand],
    right: &[DpCand],
    cfg: &DpConfig,
    budget: &RunBudget,
    scratch: &mut DpScratch,
    stats: &mut DpStats,
) -> Result<Vec<DpCand>, CoreError> {
    let product = left.len().saturating_mul(right.len());
    // The merge product is the resource that explodes on adversarial
    // nets — gate on it *before* allocating.
    budget.admit_candidates(product)?;
    let mut out = scratch.alloc();
    out.reserve(left.len() + right.len());
    for a in left {
        for b in right {
            if a.parity != b.parity {
                continue;
            }
            let count = a.count + b.count;
            if let Some(max) = cfg.max_buffers {
                if count > max {
                    stats.cap_bound = true;
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
                prov: scratch.arena.join(a.prov, b.prov),
            });
        }
    }
    // The pairwise modes enumerate every legal pair; only the block
    // filters (polarity, buffer cap) count as pruned here.
    stats.peak_merge_product = stats.peak_merge_product.max(out.len());
    stats.merge_products_enumerated += out.len();
    stats.merge_products_pruned += product - out.len();
    if out.is_empty() {
        scratch.recycle(out);
        return Err(CoreError::NoFeasibleCandidate);
    }
    Ok(out)
}

/// Smallest subtree (node count, including the merge point) worth a memo
/// table entry: below this the lookup + snapshot overhead beats the DP
/// work saved.
const MEMO_MIN_SUBTREE: u32 = 4;

/// Digest seed binding the full optimizer configuration: two runs may
/// share a memo entry only when every knob that shapes a subtree frontier
/// is identical. Folded are the [`DpConfig`] flags, the subtree-pure
/// `max_candidates` budget knob (its gate depends only on the node's own
/// list, so a stored entry proves the storing run passed an identical
/// gate), and every electrical field of the buffer library (names are
/// display-only and stay out). Whole-run budget state (`max_arena_bytes`,
/// which also turns on degrade-in-place) cannot be folded — memoization
/// is disabled outright when it is set; time limits and cancellation
/// never change frontier *content*, only whether a run finishes.
fn memo_config_seed(cfg: &DpConfig, budget: &RunBudget, lib: &BufferLibrary) -> u64 {
    let mut h = Hasher64::new();
    h.write(&[
        u8::from(cfg.noise),
        u8::from(cfg.conservative),
        u8::from(cfg.polarity),
        u8::from(cfg.cost_aware),
    ]);
    let fold_opt = |h: &mut Hasher64, v: Option<usize>| match v {
        Some(x) => h.write(&(x as u64).to_le_bytes()),
        None => h.write(&[]),
    };
    fold_opt(&mut h, cfg.max_buffers);
    fold_opt(&mut h, budget.max_candidates);
    for (_, b) in lib.entries() {
        for f in [
            b.input_capacitance,
            b.resistance,
            b.intrinsic_delay,
            b.noise_margin,
            b.cost,
        ] {
            h.write(&f.to_bits().to_le_bytes());
        }
        h.write(&[u8::from(b.inverting)]);
    }
    h.finish()
}

/// What the DP loop should do at one node, decided up front by
/// [`plan_memo`].
enum PlanKind {
    /// Run the node normally (default; also all non-merge nodes).
    Normal,
    /// Eligible merge point that missed: run normally, then snapshot the
    /// pruned frontier into the table.
    StoreOnMiss,
    /// Eligible merge point that hit: materialize this stored frontier
    /// instead of computing the subtree.
    Seed(Arc<Vec<FrontierRow>>),
    /// Interior of a seeded subtree: never visited.
    Skip,
}

/// Per-run memo plan: lookups happen once, in a preorder walk, *before*
/// the DP runs. The topmost hit wins and its subtree is not descended
/// into, so nested hits neither inflate the lookup counters nor waste
/// digest comparisons.
struct MemoPlan {
    digests: SubtreeDigests,
    kinds: Vec<PlanKind>,
}

fn plan_memo(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    table: &MemoTable,
    seed: u64,
) -> MemoPlan {
    let digests = SubtreeDigests::compute(tree, scenario, seed);
    let mut kinds: Vec<PlanKind> = (0..tree.len()).map(|_| PlanKind::Normal).collect();
    let mut stack = vec![tree.source()];
    while let Some(v) = stack.pop() {
        // Only 2-child merge points are worth memoizing: that is where the
        // cross-product work lives, and a merged frontier summarizes the
        // whole subtree.
        if tree.children(v).len() == 2 && digests.subtree_nodes(v) >= MEMO_MIN_SUBTREE {
            if let Some(rows) = table.lookup(digests.canonical(v), digests.eval_sig(v)) {
                for &u in digests.subtree_slice(v) {
                    kinds[u.index()] = PlanKind::Skip;
                }
                kinds[v.index()] = PlanKind::Seed(rows);
                continue; // the subtree will not run; don't plan inside it
            }
            kinds[v.index()] = PlanKind::StoreOnMiss;
        }
        stack.extend_from_slice(tree.children(v));
    }
    MemoPlan { digests, kinds }
}

/// Materializes a stored frontier as this run's candidate list for `v`,
/// rebuilding provenance chains in the run's own arena so reconstruction
/// and audits are indistinguishable from a cold run.
fn seed_frontier(
    v: NodeId,
    rows: &[FrontierRow],
    plan: &MemoPlan,
    scratch: &mut DpScratch,
) -> Vec<DpCand> {
    let slice = plan.digests.subtree_slice(v);
    let mut list = scratch.alloc();
    for r in rows {
        let mut prov = NONE;
        for &(pos, buf) in &r.insertions {
            let node = slice[pos as usize];
            prov = scratch
                .arena
                .elem((node, BufferId::from_index(buf as usize)), prov);
        }
        list.push(DpCand {
            cap: r.cap,
            q: r.q,
            cur: r.cur,
            ns: r.ns,
            count: r.count as usize,
            cost: r.cost,
            parity: r.parity,
            prov,
        });
    }
    list
}

/// Snapshots the pruned frontier at `v` into the memo table, translating
/// each candidate's insertions to sorted subtree-relative postorder
/// coordinates so the snapshot is host-independent.
fn store_frontier(
    table: &MemoTable,
    v: NodeId,
    cands: &[DpCand],
    plan: &MemoPlan,
    scratch: &mut DpScratch,
) {
    let slice = plan.digests.subtree_slice(v);
    let base = plan.digests.position(slice[0]);
    let mut buf: Vec<(NodeId, BufferId)> = Vec::new();
    let rows: Vec<FrontierRow> = cands
        .iter()
        .map(|c| {
            buf.clear();
            scratch.arena.resolve_into(c.prov, &mut buf);
            let mut insertions: Vec<(u32, u32)> = buf
                .iter()
                .map(|&(n, b)| (plan.digests.position(n) - base, b.index() as u32))
                .collect();
            insertions.sort_unstable();
            FrontierRow {
                cap: c.cap,
                q: c.q,
                cur: c.cur,
                ns: c.ns,
                count: c.count as u32,
                cost: c.cost,
                parity: c.parity,
                insertions,
            }
        })
        .collect();
    table.store(plan.digests.canonical(v), plan.digests.eval_sig(v), rows);
}

/// Runs the DP over `tree` and returns every feasible source solution,
/// reduced to the best slack per buffer count (ascending count).
///
/// With `cfg.noise` set, `scenario` must match the tree and all returned
/// solutions satisfy every noise constraint.
///
/// With a `memo` table, at every eligible merge point whose subtree digest
/// hits the table (and whose evaluation signature matches — see
/// `buffopt-memo`), the stored pruned frontier is re-materialized with
/// fresh provenance and the subtree below is skipped entirely; misses run
/// normally and snapshot their frontier for the next run. Seeded runs
/// return solutions bitwise-identical to cold runs (the differential
/// tests assert this); only the run *statistics* may differ, since
/// skipped subtrees contribute no peak-candidate or merge-product samples.
///
/// Memoization is silently disabled when the table is absent or budget-0,
/// or when `budget.max_arena_bytes` is set: the arena-byte clamp is
/// whole-run state that a subtree-keyed entry cannot bind (and the only
/// way a run degrades in place), unlike the subtree-pure `max_candidates`
/// knob, which is folded into the digest seed.
#[cfg(test)]
pub(crate) fn run(
    scratch: &mut DpScratch,
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    budget: &RunBudget,
    memo: Option<&MemoTable>,
) -> Result<(Vec<SourceCand>, DpStats), CoreError> {
    let mut stats = DpStats::default();
    let solutions = run_into(scratch, tree, scenario, lib, cfg, budget, memo, &mut stats)?;
    Ok((solutions, stats))
}

/// [`run`], writing the statistics into `stats` (which starts at the
/// default) so a caller still reads them — `cap_bound` in particular —
/// when the run fails.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_into(
    scratch: &mut DpScratch,
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    budget: &RunBudget,
    memo: Option<&MemoTable>,
    stats: &mut DpStats,
) -> Result<Vec<SourceCand>, CoreError> {
    // A run refused before the DP starts counts no work.
    scratch.work = DpWork::default();
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
    // Start the wall clock now, not when the budget was built: a net that
    // waited in a batch queue still gets its whole time allowance.
    let budget = budget.armed();
    budget.admit_tree(tree.len())?;
    scratch.reset(tree.len(), lib);
    scratch.work.dp_runs = 1;
    let wire_current = |v: NodeId| -> f64 { scenario.map_or(0.0, |s| s.wire_current(tree, v)) };

    let memo = memo.filter(|t| t.enabled() && budget.max_arena_bytes.is_none());
    let plan = memo.map(|t| plan_memo(tree, scenario, t, memo_config_seed(cfg, &budget, lib)));

    let pairwise = cfg.conservative || cfg.cost_aware;
    for v in tree.postorder() {
        budget.checkpoint()?;
        let plan_kind = plan
            .as_ref()
            .map_or(&PlanKind::Normal, |p| &p.kinds[v.index()]);
        match plan_kind {
            PlanKind::Skip => continue,
            PlanKind::Seed(rows) => {
                let rows = Arc::clone(rows);
                let plan = plan.as_ref().expect("Seed implies a plan");
                let list = seed_frontier(v, &rows, plan, scratch);
                memo.expect("Seed implies a table").note_seeded();
                // The stored run's own cap rejections are invisible here.
                stats.cap_bound |= cfg.max_buffers.is_some();
                stats.peak_candidates = stats.peak_candidates.max(list.len());
                stats.peak_arena_bytes = stats.peak_arena_bytes.max(scratch.arena.bytes());
                scratch.lists[v.index()] = list;
                continue;
            }
            PlanKind::Normal | PlanKind::StoreOnMiss => {}
        }
        let store_here = matches!(plan_kind, PlanKind::StoreOnMiss);
        let feasible = tree.node(v).kind.is_feasible_site();
        // The fused path folds buffer insertion into the merge.
        let mut buffered = false;
        // `sorted` counts the leading candidates already in sweep order
        // (a climbed child frontier, or the fused merge's pruned product),
        // which the node's prune then need not sort again.
        let (mut cands, mut sorted) = if let Some(spec) = tree.sink_spec(v) {
            let mut list = scratch.alloc();
            list.push(DpCand {
                cap: spec.capacitance,
                q: spec.required_arrival_time,
                cur: 0.0,
                ns: spec.noise_margin,
                count: 0,
                cost: 0.0,
                parity: false,
                prov: NONE,
            });
            (list, 1)
        } else {
            match *tree.children(v) {
                [c] => {
                    let mut list = mem::take(&mut scratch.lists[c.index()]);
                    let wire = tree.parent_wire(c).expect("child has wire");
                    climb_in_place(&mut list, wire, wire_current(c), cfg)?;
                    let n = list.len();
                    (list, n)
                }
                [cl, cr] => {
                    let mut left = mem::take(&mut scratch.lists[cl.index()]);
                    let mut right = mem::take(&mut scratch.lists[cr.index()]);
                    let lw = tree.parent_wire(cl).expect("child has wire");
                    let rw = tree.parent_wire(cr).expect("child has wire");
                    climb_in_place(&mut left, lw, wire_current(cl), cfg)?;
                    climb_in_place(&mut right, rw, wire_current(cr), cfg)?;
                    let merged = if pairwise {
                        if budget.degrades() {
                            // The materialized merge gates |L|·|R| up
                            // front; under degrade-in-place, shrink the
                            // operands so the product fits instead of
                            // erroring.
                            degrade_merge_operands(&mut left, &mut right, &budget, stats);
                        }
                        let m = merge_materialized(&left, &right, cfg, &budget, scratch, stats)?;
                        (m, 0)
                    } else {
                        buffered = true;
                        merge_fused(
                            v, &left, &right, lib, cfg, feasible, &budget, scratch, stats,
                        )?
                    };
                    scratch.recycle(left);
                    scratch.recycle(right);
                    merged
                }
                _ => unreachable!("trees are binary and internals have children"),
            }
        };
        if feasible && !buffered {
            // A candidate at the cap has every bid rejected.
            stats.cap_bound |= cfg
                .max_buffers
                .is_some_and(|max| cands.iter().any(|c| c.count >= max));
            insert_buffers_plain(v, &mut cands, lib, cfg, scratch);
        }
        match budget.admit_candidates(cands.len()) {
            Ok(()) => {}
            Err(_) if budget.degrades() => {
                // Candidate-cap pressure under degrade-in-place: prune
                // first (the gate intentionally sees the pre-prune
                // count), then clamp the survivors to the cap. The run
                // finishes with a feasible-but-suboptimal frontier.
                prune(&mut cands, cfg, scratch, sorted);
                let cap = budget.max_candidates.unwrap_or(usize::MAX).max(1);
                clamp_stratified(&mut cands, cap);
                sorted = cands.len();
                if stats.degraded_by.is_none() {
                    stats.degraded_by = Some(BudgetResource::Candidates);
                }
            }
            Err(e) => return Err(e),
        }
        stats.peak_candidates = stats.peak_candidates.max(cands.len());
        prune(&mut cands, cfg, scratch, sorted);
        let arena_bytes = scratch.arena.bytes();
        stats.peak_arena_bytes = stats.peak_arena_bytes.max(arena_bytes);
        if budget.admit_arena_bytes(arena_bytes).is_err() {
            // An arena cap always degrades in place. Arena growth is
            // append-only, so once over the cap the run stays degraded:
            // clamp every subsequent frontier hard to slow further growth
            // to a crawl and finish.
            if stats.degraded_by.is_none() {
                stats.degraded_by = Some(BudgetResource::ArenaBytes);
            }
            clamp_stratified(&mut cands, DEGRADE_TOP_K);
        }
        if store_here {
            store_frontier(
                memo.expect("StoreOnMiss implies a table"),
                v,
                &cands,
                plan.as_ref().expect("StoreOnMiss implies a plan"),
                scratch,
            );
        }
        scratch.lists[v.index()] = cands;
    }

    // The driver (paper Fig. 10 Steps 2–4).
    let d = tree.driver();
    let source_list = mem::take(&mut scratch.lists[tree.source().index()]);
    struct Raw {
        slack: f64,
        count: usize,
        cost: f64,
        prov: u32,
    }
    let mut out: Vec<Raw> = Vec::new();
    for c in source_list.iter() {
        if cfg.noise && d.resistance * c.cur > c.ns + NOISE_TOL {
            continue;
        }
        if c.parity {
            continue; // sinks would receive the complemented signal
        }
        let slack = c.q - (d.intrinsic_delay + d.resistance * c.cap);
        out.push(Raw {
            slack,
            count: c.count,
            cost: c.cost,
            prov: c.prov,
        });
    }
    scratch.recycle(source_list);
    // Reduce: drop solutions dominated in (slack, count, cost).
    out.sort_by(|a, b| {
        a.count
            .cmp(&b.count)
            .then(a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .then(b.slack.partial_cmp(&a.slack).expect("finite slacks"))
    });
    let mut reduced: Vec<Raw> = Vec::new();
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
    // Reconstruction pass: only the reduced winners walk the arena.
    let solutions = reduced
        .into_iter()
        .map(|c| SourceCand {
            slack: c.slack,
            count: c.count,
            cost: c.cost,
            insertions: scratch.arena.resolve(c.prov),
        })
        .collect();
    Ok(solutions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_reference::{frontier_insert, frontier_max_q};
    use buffopt_buffers::{catalog, BufferType};
    use buffopt_tree::{Driver, SinkSpec, TreeBuilder};
    use proptest::prelude::*;

    fn cand(cap: f64, q: f64, count: usize) -> DpCand {
        DpCand {
            cap,
            q,
            cur: 0.0,
            ns: 1.0,
            count,
            cost: count as f64,
            parity: false,
            prov: NONE,
        }
    }

    fn prune_standalone(v: &mut Vec<DpCand>, cfg: &DpConfig) {
        let mut scratch = DpScratch::default();
        prune(v, cfg, &mut scratch, 0);
    }

    #[test]
    fn prune_keeps_2d_frontier() {
        let cfg = DpConfig {
            noise: false,
            ..DpConfig::default()
        };
        let mut v = vec![
            cand(1.0, 10.0, 0),
            cand(2.0, 9.0, 0),  // dominated: more cap, less q
            cand(0.5, 8.0, 0),  // survives: cheapest
            cand(3.0, 12.0, 0), // survives: best q
        ];
        prune_standalone(&mut v, &cfg);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn prune_lower_count_dominates_higher() {
        let cfg = DpConfig {
            noise: false,
            ..DpConfig::default()
        };
        let mut v = vec![cand(1.0, 10.0, 0), cand(1.5, 9.0, 2), cand(0.9, 11.0, 1)];
        // count-2 candidate is worse than count-0 in cap and q: dropped.
        prune_standalone(&mut v, &cfg);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|c| c.count != 2));
    }

    #[test]
    fn prune_conservative_keeps_noise_diverse() {
        let cfg = DpConfig {
            noise: true,
            conservative: true,
            ..DpConfig::default()
        };
        let mut a = cand(1.0, 10.0, 0);
        a.cur = 1e-3;
        a.ns = 0.1; // bad noise, good timing
        let mut b = cand(2.0, 8.0, 0);
        b.cur = 1e-6;
        b.ns = 0.8; // good noise, worse timing
        let mut v = vec![a, b];
        prune_standalone(&mut v, &cfg);
        assert_eq!(v.len(), 2, "conservative mode keeps the noise-clean one");
    }

    #[test]
    fn paper_prune_would_drop_the_noise_clean_one() {
        let cfg = DpConfig {
            noise: true,
            conservative: false,
            ..DpConfig::default()
        };
        let mut a = cand(1.0, 10.0, 0);
        a.cur = 1e-3;
        a.ns = 0.1;
        let mut b = cand(2.0, 8.0, 0);
        b.cur = 1e-6;
        b.ns = 0.8;
        let mut v = vec![a, b];
        prune_standalone(&mut v, &cfg);
        assert_eq!(v.len(), 1, "paper pruning is (C, q) only");
    }

    #[test]
    fn pairwise_prune_keeps_generation_order() {
        let cfg = DpConfig {
            noise: true,
            conservative: true,
            ..DpConfig::default()
        };
        // Mutually incomparable candidates in deliberately unsorted order.
        let mut a = cand(3.0, 12.0, 0);
        a.ns = 0.9;
        let mut b = cand(1.0, 10.0, 0);
        b.ns = 0.5;
        let mut c = cand(0.5, 8.0, 1);
        c.ns = 0.1;
        let mut v = vec![a, b, c];
        prune_standalone(&mut v, &cfg);
        assert_eq!(v.len(), 3);
        assert!((v[0].cap - 3.0).abs() < 1e-12, "generation order preserved");
        assert!((v[1].cap - 1.0).abs() < 1e-12);
        assert!((v[2].cap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frontier_queries() {
        let mut f: Vec<(f64, f64)> = Vec::new();
        frontier_insert(&mut f, 2.0, 5.0);
        frontier_insert(&mut f, 1.0, 3.0);
        frontier_insert(&mut f, 3.0, 4.0); // obsolete: q below prefix max
        assert_eq!(frontier_max_q(&f, 0.5), f64::NEG_INFINITY);
        assert!((frontier_max_q(&f, 1.0) - 3.0).abs() < 1e-12);
        assert!((frontier_max_q(&f, 2.5) - 5.0).abs() < 1e-12);
        assert!((frontier_max_q(&f, 10.0) - 5.0).abs() < 1e-12);
    }

    /// Dominance as each pruning mode defines it (weak form: ties count
    /// as domination, which is what makes "mutually non-dominated" mean
    /// "no duplicates survive either").
    fn dominates(k: &DpCand, c: &DpCand, cfg: &DpConfig) -> bool {
        if cfg.conservative || cfg.cost_aware {
            k.parity == c.parity
                && k.cap <= c.cap
                && k.q >= c.q
                && (!cfg.conservative || (k.cur <= c.cur && k.ns >= c.ns))
                && k.count <= c.count
                && (!cfg.cost_aware || k.cost <= c.cost)
        } else {
            k.parity == c.parity && k.count <= c.count && k.cap <= c.cap && k.q >= c.q
        }
    }

    /// Grid-quantized random candidate: coarse grids force the cap/q/cost
    /// ties that stress tie-group handling in both prune paths.
    fn grid_cand(g: (u8, u8, u8, u8, u8, u8)) -> DpCand {
        let (cap_g, q_g, cur_g, ns_g, count, flags) = g;
        DpCand {
            cap: f64::from(cap_g) * 5e-14,
            q: f64::from(q_g) * 2.5e-10 - 1e-9,
            cur: f64::from(cur_g) * 4e-5,
            ns: f64::from(ns_g) * 0.3,
            count: usize::from(count),
            cost: f64::from(flags >> 1) * 0.5,
            parity: flags & 1 == 1,
            prov: NONE,
        }
    }

    /// [`grid_cand`] as a run under `cfg` can produce it: with polarity
    /// off no buffer flips the parity, so every candidate has it clear.
    fn grid_cands(grids: &[(u8, u8, u8, u8, u8, u8)], cfg: &DpConfig) -> Vec<DpCand> {
        grids
            .iter()
            .map(|&g| {
                let mut c = grid_cand(g);
                c.parity &= cfg.polarity;
                c
            })
            .collect()
    }

    fn grid_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, u8, u8, u8)>> {
        prop::collection::vec((0u8..6, 0u8..10, 0u8..4, 0u8..4, 0u8..4, 0u8..8), 0..40)
    }

    fn prune_mode_matrix() -> Vec<DpConfig> {
        let base = DpConfig {
            noise: false,
            ..DpConfig::default()
        };
        vec![
            base,
            DpConfig {
                polarity: true,
                ..base
            },
            DpConfig {
                conservative: true,
                ..base
            },
            DpConfig {
                conservative: true,
                polarity: true,
                ..base
            },
            DpConfig {
                cost_aware: true,
                ..base
            },
            DpConfig {
                conservative: true,
                cost_aware: true,
                polarity: true,
                ..base
            },
        ]
    }

    /// The sweep prune as it stood before the staircase, kept as the
    /// oracle: a stable sort of the whole list, then the seed engine's
    /// binary-searched frontier queried and extended row by row.
    fn sweep_prune_oracle<R: Row>(items: &mut Vec<R>) {
        if items.len() <= 1 {
            return;
        }
        let mut frontier: Vec<(f64, f64)> = Vec::new();
        items.sort_by(|a, b| {
            let (a, b) = (a.cand(), b.cand());
            a.parity
                .cmp(&b.parity)
                .then(a.count.cmp(&b.count))
                .then(a.cap.partial_cmp(&b.cap).expect("finite caps"))
                .then(b.q.partial_cmp(&a.q).expect("finite slacks"))
        });
        let n = items.len();
        let mut i = 0;
        let mut write = 0;
        let mut prev_parity = items[0].cand().parity;
        while i < n {
            let head = *items[i].cand();
            let (count, parity) = (head.count, head.parity);
            if parity != prev_parity {
                frontier.clear();
                prev_parity = parity;
            }
            let class_start = write;
            let mut best_q = f64::NEG_INFINITY;
            while i < n {
                let r = items[i];
                let c = *r.cand();
                if c.count != count || c.parity != parity {
                    break;
                }
                let dominated = c.q <= best_q || frontier_max_q(&frontier, c.cap) >= c.q;
                if !dominated {
                    best_q = c.q;
                    items[write] = r;
                    write += 1;
                }
                i += 1;
            }
            for r in &items[class_start..write] {
                let c = r.cand();
                frontier_insert(&mut frontier, c.cap, c.q);
            }
        }
        items.truncate(write);
    }

    /// Every field of a candidate, bit for bit (so ±0.0 differ).
    fn cand_bits(c: &DpCand) -> (u64, u64, u64, u64, usize, u64, bool, u32) {
        (
            c.cap.to_bits(),
            c.q.to_bits(),
            c.cur.to_bits(),
            c.ns.to_bits(),
            c.count,
            c.cost.to_bits(),
            c.parity,
            c.prov,
        )
    }

    /// Row `i` of a sweep-prune fixture: coarse grids force cap ties,
    /// (cap, q) key ties and both signs of zero; `prov` is the row's
    /// input position, so rows with equal keys stay distinguishable and
    /// the output order is checked, not just the surviving set.
    fn sweep_row(i: usize, g: (u8, u8, u8, u8)) -> DpCand {
        let (cap_g, q_g, count, flags) = g;
        let signed = |x: f64, neg: bool| if neg { -x } else { x };
        DpCand {
            cap: signed(f64::from(cap_g) * 1e-14, cap_g == 0 && flags & 2 != 0),
            q: signed(f64::from(q_g) * 1e-10, q_g == 0 && flags & 4 != 0),
            cur: 0.0,
            ns: 1.0,
            count: usize::from(count),
            cost: 0.0,
            parity: flags & 1 == 1,
            prov: u32::try_from(i).expect("small fixture"),
        }
    }

    /// Buffer insertion as it stood before the class-major bids, kept as
    /// the oracle: one best table per buffer, filled buffer by buffer,
    /// and the spawns appended buffer-major, then class-ascending.
    /// Returns the per-buffer tables of winners.
    fn insert_buffers_oracle(
        v: NodeId,
        cands: &mut Vec<DpCand>,
        lib: &BufferLibrary,
        cfg: &DpConfig,
        arena: &mut ProvArena<(NodeId, BufferId)>,
    ) -> Vec<Vec<Option<BestBuf>>> {
        let mut best: Vec<Vec<Option<BestBuf>>> = vec![Vec::new(); lib.len()];
        let mut fresh = Vec::new();
        for (bi, (bid, buf)) in lib.entries().enumerate() {
            let table = &mut best[bi];
            for c in cands.iter() {
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
                    let prov = arena.elem((v, bid), c.prov);
                    fresh.push(buffered_candidate(c, buf, cfg, q_new, prov));
                    continue;
                }
                let class = 2 * c.count + usize::from(c.parity);
                if table.len() <= class {
                    table.resize(class + 1, None);
                }
                let slot = &mut table[class];
                if slot.is_none_or(|s| q_new > s.q_new) {
                    *slot = Some(BestBuf {
                        q_new,
                        cand: *c,
                        left: c.prov,
                        right: NONE,
                    });
                }
            }
            for slot in table.iter().flatten() {
                let pred = arena.join(slot.left, slot.right);
                let prov = arena.elem((v, bid), pred);
                fresh.push(buffered_candidate(&slot.cand, buf, cfg, slot.q_new, prov));
            }
        }
        cands.append(&mut fresh);
        best
    }

    /// A best-table slot, bit for bit.
    fn slot_bits(s: Option<BestBuf>) -> impl PartialEq + std::fmt::Debug {
        s.map(|s| (s.q_new.to_bits(), cand_bits(&s.cand), s.left, s.right))
    }

    /// Lays out the prefix hint a caller would pass: kind 0 sorts the
    /// first `split` rows and claims them, kind 1 sorts them and claims
    /// seven more (possibly past the end), kind 2 claims `split` unsorted
    /// rows. Returns the hint.
    fn apply_hint<R: Row>(rows: &mut [R], kind: u8, split: usize) -> usize {
        let split = split.min(rows.len());
        if kind != 2 {
            rows[..split].sort_by(|a, b| sweep_order(a.cand(), b.cand()));
        }
        if kind == 3 {
            // A climb tie's shape: neighbours swapped, the rest in order.
            for i in (0..split.saturating_sub(1)).step_by(5) {
                rows.swap(i, i + 1);
            }
        }
        if kind == 1 {
            split + 7
        } else {
            split
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After pruning, in every mode: no survivor dominates another,
        /// every dropped candidate is dominated by some survivor, and
        /// survivors are a subset of the input.
        #[test]
        fn prop_pruned_lists_mutually_non_dominated(grids in grid_strategy()) {
            for cfg in prune_mode_matrix() {
                let input = grid_cands(&grids, &cfg);
                let mut v = input.clone();
                prune_standalone(&mut v, &cfg);
                for (i, a) in v.iter().enumerate() {
                    for (j, b) in v.iter().enumerate() {
                        prop_assert!(
                            i == j || !dominates(a, b, &cfg),
                            "survivor {i} dominates survivor {j} (cfg {cfg:?})"
                        );
                    }
                }
                for c in input.iter() {
                    prop_assert!(
                        v.iter().any(|k| dominates(k, c, &cfg)),
                        "dropped candidate not covered by any survivor (cfg {cfg:?})"
                    );
                }
                let key = |c: &DpCand| (c.cap.to_bits(), c.q.to_bits(), c.count, c.parity);
                for s in v.iter() {
                    prop_assert!(input.iter().any(|c| key(c) == key(s)));
                }
            }
        }

        /// The pairwise prune (presorted, index-based) returns exactly what
        /// the naive generation-order O(n²) oracle returns, in the same
        /// order.
        #[test]
        fn prop_pairwise_prune_matches_naive_oracle(grids in grid_strategy()) {
            for cfg in prune_mode_matrix() {
                if !(cfg.conservative || cfg.cost_aware) {
                    continue;
                }
                let input = grid_cands(&grids, &cfg);
                let mut expect: Vec<DpCand> = Vec::new();
                'outer: for c in input.iter() {
                    for k in expect.iter() {
                        if dominates(k, c, &cfg) {
                            continue 'outer;
                        }
                    }
                    expect.retain(|k| !dominates(c, k, &cfg));
                    expect.push(*c);
                }
                let mut got = input.clone();
                prune_standalone(&mut got, &cfg);
                prop_assert_eq!(got.len(), expect.len(), "cfg {:?}", cfg);
                for (g, e) in got.iter().zip(expect.iter()) {
                    prop_assert!(
                        g.cap.to_bits() == e.cap.to_bits()
                            && g.q.to_bits() == e.q.to_bits()
                            && g.cur.to_bits() == e.cur.to_bits()
                            && g.ns.to_bits() == e.ns.to_bits()
                            && g.count == e.count
                            && g.cost.to_bits() == e.cost.to_bits()
                            && g.parity == e.parity,
                        "pairwise prune diverged from the oracle (cfg {:?})",
                        cfg
                    );
                }
            }
        }

        /// The run-merging staircase sweep returns bitwise the rows, in
        /// the order, that the full-sort oracle returns — for plain
        /// candidates and merge rows, whatever prefix hint the caller
        /// gives (right, too long, wrong, or off by neighbour swaps).
        #[test]
        fn prop_sweep_prune_matches_full_sort_oracle(
            grids in prop::collection::vec((0u8..5, 0u8..6, 0u8..3, 0u8..8), 0..48),
            kind in 0u8..4,
            split in 0usize..48,
        ) {
            let mut input: Vec<DpCand> =
                grids.iter().enumerate().map(|(i, &g)| sweep_row(i, g)).collect();
            let hint = apply_hint(&mut input, kind, split);
            let mut head = Vec::new();
            let mut frontier = Staircase::default();

            let mut got = input.clone();
            sweep_prune(&mut got, hint, &mut head, &mut frontier);
            let mut expect = input.clone();
            sweep_prune_oracle(&mut expect);
            let got: Vec<_> = got.iter().map(cand_bits).collect();
            let expect: Vec<_> = expect.iter().map(cand_bits).collect();
            prop_assert_eq!(got, expect);

            let rows: Vec<MergeRow> = input
                .iter()
                .map(|c| MergeRow { cand: *c, left: c.prov, right: !c.prov })
                .collect();
            let row_bits = |r: &MergeRow| (cand_bits(&r.cand), r.left, r.right);
            let mut head = Vec::new();
            let mut got = rows.clone();
            sweep_prune(&mut got, hint, &mut head, &mut frontier);
            let mut expect = rows;
            sweep_prune_oracle(&mut expect);
            let got: Vec<_> = got.iter().map(row_bits).collect();
            let expect: Vec<_> = expect.iter().map(row_bits).collect();
            prop_assert_eq!(got, expect);
        }

        /// The insertion fix-up, with the sort it falls back to, is the
        /// stable sort: equal keys keep their input order, whether the
        /// run was sorted, off by a few moves, or shuffled.
        #[test]
        fn prop_fix_up_is_the_stable_sort(
            keys in prop::collection::vec(0u8..6, 0..40),
            swaps in prop::collection::vec(0usize..40, 0..6),
            presort in prop::bool::ANY,
        ) {
            let mut run: Vec<(u8, usize)> = keys.iter().copied().zip(0..).collect();
            if presort {
                run.sort_by_key(|r| r.0);
                for &i in &swaps {
                    if i + 1 < run.len() {
                        run.swap(i, i + 1);
                    }
                }
            }
            let mut expect = run.clone();
            expect.sort_by_key(|r| r.0);
            let by_key = |a: &(u8, usize), b: &(u8, usize)| a.0.cmp(&b.0);
            let fixed = fix_up_run(&mut run, by_key);
            if !fixed {
                run.sort_by(by_key);
            }
            prop_assert_eq!(run, expect);
            if presort && swaps.len() <= 1 {
                prop_assert!(fixed, "one neighbour swap is within the fix-up's budget");
            }
        }

        /// Offering rows one at a time to their classes' live staircases,
        /// then one lower-count pass over the staircases in sweep order,
        /// leaves bitwise the rows, in the order, of one stable sweep over
        /// the whole sequence. Coarse grids force exact `(cap, q)` ties,
        /// equal caps, equal q and both signs of zero, and a row's
        /// provenance is its input position, so a tie resolved the wrong
        /// way shows.
        #[test]
        fn prop_live_staircases_equal_the_stable_sweep(
            grids in prop::collection::vec((0u8..5, 0u8..6, 0u8..3, 0u8..8), 0..64),
            noise in prop::bool::ANY,
        ) {
            let rows: Vec<MergeRow> = grids
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    let c = sweep_row(i, g);
                    MergeRow { cand: c, left: c.prov, right: !c.prov }
                })
                .collect();
            let mut stairs = vec![Vec::new(); 6];
            let mut shifts = 0;
            for r in &rows {
                let class = 2 * r.cand.count + usize::from(r.cand.parity);
                stair_offer(&mut stairs[class], *r, noise, &mut shifts);
            }
            for st in &stairs {
                prop_assert!(
                    st.windows(2)
                        .all(|w| w[0].cand.cap < w[1].cand.cap && w[0].cand.q < w[1].cand.q),
                    "a staircase is not strictly ascending"
                );
            }
            let mut got = Vec::new();
            drain_stairs(&mut stairs, &mut got);
            prop_assert!(stairs.iter().all(Vec::is_empty));
            let n = got.len();
            let sorted = sweep_prune(&mut got, n, &mut Vec::new(), &mut Staircase::default());
            prop_assert_eq!(sorted, 0, "the staircases arrive in sweep order");
            let mut expect = rows;
            sweep_prune_oracle(&mut expect);
            let row_bits = |r: &MergeRow| (cand_bits(&r.cand), r.left, r.right);
            let got: Vec<_> = got.iter().map(row_bits).collect();
            let expect: Vec<_> = expect.iter().map(row_bits).collect();
            prop_assert_eq!(got, expect);
        }

        /// Skipping the bids of the rows a staircase shows outbid leaves
        /// the best table bitwise the one every row bidding builds, with
        /// and without noise, polarity and a buffer cap.
        #[test]
        fn prop_outbid_rows_never_win_a_slot(grids in grid_strategy()) {
            let lib = catalog::ibm_like();
            let modes = [
                DpConfig::default(),
                DpConfig { noise: false, ..DpConfig::default() },
                DpConfig { polarity: true, ..DpConfig::default() },
                DpConfig { max_buffers: Some(2), ..DpConfig::default() },
            ];
            for cfg in modes {
                let mut stairs = vec![Vec::new(); 8];
                let (mut skipping, mut every) = (Vec::new(), Vec::new());
                let (mut bids_skipping, mut bids_every, mut shifts) = (0, 0, 0);
                for (i, c) in grid_cands(&grids, &cfg).iter().enumerate() {
                    let (left, right) = (i as u32, !(i as u32));
                    let row = MergeRow { cand: *c, left, right };
                    let class = 2 * c.count + usize::from(c.parity);
                    let offer = stair_offer(&mut stairs[class], row, cfg.noise, &mut shifts);
                    if offer != Offer::Outbid {
                        bid(c, left, right, &lib, &cfg, &mut skipping, &mut bids_skipping);
                    }
                    bid(c, left, right, &lib, &cfg, &mut every, &mut bids_every);
                }
                prop_assert!(bids_skipping <= bids_every);
                let skipping: Vec<_> = skipping.into_iter().map(slot_bits).collect();
                let every: Vec<_> = every.into_iter().map(slot_bits).collect();
                prop_assert_eq!(skipping, every, "cfg {:?}", cfg);
            }
        }

        /// Class-major bids and the sweep-ordered spawn emitter against the
        /// buffer-major oracle, on class-sorted lists and small random
        /// libraries whose coarse grids repeat input capacitances (so
        /// equal-cap spawns share a target class) and whole buffers (so
        /// those spawns also tie on q): the spawns are the stable
        /// sweep-order sort of the oracle's, row for row and bit for bit,
        /// provenance indices included; every best-slot winner is the
        /// oracle's; and the arena is the same size with every spawn
        /// resolving to the same insertions. The pairwise modes keep the
        /// oracle's order outright.
        #[test]
        fn prop_spawn_emitter_matches_buffer_major_oracle(
            grids in prop::collection::vec((0u8..5, 0u8..6, 0u8..3, 0u8..3, 0u8..4, 0u8..2), 0..30),
            buffers in prop::collection::vec((0u8..3, 0u8..2, 0u8..2, prop::bool::ANY, 0u8..2), 1..9),
        ) {
            let lib: BufferLibrary = buffers
                .iter()
                .enumerate()
                .map(|(i, &(c, r, d, inverting, nm))| {
                    let b = BufferType::new(
                        format!("b{i}"),
                        f64::from(c + 1) * 4e-15,
                        f64::from(r + 1) * 900.0,
                        f64::from(d + 1) * 20e-12,
                        0.5 + f64::from(nm) * 0.3,
                    )
                    .with_cost(f64::from(c + 1));
                    if inverting { b.inverting() } else { b }
                })
                .collect();
            let n = grids.len();
            let v = NodeId::from_index(n);
            let modes = [
                DpConfig::default(),
                DpConfig { noise: false, ..DpConfig::default() },
                DpConfig { max_buffers: Some(2), ..DpConfig::default() },
                DpConfig { polarity: true, ..DpConfig::default() },
                DpConfig { conservative: true, ..DpConfig::default() },
                DpConfig { cost_aware: true, ..DpConfig::default() },
            ];
            for cfg in modes {
                let mut input = grid_cands(&grids, &cfg);
                input.sort_by(sweep_order);
                let mut s = DpScratch::default();
                s.reset(1, &lib);
                let mut got = input.clone();
                stamp_provenance(&mut s.arena, [&mut got, &mut []]);
                let mut oracle_arena = ProvArena::default();
                let mut expect = input.clone();
                stamp_provenance(&mut oracle_arena, [&mut expect, &mut []]);
                let winners: Vec<DpCand> = got.clone();

                insert_buffers_plain(v, &mut got, &lib, &cfg, &mut s);
                let tables = insert_buffers_oracle(v, &mut expect, &lib, &cfg, &mut oracle_arena);
                let mut spawns = expect[n..].to_vec();
                if !cfg.conservative && !cfg.cost_aware {
                    spawns.sort_by(sweep_order);
                }
                let got_bits: Vec<_> = got.iter().map(cand_bits).collect();
                let expect_bits: Vec<_> =
                    expect[..n].iter().chain(&spawns).map(cand_bits).collect();
                prop_assert_eq!(got_bits, expect_bits, "cfg {:?}", cfg);
                prop_assert_eq!(s.arena.bytes(), oracle_arena.bytes());
                for c in &got[n..] {
                    prop_assert_eq!(s.arena.resolve(c.prov), oracle_arena.resolve(c.prov));
                }

                if !cfg.cost_aware {
                    let mut best = Vec::new();
                    for c in &winners {
                        bid(c, c.prov, NONE, &lib, &cfg, &mut best, &mut 0);
                    }
                    let classes = (best.len() / lib.len()).max(tables.iter().map(Vec::len).max().unwrap_or(0));
                    for (bi, table) in tables.iter().enumerate() {
                        for class in 0..classes {
                            let new = best.get(class * lib.len() + bi).copied().flatten();
                            let old = table.get(class).copied().flatten();
                            prop_assert_eq!(slot_bits(new), slot_bits(old), "buffer {} class {}", bi, class);
                        }
                    }
                }
            }
        }

        /// Fused merge-prune computes exactly `prune(insert_buffers(merge(L, R)))`
        /// of the materialized seed pipeline, in every sweep-pruned mode —
        /// the core claim that lets the |L|·|R| product stay virtual.
        /// Operands honor the production contract (post-prune, then a
        /// wire climb so q is *not* monotone within classes), which is
        /// exactly where the predictive witness skips are subtlest.
        #[test]
        fn prop_fused_merge_equals_prune_of_materialized(
            lg in grid_strategy(),
            rg in grid_strategy(),
            feasible in prop::bool::ANY,
            wr in 0.0f64..200.0,
            wc in 0.0f64..4e-14,
            iw in 0.0f64..2e-5,
        ) {
            let lib = catalog::ibm_like();
            let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
            b.add_sink(
                b.source(),
                Wire::from_rc(1.0, 1e-15, 1.0),
                SinkSpec::new(1e-15, 1e-9, 0.5),
            )
            .expect("sink");
            let tree = b.build().expect("tree");
            let v = tree.source();
            let budget = RunBudget::default().armed();
            let wire = Wire::from_rc(wr, wc, 1.0);
            let sweep_modes = [
                DpConfig { noise: false, ..DpConfig::default() },
                DpConfig::default(),
                DpConfig { polarity: true, ..DpConfig::default() },
                DpConfig { max_buffers: Some(3), noise: false, ..DpConfig::default() },
            ];
            for cfg in sweep_modes {
                // Merge operands are always pruned frontiers climbed up a
                // wire — reproduce that here so the sorted-frontier
                // contract holds and q-monotonicity is broken.
                let mut left = grid_cands(&lg, &cfg);
                let mut right = grid_cands(&rg, &cfg);
                let mut s0 = DpScratch::default();
                s0.reset(2, &lib);
                prune(&mut left, &cfg, &mut s0, 0);
                prune(&mut right, &cfg, &mut s0, 0);
                if left.is_empty()
                    || right.is_empty()
                    || climb_in_place(&mut left, &wire, iw, &cfg).is_err()
                    || climb_in_place(&mut right, &wire, iw, &cfg).is_err()
                {
                    continue;
                }
                let mut s1 = DpScratch::default();
                s1.reset(2, &lib);
                let mut stats1 = DpStats::default();
                let fused = merge_fused(
                    v, &left, &right, &lib, &cfg, feasible, &budget, &mut s1, &mut stats1,
                );
                let mut s2 = DpScratch::default();
                s2.reset(2, &lib);
                let mut stats2 = DpStats::default();
                let mat = merge_materialized(&left, &right, &cfg, &budget, &mut s2, &mut stats2);
                match (fused, mat) {
                    (Ok((mut f, head)), Ok(mut m)) => {
                        if feasible {
                            insert_buffers_plain(v, &mut m, &lib, &cfg, &mut s2);
                        }
                        prune(&mut f, &cfg, &mut s1, head);
                        prune(&mut m, &cfg, &mut s2, 0);
                        prop_assert_eq!(f.len(), m.len(), "cfg {:?}", cfg);
                        for (a, b) in f.iter().zip(m.iter()) {
                            prop_assert!(
                                a.cap.to_bits() == b.cap.to_bits()
                                    && a.q.to_bits() == b.q.to_bits()
                                    && a.cur.to_bits() == b.cur.to_bits()
                                    && a.ns.to_bits() == b.ns.to_bits()
                                    && a.count == b.count
                                    && a.cost.to_bits() == b.cost.to_bits()
                                    && a.parity == b.parity,
                                "fused row diverged from materialized pipeline (cfg {:?})",
                                cfg
                            );
                        }
                        // The predictive merge enumerates a subset of the
                        // legal pairs; the split conserves the raw product.
                        prop_assert!(stats1.peak_merge_product <= stats2.peak_merge_product);
                        prop_assert!(
                            stats1.merge_products_enumerated <= stats2.merge_products_enumerated
                        );
                        prop_assert_eq!(
                            stats1.merge_products_enumerated + stats1.merge_products_pruned,
                            stats2.merge_products_enumerated + stats2.merge_products_pruned
                        );
                        prop_assert_eq!(
                            stats2.merge_products_enumerated + stats2.merge_products_pruned,
                            left.len() * right.len()
                        );
                    }
                    (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                    (f, m) => prop_assert!(
                        false,
                        "engines disagree on feasibility: fused {:?}, materialized {:?}",
                        f.map(|x| x.0.len()),
                        m.map(|x| x.len())
                    ),
                }
            }
        }

        /// The sorted-frontier invariant (DESIGN §15) survives the whole
        /// per-node pipeline: sweep_prune establishes classes in order
        /// with strictly ascending caps and ascending q, a wire climb
        /// preserves the order (while freely breaking q-monotonicity),
        /// and the fused merge's pruned output re-establishes it.
        #[test]
        fn prop_sorted_invariant_across_prune_climb_merge(
            lg in grid_strategy(),
            rg in grid_strategy(),
            wr in 0.0f64..200.0,
            wc in 0.0f64..4e-14,
        ) {
            let lib = catalog::ibm_like();
            let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
            b.add_sink(
                b.source(),
                Wire::from_rc(1.0, 1e-15, 1.0),
                SinkSpec::new(1e-15, 1e-9, 0.5),
            )
            .expect("sink");
            let tree = b.build().expect("tree");
            let cfg = DpConfig { noise: false, ..DpConfig::default() };
            let wire = Wire::from_rc(wr, wc, 1.0);
            let budget = RunBudget::default().armed();
            let mut left = grid_cands(&lg, &cfg);
            let mut right = grid_cands(&rg, &cfg);
            let mut s = DpScratch::default();
            s.reset(2, &lib);
            prune(&mut left, &cfg, &mut s, 0);
            prune(&mut right, &cfg, &mut s, 0);
            prop_assert!(frontier_is_class_sorted(&left), "post-prune left unsorted");
            prop_assert!(frontier_is_class_sorted(&right), "post-prune right unsorted");
            // Within a class, post-prune q must ascend with cap.
            for list in [&left, &right] {
                for w in list.windows(2) {
                    if w[0].parity == w[1].parity && w[0].count == w[1].count {
                        prop_assert!(w[0].q < w[1].q, "post-prune q not ascending in class");
                    }
                }
            }
            if left.is_empty()
                || right.is_empty()
                || climb_in_place(&mut left, &wire, 0.0, &cfg).is_err()
                || climb_in_place(&mut right, &wire, 0.0, &cfg).is_err()
            {
                return Ok(());
            }
            prop_assert!(frontier_is_class_sorted(&left), "post-climb left unsorted");
            prop_assert!(frontier_is_class_sorted(&right), "post-climb right unsorted");
            let mut stats = DpStats::default();
            if let Ok((mut merged, _)) = merge_fused(
                tree.source(), &left, &right, &lib, &cfg, false, &budget, &mut s, &mut stats,
            ) {
                prop_assert!(
                    frontier_is_class_sorted(&merged),
                    "fused merge output unsorted"
                );
                let n = merged.len();
                prune(&mut merged, &cfg, &mut s, 0);
                prop_assert_eq!(merged.len(), n, "fused output was not fully pruned");
            }
            let key = |c: &DpCand| (c.cap.to_bits(), c.q.to_bits(), c.count, c.parity);
            let clamp_keys: Vec<_> = {
                let mut l = left.clone();
                clamp_stratified(&mut l, 5);
                prop_assert!(
                    frontier_is_class_sorted(&l),
                    "clamp_stratified broke the sorted invariant"
                );
                l.iter().map(key).collect()
            };
            prop_assert!(clamp_keys.len() <= 5.max(left.len()));
        }

        /// Predictive-prune-never-drops-a-frontier-row oracle: every row
        /// the naive cross-product merge + dominance prune keeps must
        /// come out of the fused predictive merge bitwise — the skips may
        /// only discard rows the sweep would have discarded anyway.
        #[test]
        fn prop_predictive_merge_keeps_every_frontier_row(
            lg in prop::collection::vec((0u8..6, 0u8..10, 0u8..4, 0u8..4, 0u8..4, 0u8..8), 16..40),
            rg in prop::collection::vec((0u8..6, 0u8..10, 0u8..4, 0u8..4, 0u8..4, 0u8..8), 16..40),
            wr in 0.0f64..200.0,
            wc in 0.0f64..4e-14,
            iw in 0.0f64..2e-5,
        ) {
            let lib = catalog::ibm_like();
            let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
            b.add_sink(
                b.source(),
                Wire::from_rc(1.0, 1e-15, 1.0),
                SinkSpec::new(1e-15, 1e-9, 0.5),
            )
            .expect("sink");
            let tree = b.build().expect("tree");
            let budget = RunBudget::default().armed();
            let wire = Wire::from_rc(wr, wc, 1.0);
            for cfg in [
                DpConfig { noise: false, ..DpConfig::default() },
                DpConfig::default(),
            ] {
                let mut left = grid_cands(&lg, &cfg);
                let mut right = grid_cands(&rg, &cfg);
                let mut s = DpScratch::default();
                s.reset(2, &lib);
                prune(&mut left, &cfg, &mut s, 0);
                prune(&mut right, &cfg, &mut s, 0);
                if left.is_empty()
                    || right.is_empty()
                    || climb_in_place(&mut left, &wire, iw, &cfg).is_err()
                    || climb_in_place(&mut right, &wire, iw, &cfg).is_err()
                {
                    continue;
                }
                // Naive oracle: materialize every legal pair, then prune.
                let mut naive: Vec<DpCand> = Vec::new();
                for a in &left {
                    for b in &right {
                        naive.push(DpCand {
                            cap: a.cap + b.cap,
                            q: a.q.min(b.q),
                            cur: a.cur + b.cur,
                            ns: a.ns.min(b.ns),
                            count: a.count + b.count,
                            cost: a.cost + b.cost,
                            parity: a.parity,
                            prov: NONE,
                        });
                    }
                }
                prune(&mut naive, &cfg, &mut s, 0);
                let mut stats = DpStats::default();
                let (fused, _) = merge_fused(
                    tree.source(), &left, &right, &lib, &cfg, false, &budget, &mut s, &mut stats,
                )
                .expect("operands are non-empty");
                let fkey = |c: &DpCand| {
                    (
                        c.cap.to_bits(), c.q.to_bits(), c.cur.to_bits(), c.ns.to_bits(),
                        c.count, c.cost.to_bits(), c.parity,
                    )
                };
                let fused_keys: Vec<_> = fused.iter().map(fkey).collect();
                for row in &naive {
                    prop_assert!(
                        fused_keys.contains(&fkey(row)),
                        "predictive merge dropped a frontier row (cfg {:?})",
                        cfg
                    );
                }
            }
        }

        /// The seed engine's incremental frontier and the sweep's staircase
        /// answer every query exactly like a flat list of all inserted
        /// points scanned in O(n).
        #[test]
        fn prop_frontier_matches_naive_oracle(
            ops in prop::collection::vec((0u8..12, 0u8..12, prop::bool::ANY), 1..60)
        ) {
            let mut frontier: Vec<(f64, f64)> = Vec::new();
            let mut stairs = Staircase::default();
            let mut naive: Vec<(f64, f64)> = Vec::new();
            for (cap_g, q_g, is_insert) in ops {
                let cap = f64::from(cap_g) * 0.25;
                let q = f64::from(q_g) * 0.5 - 2.0;
                if is_insert {
                    frontier_insert(&mut frontier, cap, q);
                    stairs.absorb(&[cand(cap, q, 0)]);
                    naive.push((cap, q));
                } else {
                    let got = frontier_max_q(&frontier, cap);
                    let expect = naive
                        .iter()
                        .filter(|&&(c, _)| c <= cap)
                        .map(|&(_, q)| q)
                        .fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(
                        got == expect,
                        "query at {cap}: frontier says {got}, oracle says {expect}"
                    );
                    let got = stairs.cursor().best_at(cap);
                    prop_assert!(
                        got == expect,
                        "query at {cap}: staircase says {got}, oracle says {expect}"
                    );
                }
            }
        }
    }

    /// Deterministic guarantee that the predictive windows skip pairs on
    /// a climbed, q-non-monotone operand and still agree bitwise with
    /// prune-of-naive-cross-product: the proptests above only reach such
    /// skips probabilistically.
    #[test]
    fn predictive_path_matches_naive_on_large_frontiers() {
        let lib = catalog::ibm_like();
        let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
        b.add_sink(
            b.source(),
            Wire::from_rc(1.0, 1e-15, 1.0),
            SinkSpec::new(1e-15, 1e-9, 0.5),
        )
        .expect("sink");
        let tree = b.build().expect("tree");
        let budget = RunBudget::default().armed();
        let cfg = DpConfig {
            noise: false,
            ..DpConfig::default()
        };
        // Mutually non-dominated staircases (cap and q both strictly
        // ascending, irregular steps) survive the prune intact, so the
        // raw product stays large; the climb then turns the irregular
        // steps into non-monotone q, the hard case for the windows.
        let staircase = |phase: usize| -> Vec<DpCand> {
            let mut cap = 1e-14;
            let mut q = -1e-9;
            (0..20usize)
                .map(|i| {
                    cap += (1 + (i * 3 + phase) % 7) as f64 * 2e-15;
                    q += (1 + (i * 5 + phase) % 11) as f64 * 1e-13;
                    DpCand {
                        cap,
                        q,
                        cur: 1e-5,
                        ns: 0.4,
                        count: 0,
                        cost: 0.0,
                        parity: false,
                        prov: NONE,
                    }
                })
                .collect()
        };
        let mut left = staircase(0);
        let mut right = staircase(4);
        let mut s = DpScratch::default();
        s.reset(2, &lib);
        prune(&mut left, &cfg, &mut s, 0);
        prune(&mut right, &cfg, &mut s, 0);
        let wire = Wire::from_rc(120.0, 2e-14, 1.0);
        climb_in_place(&mut left, &wire, 1e-5, &cfg).expect("left survives");
        climb_in_place(&mut right, &wire, 1e-5, &cfg).expect("right survives");
        assert!(
            left.windows(2).any(|w| w[1].q < w[0].q),
            "climb failed to break q-monotonicity; fixture too tame"
        );
        let mut naive: Vec<DpCand> = Vec::with_capacity(left.len() * right.len());
        for a in &left {
            for bb in &right {
                naive.push(DpCand {
                    cap: a.cap + bb.cap,
                    q: a.q.min(bb.q),
                    cur: a.cur + bb.cur,
                    ns: a.ns.min(bb.ns),
                    count: a.count + bb.count,
                    cost: a.cost + bb.cost,
                    parity: a.parity,
                    prov: NONE,
                });
            }
        }
        prune(&mut naive, &cfg, &mut s, 0);
        let mut stats = DpStats::default();
        let (fused, _) = merge_fused(
            tree.source(),
            &left,
            &right,
            &lib,
            &cfg,
            false,
            &budget,
            &mut s,
            &mut stats,
        )
        .expect("operands are non-empty");
        assert!(
            stats.merge_products_pruned > 0,
            "predictive path skipped nothing on a {}x{} product",
            left.len(),
            right.len()
        );
        assert_eq!(
            stats.merge_products_enumerated + stats.merge_products_pruned,
            left.len() * right.len()
        );
        assert_eq!(fused.len(), naive.len());
        for (a, bb) in fused.iter().zip(naive.iter()) {
            assert_eq!(a.cap.to_bits(), bb.cap.to_bits());
            assert_eq!(a.q.to_bits(), bb.q.to_bits());
            assert_eq!(a.count, bb.count);
        }
    }

    /// A pruned frontier of `counts` buffer counts, `per` rows per class,
    /// in both parities under polarity (in parity `false` alone without):
    /// cap and q step irregularly, each count's q sits above every lower
    /// count's (so the prune keeps all of it), and the noise fields vary
    /// row to row so the conditioned witnesses differ from the plain ones.
    fn class_staircases(counts: usize, per: usize, phase: usize, cfg: &DpConfig) -> Vec<DpCand> {
        let mut out = Vec::new();
        for &parity in &[false, true][..1 + usize::from(cfg.polarity)] {
            for count in 0..counts {
                let (mut cap, mut q) = (1e-14, -1e-9 + count as f64 * 6e-11);
                for i in 0..per {
                    let k = i + phase + 3 * count + usize::from(parity);
                    cap += (1 + (3 * k) % 7) as f64 * 2e-15;
                    q += (1 + (5 * k) % 11) as f64 * 1e-13;
                    out.push(DpCand {
                        cap,
                        q,
                        cur: (1 + (7 * k) % 3) as f64 * 1e-5,
                        ns: 0.3 + 0.1 * ((11 * k) % 4) as f64,
                        count,
                        cost: count as f64,
                        parity,
                        prov: NONE,
                    });
                }
            }
        }
        out
    }

    /// Gives every operand row its own one-insertion provenance, so the
    /// resolved insertions of merged rows and spawns are checked, not
    /// just their electrical fields. Both pipelines stamp fresh arenas in
    /// the same order, so the operand indices agree.
    fn stamp_provenance(arena: &mut ProvArena<(NodeId, BufferId)>, lists: [&mut [DpCand]; 2]) {
        let mut k = 0;
        for list in lists {
            for c in list.iter_mut() {
                c.prov = arena.elem((NodeId::from_index(k), BufferId::from_index(k % 3)), NONE);
                k += 1;
            }
        }
    }

    /// Every field of a candidate with its provenance resolved into a
    /// sorted insertion list (arena indices differ between pipelines).
    fn resolved(
        c: &DpCand,
        arena: &mut ProvArena<(NodeId, BufferId)>,
    ) -> impl PartialEq + std::fmt::Debug {
        let mut ins: Vec<(usize, usize)> = arena
            .resolve(c.prov)
            .into_iter()
            .map(|(n, b)| (n.index(), b.index()))
            .collect();
        ins.sort_unstable();
        let mut bits = cand_bits(c);
        bits.7 = 0;
        (bits, ins)
    }

    /// The fused merge on operands of many rows per class, so its live
    /// staircases drop rows and skip the bids of outbid ones: its pruned
    /// rows, its buffered spawns and the node's final prune are bitwise
    /// those of the materialized pipeline (`merge_materialized` +
    /// `insert_buffers_plain` + `prune`), insertions included, with and
    /// without noise, polarity and a buffer cap.
    #[test]
    fn fused_merge_staircases_match_materialized() {
        let lib = catalog::ibm_like();
        let v = NodeId::from_index(1000);
        let budget = RunBudget::default().armed();
        let wire = Wire::from_rc(120.0, 2e-14, 1.0);
        let modes = [
            DpConfig::default(),
            DpConfig {
                noise: false,
                ..DpConfig::default()
            },
            DpConfig {
                polarity: true,
                ..DpConfig::default()
            },
            DpConfig {
                max_buffers: Some(4),
                ..DpConfig::default()
            },
        ];
        for cfg in modes {
            // As many classes in parity `false` alone as in both parities.
            let counts = if cfg.polarity { 4 } else { 8 };
            let mut left = class_staircases(counts, 50, 0, &cfg);
            let mut right = class_staircases(counts, 50, 4, &cfg);
            let mut s0 = DpScratch::default();
            s0.reset(2, &lib);
            let (nl, nr) = (left.len(), right.len());
            prune(&mut left, &cfg, &mut s0, 0);
            prune(&mut right, &cfg, &mut s0, 0);
            assert_eq!(
                (left.len(), right.len()),
                (nl, nr),
                "fixture rows must survive the prune"
            );
            climb_in_place(&mut left, &wire, 1e-5, &cfg).expect("left survives");
            climb_in_place(&mut right, &wire, 1e-5, &cfg).expect("right survives");

            let mut s1 = DpScratch::default();
            s1.reset(2, &lib);
            stamp_provenance(&mut s1.arena, [&mut left, &mut right]);
            let mut stats1 = DpStats::default();
            let (mut fused, head) = merge_fused(
                v,
                &left,
                &right,
                &lib,
                &cfg,
                true,
                &budget,
                &mut s1,
                &mut stats1,
            )
            .expect("operands are non-empty");
            let work = s1.work;
            assert!(
                work.merge_rows_dropped > 0,
                "{cfg:?}: the staircases dropped nothing"
            );
            // Without a cap every enumerated row bids once per buffer
            // unless its staircase shows it outbid.
            if cfg.max_buffers.is_none() {
                let unskipped = (stats1.merge_products_enumerated * lib.len()) as u64;
                assert!(
                    work.bids < unskipped,
                    "{cfg:?}: no bid was skipped ({work:?})"
                );
            }

            let mut s2 = DpScratch::default();
            s2.reset(2, &lib);
            stamp_provenance(&mut s2.arena, [&mut left, &mut right]);
            let mut stats2 = DpStats::default();
            let mut m = merge_materialized(&left, &right, &cfg, &budget, &mut s2, &mut stats2)
                .expect("operands are non-empty");
            let product = m.len();
            insert_buffers_plain(v, &mut m, &lib, &cfg, &mut s2);
            let mut pruned_product = m[..product].to_vec();
            prune(&mut pruned_product, &cfg, &mut s2, 0);

            let (a1, a2) = (&mut s1.arena, &mut s2.arena);
            let got: Vec<_> = fused[..head].iter().map(|c| resolved(c, a1)).collect();
            let expect: Vec<_> = pruned_product.iter().map(|c| resolved(c, a2)).collect();
            assert_eq!(got, expect, "{cfg:?}: pruned product rows");
            let got: Vec<_> = fused[head..].iter().map(|c| resolved(c, a1)).collect();
            let expect: Vec<_> = m[product..].iter().map(|c| resolved(c, a2)).collect();
            assert!(!got.is_empty(), "{cfg:?}: no buffered spawns");
            assert_eq!(got, expect, "{cfg:?}: buffered spawns");

            prune(&mut fused, &cfg, &mut s1, head);
            prune(&mut m, &cfg, &mut s2, 0);
            let (a1, a2) = (&mut s1.arena, &mut s2.arena);
            let got: Vec<_> = fused.iter().map(|c| resolved(c, a1)).collect();
            let expect: Vec<_> = m.iter().map(|c| resolved(c, a2)).collect();
            assert_eq!(got, expect, "{cfg:?}: node prune");
            assert_eq!(
                stats1.merge_products_enumerated + stats1.merge_products_pruned,
                nl * nr
            );
        }
    }

    /// A wire climb adds the wire capacitance to every cap with its own
    /// rounding, so two caps one ulp apart can come out tied (seen on
    /// 48- and 76-sink scaling nets), with the larger q now on the second
    /// of the tie — against the sweep order. The tied list is still a
    /// legal merge operand (debug builds assert that inside
    /// `merge_fused`), the fused merge on a tiny and a larger product
    /// still equals the materialized pipeline, and the sweep catches the wrong
    /// prefix hint the single-child path gives it.
    #[test]
    fn climb_rounding_tie_is_a_legal_frontier() {
        let lib = catalog::ibm_like();
        let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
        b.add_sink(
            b.source(),
            Wire::from_rc(1.0, 1e-15, 1.0),
            SinkSpec::new(1e-15, 1e-9, 0.5),
        )
        .expect("sink");
        let tree = b.build().expect("tree");
        let budget = RunBudget::default().armed();
        let cfg = DpConfig::default();
        let staircase = |n: usize, tie_at: usize| -> Vec<DpCand> {
            let mut cap: f64 = 2e-15;
            (0..n)
                .map(|i| {
                    cap = if i == tie_at {
                        cap.next_up()
                    } else {
                        cap + 3e-16
                    };
                    cand(cap, -1e-9 + i as f64 * 1e-11, 0)
                })
                .collect()
        };
        let wire = Wire::from_rc(40.0, 3.6e-13, 1.0);
        for (nl, nr) in [(2, 1), (16, 16)] {
            let mut left = staircase(nl, nl / 2);
            let mut right = staircase(nr, nr);
            let mut s = DpScratch::default();
            s.reset(2, &lib);
            prune(&mut left, &cfg, &mut s, 0);
            assert_eq!(
                left.len(),
                nl,
                "fixture rows must be mutually non-dominated"
            );
            climb_in_place(&mut left, &wire, 0.0, &cfg).expect("left survives");
            climb_in_place(&mut right, &wire, 0.0, &cfg).expect("right survives");
            let (a, b) = (&left[nl / 2 - 1], &left[nl / 2]);
            assert_eq!(
                a.cap.to_bits(),
                b.cap.to_bits(),
                "climb did not tie the caps"
            );
            assert!(a.q < b.q, "the tie must read q ascending");
            assert!(frontier_is_class_sorted(&left));

            // The single-child path hands the climbed list over as sorted.
            let mut got = left.clone();
            prune(&mut got, &cfg, &mut s, nl);
            let mut expect = left.clone();
            sweep_prune_oracle(&mut expect);
            let got: Vec<_> = got.iter().map(cand_bits).collect();
            let expect: Vec<_> = expect.iter().map(cand_bits).collect();
            assert_eq!(got, expect);

            for feasible in [false, true] {
                let mut s1 = DpScratch::default();
                s1.reset(2, &lib);
                let mut stats = DpStats::default();
                let (mut fused, head) = merge_fused(
                    tree.source(),
                    &left,
                    &right,
                    &lib,
                    &cfg,
                    feasible,
                    &budget,
                    &mut s1,
                    &mut stats,
                )
                .expect("operands are non-empty");
                prune(&mut fused, &cfg, &mut s1, head);
                let mut s2 = DpScratch::default();
                s2.reset(2, &lib);
                let mut m = merge_materialized(&left, &right, &cfg, &budget, &mut s2, &mut stats)
                    .expect("operands are non-empty");
                if feasible {
                    insert_buffers_plain(tree.source(), &mut m, &lib, &cfg, &mut s2);
                }
                prune(&mut m, &cfg, &mut s2, 0);
                let key = |c: &DpCand| {
                    let mut k = cand_bits(c);
                    k.7 = 0; // arenas differ between the two pipelines
                    k
                };
                let fused: Vec<_> = fused.iter().map(key).collect();
                let m: Vec<_> = m.iter().map(key).collect();
                assert_eq!(fused, m, "{nl}x{nr} merge, feasible {feasible}");
            }
        }
    }

    /// With polarity off no buffer flips the parity, so a run on
    /// `ibm_like` (5 inverting types) is bitwise the run on the same
    /// library with every `inverting` flag cleared: the same source
    /// solutions, statistics, work counters and arena bytes, in the paper,
    /// DelayOpt, capped, conservative and cost-aware modes. Each buffer
    /// count is one class with one frontier.
    #[test]
    fn polarity_off_run_equals_the_run_without_inverting_buffers() {
        let lib = catalog::ibm_like();
        let plain: BufferLibrary = lib
            .iter()
            .map(|b| BufferType {
                inverting: false,
                ..b.clone()
            })
            .collect();
        assert!(lib.iter().any(|b| b.inverting), "the library must invert");
        let mut trees = Vec::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
        for entry in std::fs::read_dir(dir).expect("data/ corpus present") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "net") {
                let text = std::fs::read_to_string(&path).expect("readable net file");
                let net = buffopt_netlist::parse(&text).expect("valid corpus net");
                let seg = buffopt_tree::segment::segment_wires(&net.tree, 500.0).expect("segment");
                trees.push(seg.tree);
            }
        }
        // A deterministic random tree large enough that merges take the
        // predictive path.
        let steps: Vec<(u8, bool, f64, f64)> = (1..128u64)
            .map(|i| {
                let h = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
                let len = 400.0 + f64::from(h % 3600);
                let rat = 0.8 + f64::from(h % 32) / 10.0;
                ((h >> 12) as u8 % 16, i < 64 && h & 7 != 0, len, rat)
            })
            .collect();
        trees.push(crate::difftest::build_random_tree(&steps).expect("random tree builds"));
        let modes = [
            DpConfig::default(),
            DpConfig {
                noise: false,
                ..DpConfig::default()
            },
            DpConfig {
                max_buffers: Some(3),
                ..DpConfig::default()
            },
            DpConfig {
                conservative: true,
                max_buffers: Some(4),
                ..DpConfig::default()
            },
            DpConfig {
                cost_aware: true,
                max_buffers: Some(3),
                ..DpConfig::default()
            },
        ];
        let budget = RunBudget::default();
        let mut inverted = 0;
        for (t, tree) in trees.iter().enumerate() {
            let scenario = NoiseScenario::estimation(tree, 0.7, 7.2e9);
            for cfg in &modes {
                let sc = cfg.noise.then_some(&scenario);
                let runs = [&lib, &plain].map(|l| {
                    let mut scratch = DpScratch::default();
                    let got = run(&mut scratch, tree, sc, l, cfg, &budget, None);
                    let solutions = got.map(|(sols, stats)| {
                        let sols: Vec<_> = sols
                            .into_iter()
                            .map(|c| (c.slack.to_bits(), c.count, c.cost.to_bits(), c.insertions))
                            .collect();
                        (sols, stats)
                    });
                    (solutions, scratch.work, scratch.arena.bytes())
                });
                let [(a, wa, ba), (b, wb, bb)] = &runs;
                assert_eq!(a, b, "tree {t}, {cfg:?}: solutions or stats");
                assert_eq!(wa, wb, "tree {t}, {cfg:?}: work");
                assert_eq!(ba, bb, "tree {t}, {cfg:?}: arena bytes");
                inverted += a.as_ref().map_or(0, |(sols, _)| {
                    sols.iter()
                        .flat_map(|s| &s.3)
                        .filter(|(_, b)| lib.buffer(*b).inverting)
                        .count()
                });
            }
        }
        assert!(inverted > 0, "no solution placed an inverting buffer");
    }

    #[test]
    fn add_wire_matches_formulas() {
        let mut c = DpCand {
            cap: 10e-15,
            q: 1e-9,
            cur: 5e-6,
            ns: 0.5,
            count: 0,
            cost: 0.0,
            parity: false,
            prov: NONE,
        };
        let w = Wire::from_rc(100.0, 40e-15, 200.0);
        let cfg = DpConfig {
            noise: false,
            ..DpConfig::default()
        };
        let mut list = vec![c];
        climb_in_place(&mut list, &w, 8e-6, &cfg).expect("survives");
        c = list[0];
        assert!((c.cap - 50e-15).abs() < 1e-27);
        assert!((c.q - (1e-9 - 100.0 * (20e-15 + 10e-15))).abs() < 1e-21);
        assert!((c.cur - 13e-6).abs() < 1e-15);
        assert!((c.ns - (0.5 - 100.0 * (4e-6 + 5e-6))).abs() < 1e-12);
    }
}
