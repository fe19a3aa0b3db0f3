//! Reusable optimizer scratch memory.
//!
//! Every DP run needs a provenance arena plus a handful of candidate
//! lists, frontiers, and best-per-class tables. Allocating them per net is
//! cheap but not free — batch pipelines and server workers run thousands
//! of nets, and the allocator traffic was the dominant setup cost after
//! the arena rewrite removed `PSet`. A [`DpWorkspace`] owns all of that
//! scratch; every optimizer entry point takes one
//! ([`crate::buffopt::solve`], [`crate::buffopt::min_cost`],
//! [`crate::algorithm2::avoid_noise_budgeted_with`]), so steady-state runs
//! allocate (almost) nothing.
//!
//! A workspace is plain mutable state — not `Sync` — so give each worker
//! thread its own. Every run fully resets the scratch on entry, which
//! makes a workspace safe to reuse even after a run panicked or errored
//! out mid-way.

use buffopt_analysis::AnalysisWorkspace;

use crate::arena::ProvArena;
use crate::dp::DpScratch;
use crate::rebuild::WireInsertion;

/// Reusable scratch for the DP optimizers. See the module docs.
#[derive(Debug, Default)]
pub struct DpWorkspace {
    pub(crate) dp: DpScratch,
    /// Insertion arena for Algorithm 2 (`avoid_noise_budgeted_with`).
    pub(crate) alg2: ProvArena<WireInsertion>,
    /// Analysis-kernel tables for the pooled audit summaries
    /// ([`crate::audit::delay_summary_with`],
    /// [`crate::audit::noise_summary_with`]).
    pub(crate) analysis: AnalysisWorkspace,
}

/// Exact work counters of the workspace's last DP run (or the last
/// bounded count search, summed over its runs), reset when a run starts.
/// They count rows, not time, so they are the same on every host and a
/// bench can gate on them without noise. They are telemetry only: no
/// solution, record or stats response carries them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpWork {
    /// Rows fed to the fused merge's final lower-count pass: the rows its
    /// live per-class staircases hold at the end of each merge.
    pub merge_rows_swept: u64,
    /// Merge rows dropped at emission because a row already on their own
    /// class's live staircase dominated them in `(C, q)`.
    pub merge_rows_dropped: u64,
    /// Staircase rows moved by the fused merge's inserts and removals:
    /// a row inserted in front of others moves each of them one place, and
    /// a row that evicts a run of more than one moves every row behind the
    /// run. A quadratic insertion pattern shows as a rise here.
    pub merge_stair_shifts: u64,
    /// Buffer bids evaluated: one per buffer type for each candidate or
    /// merge row offered to the best-buffer table under the buffer cap.
    pub bids: u64,
    /// Rows every dominance sweep (the node prunes and the fused merge's
    /// final pass) handed to a comparison sort: each presorted prefix or
    /// tail that was too far out of sweep order for the linear insertion
    /// fix-up (a climb tie swaps only neighbours, which the fix-up
    /// mends).
    pub prune_rows_sorted: u64,
    /// DP runs these counters cover: 1 after one run
    /// ([`crate::buffopt::solve`], [`crate::buffopt::min_cost`]), and
    /// after [`crate::buffopt::min_buffers_with`] every run of its search,
    /// whose counters are summed.
    pub dp_runs: u64,
}

impl DpWork {
    /// Adds another run's counters to these.
    pub(crate) fn absorb(&mut self, other: &DpWork) {
        self.merge_rows_swept += other.merge_rows_swept;
        self.merge_rows_dropped += other.merge_rows_dropped;
        self.merge_stair_shifts += other.merge_stair_shifts;
        self.bids += other.bids;
        self.prune_rows_sorted += other.prune_rows_sorted;
        self.dp_runs += other.dp_runs;
    }
}

impl DpWorkspace {
    /// Creates an empty workspace. Capacity grows to the largest net it
    /// has processed and is retained across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// The analysis-kernel tables, for running pooled audit summaries
    /// against the same workspace the optimizers use.
    pub fn analysis(&mut self) -> &mut AnalysisWorkspace {
        &mut self.analysis
    }

    /// Work counters of the last DP run on this workspace.
    pub fn work(&self) -> DpWork {
        self.dp.work
    }
}
