//! Pooled analysis scratch, mirroring the DP workspace pattern.

/// Reusable tables for the kernel sweeps.
///
/// Batch pipelines and server workers analyse thousands of nets; the
/// sweeps themselves are cheap, so table allocation dominates their cost.
/// An `AnalysisWorkspace` owns the three tables the audits sweep
/// through; thread it through the `*_with` audit entry points and
/// steady-state analysis allocates nothing beyond the largest net seen.
///
/// Like the DP workspace, this is plain mutable state — give each worker
/// thread its own. Every entry point fully overwrites the tables it
/// uses, so a workspace is safe to reuse after an error or panic.
#[derive(Debug, Default)]
pub struct AnalysisWorkspace {
    /// Postorder accumulation (downstream load or current), full subtree.
    pub below: Vec<f64>,
    /// Cut-aware presented values (what each node shows its parent).
    pub presented: Vec<f64>,
    /// Preorder accumulation (arrival times or stage noise).
    pub up: Vec<f64>,
}

impl AnalysisWorkspace {
    /// Creates an empty workspace; capacity grows to the largest net
    /// processed and is retained across runs.
    pub fn new() -> Self {
        Self::default()
    }
}
