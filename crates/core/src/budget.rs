//! Resource budgets for the optimizers.
//!
//! The paper's production story is a batch sweep over the 500 worst nets
//! of a microprocessor design; in that setting a single pathological net
//! must not be allowed to hang or exhaust the machine. A [`RunBudget`]
//! bounds the three resources a run can consume — wall-clock time, live
//! DP candidates, and tree size — and the optimizers abort with the typed
//! errors [`CoreError::BudgetExceeded`] / [`CoreError::DeadlineExceeded`]
//! instead of OOMing or spinning.
//!
//! The default budget is unlimited, so existing callers see identical
//! results; batch drivers tighten it per net.
//!
//! [`CoreError::BudgetExceeded`]: crate::CoreError::BudgetExceeded
//! [`CoreError::DeadlineExceeded`]: crate::CoreError::DeadlineExceeded

use std::time::{Duration, Instant};

use buffopt_analysis::CancelToken;

use crate::error::{BudgetResource, CoreError};

/// Resource limits for one optimizer run. All limits default to `None`
/// (unlimited), which reproduces the unbudgeted behaviour exactly.
///
/// Equality compares the limits and the armed deadline only — the
/// [`cancel`](RunBudget::cancel) token is identity-shared runtime state,
/// not configuration.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// The absolute deadline [`armed`](RunBudget::armed) resolved from
    /// [`time_limit`](RunBudget::time_limit): past it the run aborts with
    /// [`CoreError::DeadlineExceeded`]. Checked at every tree node (DP) or
    /// round (greedy), so the overshoot is bounded by one merge step.
    ///
    /// [`CoreError::DeadlineExceeded`]: crate::CoreError::DeadlineExceeded
    deadline: Option<Instant>,
    /// A relative wall-clock allowance, armed into an absolute deadline
    /// by [`armed`] when the run actually starts. Budgets are often built
    /// long before the work runs (batch drivers enqueue nets behind a
    /// worker pool); carrying the `Duration` here means queue wait does
    /// not burn the net's time allowance.
    ///
    /// [`armed`]: RunBudget::armed
    pub time_limit: Option<Duration>,
    /// Abort with [`CoreError::BudgetExceeded`] when a candidate list (or
    /// a pending merge product) would exceed this many entries. This is
    /// the Shi–Li resource: candidate growth is what makes the DP
    /// quadratic-and-worse on adversarial inputs.
    ///
    /// [`CoreError::BudgetExceeded`]: crate::CoreError::BudgetExceeded
    pub max_candidates: Option<usize>,
    /// Refuse trees with more nodes than this before doing any work.
    pub max_tree_nodes: Option<usize>,
    /// Cap on the bytes held by the DP's provenance arena. Setting it also
    /// turns on degrade-in-place: instead of erroring on candidate or
    /// arena pressure, the DP deterministically clamps its candidate
    /// frontier to a bounded top-K and finishes, tagging the solution with
    /// the resource that tripped ([`Solution::degraded_by`]). Arena growth
    /// is append-only within a run, so once the cap trips it stays
    /// tripped. Without it the fail-hard contract (and bitwise
    /// reproducibility of unbudgeted runs) holds.
    ///
    /// [`Solution::degraded_by`]: crate::Solution::degraded_by
    pub max_arena_bytes: Option<usize>,
    /// Shared cooperative-cancellation flag, polled at merge-row stride
    /// inside the DP loops. Cancelling aborts the run with
    /// [`CoreError::Cancelled`] within microseconds; a default token is
    /// never cancelled and costs one relaxed load per stride.
    ///
    /// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
    pub cancel: CancelToken,
}

impl PartialEq for RunBudget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && self.time_limit == other.time_limit
            && self.max_candidates == other.max_candidates
            && self.max_tree_nodes == other.max_tree_nodes
            && self.max_arena_bytes == other.max_arena_bytes
    }
}

impl RunBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// This budget with a wall-clock allowance of `limit`, measured from
    /// the moment the run starts (see [`RunBudget::armed`]) — *not* from
    /// this call. A budget can therefore sit in a queue indefinitely
    /// without losing any of its allowance.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Starts the clock: resolves [`time_limit`] into an absolute
    /// deadline anchored at `Instant::now()`. Every optimizer entry point
    /// arms its budget first thing, so callers holding a budget with only
    /// a relative limit need not call this themselves; arming an
    /// already-armed budget (or one without a time limit) is a no-op.
    ///
    /// [`time_limit`]: RunBudget::time_limit
    #[must_use]
    pub fn armed(&self) -> Self {
        let mut b = self.clone();
        if let Some(limit) = b.time_limit.take() {
            b.deadline = Instant::now().checked_add(limit);
        }
        b
    }

    /// This budget with a candidate-list cap.
    #[must_use]
    pub fn with_max_candidates(mut self, max: usize) -> Self {
        self.max_candidates = Some(max);
        self
    }

    /// This budget with a tree-size cap.
    #[must_use]
    pub fn with_max_tree_nodes(mut self, max: usize) -> Self {
        self.max_tree_nodes = Some(max);
        self
    }

    /// This budget with an arena-byte cap.
    #[must_use]
    pub fn with_max_arena_bytes(mut self, max: usize) -> Self {
        self.max_arena_bytes = Some(max);
        self
    }

    /// Whether candidate or arena pressure degrades the run in place
    /// instead of erroring: exactly when an arena cap is set (see
    /// [`max_arena_bytes`](RunBudget::max_arena_bytes)).
    pub(crate) fn degrades(&self) -> bool {
        self.max_arena_bytes.is_some()
    }

    /// Errors when the deadline has passed.
    pub(crate) fn check_deadline(&self) -> Result<(), CoreError> {
        match self.deadline {
            Some(d) if Instant::now() > d => Err(CoreError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// The stride checkpoint the DP inner loops poll: cancellation first
    /// (one relaxed atomic load — cheap enough for per-row strides), then
    /// the deadline. Cancellation wins when both have tripped, because it
    /// carries the caller's attribution.
    pub(crate) fn checkpoint(&self) -> Result<(), CoreError> {
        if let Some(reason) = self.cancel.cancelled() {
            return Err(CoreError::Cancelled { reason });
        }
        self.check_deadline()
    }

    /// Errors when a tree of `nodes` nodes is over the cap.
    pub(crate) fn admit_tree(&self, nodes: usize) -> Result<(), CoreError> {
        match self.max_tree_nodes {
            Some(limit) if nodes > limit => Err(CoreError::BudgetExceeded {
                resource: BudgetResource::TreeNodes,
                limit,
                observed: nodes,
            }),
            _ => Ok(()),
        }
    }

    /// Errors when a candidate list of `observed` entries (or a merge
    /// about to produce that many) is over the cap.
    pub(crate) fn admit_candidates(&self, observed: usize) -> Result<(), CoreError> {
        match self.max_candidates {
            Some(limit) if observed > limit => Err(CoreError::BudgetExceeded {
                resource: BudgetResource::Candidates,
                limit,
                observed,
            }),
            _ => Ok(()),
        }
    }

    /// Errors when the provenance arena holds more than the cap.
    pub(crate) fn admit_arena_bytes(&self, observed: usize) -> Result<(), CoreError> {
        match self.max_arena_bytes {
            Some(limit) if observed > limit => Err(CoreError::BudgetExceeded {
                resource: BudgetResource::ArenaBytes,
                limit,
                observed,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = RunBudget::default();
        assert!(b.check_deadline().is_ok());
        assert!(b.admit_tree(usize::MAX).is_ok());
        assert!(b.admit_candidates(usize::MAX).is_ok());
        assert_eq!(b, RunBudget::unlimited());
    }

    #[test]
    fn expired_deadline_errors() {
        let b = RunBudget {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..RunBudget::default()
        };
        assert!(matches!(
            b.check_deadline(),
            Err(CoreError::DeadlineExceeded)
        ));
    }

    #[test]
    fn future_deadline_passes() {
        let b = RunBudget::default()
            .with_time_limit(Duration::from_secs(3600))
            .armed();
        assert!(b.check_deadline().is_ok());
    }

    #[test]
    fn time_limit_is_not_armed_at_construction() {
        // The allowance is relative until the run starts: a zero limit
        // only expires once armed.
        let b = RunBudget::default().with_time_limit(Duration::ZERO);
        assert_eq!(b.deadline, None, "construction must not start the clock");
        assert!(b.check_deadline().is_ok());
        assert!(matches!(
            b.armed().check_deadline(),
            Err(CoreError::DeadlineExceeded)
        ));
    }

    #[test]
    fn queue_wait_does_not_burn_the_allowance() {
        // Construct the budget, simulate sitting in a queue longer than
        // the whole allowance, then arm: the full window is still there.
        let b = RunBudget::default().with_time_limit(Duration::from_millis(30));
        std::thread::sleep(Duration::from_millis(60));
        let armed = b.armed();
        assert!(armed.check_deadline().is_ok(), "clock started at arm time");
        assert_eq!(armed.time_limit, None, "arming consumes the limit");
    }

    #[test]
    fn arming_twice_is_a_no_op() {
        let a = RunBudget::default()
            .with_time_limit(Duration::from_secs(3600))
            .armed();
        let twice = a.armed();
        assert_eq!(a.deadline, twice.deadline);
    }

    #[test]
    fn candidate_cap_is_inclusive() {
        let b = RunBudget::default().with_max_candidates(8);
        assert!(b.admit_candidates(8).is_ok());
        let err = b.admit_candidates(9).expect_err("over cap");
        assert!(matches!(
            err,
            CoreError::BudgetExceeded {
                resource: BudgetResource::Candidates,
                limit: 8,
                observed: 9,
            }
        ));
    }

    #[test]
    fn tree_cap_is_inclusive() {
        let b = RunBudget::default().with_max_tree_nodes(100);
        assert!(b.admit_tree(100).is_ok());
        assert!(b.admit_tree(101).is_err());
    }

    #[test]
    fn arena_cap_is_inclusive() {
        let b = RunBudget::default().with_max_arena_bytes(4096);
        assert!(b.admit_arena_bytes(4096).is_ok());
        let err = b.admit_arena_bytes(4097).expect_err("over cap");
        assert!(matches!(
            err,
            CoreError::BudgetExceeded {
                resource: BudgetResource::ArenaBytes,
                limit: 4096,
                observed: 4097,
            }
        ));
    }

    #[test]
    fn an_arena_cap_turns_on_degrade_in_place() {
        assert!(!RunBudget::default().degrades());
        assert!(!RunBudget::default().with_max_candidates(8).degrades());
        assert!(RunBudget::default().with_max_arena_bytes(4096).degrades());
    }

    #[test]
    fn checkpoint_reports_cancellation_before_the_deadline() {
        use buffopt_analysis::CancelReason;
        let b = RunBudget {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..RunBudget::default()
        };
        assert!(matches!(b.checkpoint(), Err(CoreError::DeadlineExceeded)));
        b.cancel.cancel(CancelReason::Disconnect);
        assert!(
            matches!(
                b.checkpoint(),
                Err(CoreError::Cancelled {
                    reason: CancelReason::Disconnect
                })
            ),
            "cancellation carries the attribution even when the deadline also expired"
        );
    }

    #[test]
    fn equality_ignores_the_cancel_token() {
        use buffopt_analysis::CancelReason;
        let a = RunBudget::default().with_max_candidates(10);
        let b = RunBudget::default().with_max_candidates(10);
        b.cancel.cancel(CancelReason::Shutdown);
        assert_eq!(a, b, "the token is runtime state, not configuration");
        assert_ne!(a, RunBudget::default().with_max_candidates(11));
        assert_ne!(a, a.clone().with_max_arena_bytes(1));
    }

    #[test]
    fn clones_share_the_cancel_token() {
        use buffopt_analysis::CancelReason;
        let a = RunBudget::default();
        let b = a.clone();
        a.cancel.cancel(CancelReason::Supervisor);
        assert!(
            matches!(
                b.checkpoint(),
                Err(CoreError::Cancelled {
                    reason: CancelReason::Supervisor
                })
            ),
            "a clone observes the original's cancellation"
        );
        // Arming preserves the shared flag too.
        let c = RunBudget::default().with_time_limit(Duration::from_secs(60));
        let armed = c.armed();
        c.cancel.cancel(CancelReason::Deadline);
        assert!(armed.checkpoint().is_err());
    }
}
