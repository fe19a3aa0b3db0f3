//! Deterministic fault injection for the serving stack's chaos tests.
//!
//! A [`FaultPlan`] is a list of rules, each naming a *seam* (a point in
//! the engine's worker loop), a trigger (`nth` arming of that seam,
//! counted by an atomic counter, or every arming), and an action. The
//! worker loop asks the plan at each seam whether a fault fires *right
//! now*; with no plan installed the check is an `Option` test.
//!
//! Only faults that no real interface can produce have a seam: a worker
//! that dies or misbehaves outside its panic boundary, and a per-net
//! computation that panics, stalls or lies inside it. Every other fault
//! is driven through the interface that already produces it: a
//! panicking `NetDecoder`, torn frames sent by the client,
//! `Engine::corrupt_cache_entry`, `MemoTable::corrupt_any`, bytes
//! flipped in the journal file, and `PipelineConfig::max_arena_bytes`
//! for memory pressure.
//!
//! Triggers are counter-based rather than random, so a chaos test that
//! says "kill the worker handling the first request" is exactly
//! reproducible: same plan + same request order ⇒ same failure.
//!
//! The plan never executes anything itself — it only *reports* which
//! action fires. The worker loop performs the action (panics, stalls,
//! corrupts its output, …), because only it knows what "dying" means at
//! each seam.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point in the engine's worker loop where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// The worker loop, *outside* the per-net panic boundary — faults
    /// here kill the worker thread itself.
    Worker,
    /// Around the optimizer call, *inside* the per-net panic boundary —
    /// faults here must be contained to one record.
    Optimize,
}

/// What happens when a rule fires. The seam owner interprets the action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the seam. Inside the worker's panic boundary this becomes
    /// a `failed` record; outside it, a dead worker thread.
    Panic,
    /// Sleep this many milliseconds before proceeding (drives requests
    /// past their deadline without any wall-clock nondeterminism in the
    /// *decision* to stall).
    StallMs(u64),
    /// Return a structurally wrong result (the engine's integrity check
    /// must catch it): the worker emits a record for the wrong net name.
    WrongOutput,
    /// Fail with a synthetic I/O error message instead of computing.
    IoError,
    /// Make the worker thread exit its loop without replying — a clean
    /// thread death the supervisor must notice and repair. Inside the
    /// panic boundary it panics like [`FaultAction::Panic`].
    KillWorker,
    /// Trip the run's cancel token (supervisor reason) at the seam, as
    /// if an operator or watchdog killed the request mid-flight.
    CancelRun,
}

/// One injection rule: fire `action` at `seam` on its `nth` arming
/// (1-based); `nth == 0` fires on *every* arming.
#[derive(Debug)]
pub struct FaultRule {
    seam: Seam,
    nth: u64,
    action: FaultAction,
    fired: AtomicU64,
}

/// A deterministic set of injection rules plus per-seam arming counters.
///
/// Construction is builder-style:
///
/// ```
/// use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
/// let plan = FaultPlan::new()
///     .on_nth(Seam::Worker, 1, FaultAction::KillWorker)
///     .on_nth(Seam::Optimize, 3, FaultAction::StallMs(50));
/// assert_eq!(plan.fire(Seam::Worker), Some(FaultAction::KillWorker));
/// assert_eq!(plan.fire(Seam::Worker), None, "one-shot rule");
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    worker_arms: AtomicU64,
    optimize_arms: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no rule ever fires).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a one-shot rule firing on the `nth` (1-based) arming of
    /// `seam`; `nth == 0` makes the rule fire on every arming.
    pub fn on_nth(mut self, seam: Seam, nth: u64, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            seam,
            nth,
            action,
            fired: AtomicU64::new(0),
        });
        self
    }

    fn counter(&self, seam: Seam) -> &AtomicU64 {
        match seam {
            Seam::Worker => &self.worker_arms,
            Seam::Optimize => &self.optimize_arms,
        }
    }

    /// Arms `seam` once (incrementing its counter) and returns the action
    /// of the first matching rule, if any fires on this arming.
    pub fn fire(&self, seam: Seam) -> Option<FaultAction> {
        let n = self.counter(seam).fetch_add(1, Ordering::SeqCst) + 1;
        for rule in &self.rules {
            if rule.seam != seam {
                continue;
            }
            let fires = if rule.nth == 0 {
                true
            } else {
                rule.nth == n && rule.fired.swap(1, Ordering::SeqCst) == 0
            };
            if fires {
                return Some(rule.action);
            }
        }
        None
    }

    /// How many times `seam` has been armed so far.
    pub fn armed(&self, seam: Seam) -> u64 {
        self.counter(seam).load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_rules_fire_exactly_once_at_their_count() {
        let plan = FaultPlan::new()
            .on_nth(Seam::Worker, 2, FaultAction::Panic)
            .on_nth(Seam::Worker, 4, FaultAction::KillWorker);
        assert_eq!(plan.fire(Seam::Worker), None);
        assert_eq!(plan.fire(Seam::Worker), Some(FaultAction::Panic));
        assert_eq!(plan.fire(Seam::Worker), None);
        assert_eq!(plan.fire(Seam::Worker), Some(FaultAction::KillWorker));
        assert_eq!(plan.fire(Seam::Worker), None);
        assert_eq!(plan.armed(Seam::Worker), 5);
    }

    #[test]
    fn zero_nth_fires_every_time() {
        let plan = FaultPlan::new().on_nth(Seam::Optimize, 0, FaultAction::IoError);
        for _ in 0..3 {
            assert_eq!(plan.fire(Seam::Optimize), Some(FaultAction::IoError));
        }
    }

    #[test]
    fn seams_count_independently() {
        let plan = FaultPlan::new()
            .on_nth(Seam::Optimize, 2, FaultAction::StallMs(5))
            .on_nth(Seam::Optimize, 3, FaultAction::CancelRun);
        assert_eq!(plan.fire(Seam::Worker), None);
        assert_eq!(plan.fire(Seam::Worker), None);
        assert_eq!(plan.fire(Seam::Optimize), None);
        assert_eq!(
            plan.fire(Seam::Optimize),
            Some(FaultAction::StallMs(5)),
            "worker arms do not advance the optimize counter"
        );
        assert_eq!(plan.fire(Seam::Optimize), Some(FaultAction::CancelRun));
        assert_eq!(plan.armed(Seam::Worker), 2);
        assert_eq!(plan.armed(Seam::Optimize), 3);
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        for seam in [Seam::Worker, Seam::Optimize] {
            assert_eq!(plan.fire(seam), None);
        }
    }
}
