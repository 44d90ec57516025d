//! Cooperative resource budgets for product sweeps.
//!
//! A product-BFS over `graph × query` is worst-case `O(|V| · (|V| + |E|) ·
//! |Q|)`; behind a socket that bound must be enforceable per query, not just
//! provable.  A [`SweepBudget`] carries the limits (wall-clock deadline and
//! visited-pair cap) and a [`SweepState`] carries the shared
//! progress of one evaluation — possibly sharded across worker threads — so
//! every worker stops promptly once any one of them trips a limit.
//!
//! Checks are cooperative: the budgeted evaluator polls every
//! [`SWEEP_CHECK_INTERVAL`] product-state pops, which keeps the hot loop free
//! of per-pop atomics while bounding the overshoot past a deadline to a few
//! thousand pops per worker.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of product-BFS pops between cooperative budget checks.
///
/// Each check costs one atomic add plus (amortized) one `Instant::now()`;
/// 4096 pops of real traversal work dwarf that, while a tripped budget is
/// still noticed within microseconds on any realistic workload.
pub const SWEEP_CHECK_INTERVAL: u64 = 4096;

/// Resource limits for one (possibly sharded) product sweep.
///
/// The default budget is unlimited, which is also what the un-budgeted hot
/// path uses; limits compose — the first one hit wins.
#[derive(Debug, Clone, Default)]
pub struct SweepBudget {
    /// Wall-clock deadline; the sweep stops with
    /// [`SweepInterrupt::DeadlineExceeded`] at the first check past it.
    pub deadline: Option<Instant>,
    /// Cap on product `(node, state)` pairs popped across **all** workers of
    /// the evaluation; trips [`SweepInterrupt::VisitLimit`].
    pub max_visited: Option<u64>,
}

impl SweepBudget {
    /// A budget with no limits: the sweep runs to completion.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + timeout),
            ..Self::default()
        }
    }

    /// Adds a visited-pair cap to this budget.
    pub fn max_visited(mut self, cap: u64) -> Self {
        self.max_visited = Some(cap);
        self
    }

    /// Whether no limit is set.  The `_budgeted` evaluators in
    /// [`crate::eval`] read this — and nothing above them does — to select
    /// the instantiation that compiles the checks out of the pop loop.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_visited.is_none()
    }
}

/// Why a budgeted sweep stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepInterrupt {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The visited-pair cap was reached.
    VisitLimit,
}

impl std::fmt::Display for SweepInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepInterrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
            SweepInterrupt::VisitLimit => write!(f, "visit budget exceeded"),
        }
    }
}

/// Shared progress of one budgeted evaluation: the global visited-pair count
/// and a sticky "tripped" marker, so once any worker hits a limit every other
/// worker (and the caller's later phases) observe the same interrupt.
#[derive(Debug, Default)]
pub struct SweepState {
    visited: AtomicU64,
    /// 0 while running; otherwise `interrupt discriminant + 1`.
    tripped: AtomicU32,
}

impl SweepState {
    // ordering: Relaxed throughout this impl — visited counts and the
    // sticky trip code are budget *advice*: a worker may see a
    // trip a few pops late, which only over-counts the partial-work stat.
    // No data is published through these atomics.

    /// Fresh progress for one evaluation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Product pairs charged so far across all workers (the partial-work
    /// statistic reported alongside an interrupt).
    pub fn visited(&self) -> u64 {
        self.visited.load(Ordering::Relaxed)
    }

    /// The sticky interrupt, if any worker tripped a limit.
    pub fn interrupt(&self) -> Option<SweepInterrupt> {
        match self.tripped.load(Ordering::Relaxed) {
            0 => None,
            1 => Some(SweepInterrupt::DeadlineExceeded),
            _ => Some(SweepInterrupt::VisitLimit),
        }
    }

    fn trip(&self, why: SweepInterrupt) -> SweepInterrupt {
        let code = match why {
            SweepInterrupt::DeadlineExceeded => 1,
            SweepInterrupt::VisitLimit => 2,
        };
        // First trip wins; later workers keep the original cause.
        let _ = self
            .tripped
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.interrupt().unwrap_or(why)
    }

    /// Charges `pops` visited pairs and checks every limit.  Called from the
    /// sweep loop every [`SWEEP_CHECK_INTERVAL`] pops (and once at the end
    /// with the remainder).
    pub fn charge(&self, budget: &SweepBudget, pops: u64) -> Result<(), SweepInterrupt> {
        let total = self.visited.fetch_add(pops, Ordering::Relaxed) + pops;
        if let Some(why) = self.interrupt() {
            return Err(why);
        }
        if budget.max_visited.is_some_and(|cap| total > cap) {
            return Err(self.trip(SweepInterrupt::VisitLimit));
        }
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.trip(SweepInterrupt::DeadlineExceeded));
        }
        Ok(())
    }

    /// Checks the time-like limits (tripped flag, deadline) without
    /// charging visited pairs.  Used between coarse work items — repair jobs,
    /// per-edge delta sweeps — where no pop count is being accumulated.
    pub fn poll(&self, budget: &SweepBudget) -> Result<(), SweepInterrupt> {
        if let Some(why) = self.interrupt() {
            return Err(why);
        }
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.trip(SweepInterrupt::DeadlineExceeded));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = SweepBudget::unlimited();
        assert!(budget.is_unlimited());
        let state = SweepState::new();
        for _ in 0..100 {
            assert!(state.charge(&budget, 1_000_000).is_ok());
            assert!(state.poll(&budget).is_ok());
        }
        assert_eq!(state.visited(), 100_000_000);
        assert_eq!(state.interrupt(), None);
    }

    #[test]
    fn visit_cap_trips_and_sticks() {
        let budget = SweepBudget {
            max_visited: Some(10),
            ..SweepBudget::unlimited()
        };
        assert!(!budget.is_unlimited());
        let state = SweepState::new();
        assert!(state.charge(&budget, 10).is_ok());
        assert_eq!(state.charge(&budget, 1), Err(SweepInterrupt::VisitLimit));
        // Sticky: later polls (even with a fresh unlimited budget view) see it.
        assert_eq!(state.poll(&budget), Err(SweepInterrupt::VisitLimit));
        assert_eq!(state.interrupt(), Some(SweepInterrupt::VisitLimit));
        assert_eq!(state.visited(), 11);
    }

    #[test]
    fn past_deadline_trips_immediately() {
        let budget = SweepBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SweepBudget::unlimited()
        };
        let state = SweepState::new();
        assert_eq!(
            state.charge(&budget, 1),
            Err(SweepInterrupt::DeadlineExceeded)
        );
    }

    #[test]
    fn first_trip_cause_wins() {
        let state = SweepState::new();
        let visit_budget = SweepBudget {
            max_visited: Some(1),
            ..SweepBudget::unlimited()
        };
        assert_eq!(state.charge(&visit_budget, 2), Err(SweepInterrupt::VisitLimit));
        // A later deadline check reports the original cause.
        let deadline_budget = SweepBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SweepBudget::unlimited()
        };
        assert_eq!(state.poll(&deadline_budget), Err(SweepInterrupt::VisitLimit));
    }
}
