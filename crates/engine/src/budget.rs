//! Per-query resource budgets for the serving layer.
//!
//! A budget carries a wall-clock deadline and a visited-pair cap, and is
//! threaded from a request handler down
//! through the parallel evaluator and the incremental repair jobs.  The
//! engine has no budget type of its own: [`QueryBudget`] *is*
//! [`graphdb::SweepBudget`], so nothing is converted on the way down.
//!
//! Budgets are checked cooperatively every [`graphdb::SWEEP_CHECK_INTERVAL`]
//! product pops and a tripped budget is honored within microseconds.  The
//! checked loop is not free: forcing it with a cap that never trips measured
//! 2–3 % slower than the check-free loop on the benchmark's graphs
//! (134.9 → 137.8 ms per pass of the sparse |V|=10⁵ queries, 568.4 →
//! 586.1 ms on the dense |V|=2000 closures).  So both instantiations are
//! kept, and the choice is made in exactly one layer: each `_budgeted`
//! kernel of [`graphdb::eval`] takes the check-free instantiation when the
//! budget it is handed sets no limit.  Nothing in this crate or above it
//! branches on the budget.

/// Resource limits for one engine operation (query evaluation or the repair
/// phase of a mutation).
///
/// The default budget is unlimited.  Limits compose; the first one hit wins
/// and maps to the matching [`crate::EngineError`] variant
/// ([`DeadlineExceeded`](crate::EngineError::DeadlineExceeded) or
/// [`VisitBudgetExceeded`](crate::EngineError::VisitBudgetExceeded)).
pub type QueryBudget = graphdb::SweepBudget;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn builders_compose_and_lower_to_sweep() {
        let budget = QueryBudget::with_timeout(Duration::from_secs(5)).max_visited(1_000);
        // The alias is the sweep budget: it is handed down as-is.
        let sweep: &graphdb::SweepBudget = &budget;
        assert!(sweep.deadline.is_some());
        assert_eq!(sweep.max_visited, Some(1_000));
    }
}
