//! The point sweeps' scratch pools.
//!
//! A point kernel ([`graphdb::eval_csr_from_budgeted`],
//! [`graphdb::eval_csr_pair_budgeted`]) runs on O(|V|) buffers — a visited
//! bitmap of `|V|·stride` words per frontier and `|V|` found flags — for
//! about a microsecond of work on a warm graph; building them per request
//! would cost tens of microseconds more.  Every kernel leaves its scratch
//! clean on every exit, an interrupt included, and a clean scratch can be
//! re-aimed at any `(csr, query)` pair ([`graphdb::EvalScratch::aim`]), so
//! the engine keeps idle scratches of each kind in a [`ScratchPool`] shared
//! by the writer and every snapshot.  A read or a repair takes one, re-aims
//! it and hands it back when its [`Pooled`] guard drops; a pool keeps at
//! most `worker_threads` idle scratches, so what pooling retains is bounded
//! by that many times the buffers of the largest graph served.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

use automata::DenseNfa;
use graphdb::{CsrAdjacency, EvalScratch, PairScratch};

use crate::stats::{bump, SharedStats};

/// A point-sweep scratch: built for one `(csr, query)` pair, re-aimable at
/// another.
pub(crate) trait PointScratch {
    /// A scratch aimed at `(csr, query)`, its buffers newly allocated.
    fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self;
    /// Re-aims a clean scratch at `(csr, query)`, keeping its buffers.
    fn aim(&mut self, csr: &CsrAdjacency, query: &DenseNfa);
}

impl PointScratch for EvalScratch {
    fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        EvalScratch::new(csr, query)
    }

    fn aim(&mut self, csr: &CsrAdjacency, query: &DenseNfa) {
        EvalScratch::aim(self, csr, query);
    }
}

impl PointScratch for PairScratch {
    fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        PairScratch::new(csr, query)
    }

    fn aim(&mut self, csr: &CsrAdjacency, query: &DenseNfa) {
        PairScratch::aim(self, csr, query);
    }
}

/// Idle scratches of one kind, at most `capacity` of them.  The lock is
/// held to pop or push one, never during a sweep; a poisoned lock is
/// recovered, since an entry is only ever pushed or popped whole.
pub(crate) struct ScratchPool<S> {
    idle: Mutex<Vec<S>>,
    capacity: usize,
}

impl<S> fmt::Debug for ScratchPool<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idle = self.idle().len();
        f.debug_struct("ScratchPool")
            .field("idle", &idle)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<S: PointScratch> ScratchPool<S> {
    /// A scratch aimed at `(csr, query)`: an idle one re-aimed, or — when
    /// none is idle — a new one, counted in `point_scratch_allocations`.
    pub fn take(
        &self,
        csr: &CsrAdjacency,
        query: &DenseNfa,
        stats: &SharedStats,
    ) -> Pooled<'_, S> {
        let idle = self.idle().pop();
        let scratch = match idle {
            Some(mut scratch) => {
                scratch.aim(csr, query);
                scratch
            }
            None => {
                bump(&stats.point_scratch_allocations);
                S::new(csr, query)
            }
        };
        Pooled { pool: self, scratch: Some(scratch) }
    }
}

impl<S> ScratchPool<S> {
    /// An empty pool that keeps at most `capacity` idle scratches.
    pub fn new(capacity: usize) -> Self {
        ScratchPool { idle: Mutex::new(Vec::new()), capacity }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<S>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A scratch on loan from a [`ScratchPool`]; dropping the guard hands it
/// back, whichever way the sweep exited.  A scratch whose holder panicked
/// may be mid-sweep, so unwinding drops it instead.
pub(crate) struct Pooled<'a, S> {
    pool: &'a ScratchPool<S>,
    /// `Some` until the guard drops.
    scratch: Option<S>,
}

impl<S> Deref for Pooled<'_, S> {
    type Target = S;

    fn deref(&self) -> &S {
        self.scratch.as_ref().expect("a pooled scratch is held until its guard drops")
    }
}

impl<S> DerefMut for Pooled<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        self.scratch.as_mut().expect("a pooled scratch is held until its guard drops")
    }
}

impl<S> Drop for Pooled<'_, S> {
    fn drop(&mut self) {
        let Some(scratch) = self.scratch.take() else { return };
        if std::thread::panicking() {
            return;
        }
        let mut idle = self.pool.idle();
        if idle.len() < self.pool.capacity {
            idle.push(scratch);
        }
    }
}
