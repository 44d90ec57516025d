//! The slow-query log: a bounded ring of recent over-threshold queries.


// ordering: Relaxed throughout — the observed counter is advisory telemetry;
// the ring itself is guarded by its mutex.
use crate::ring::RingBuffer;
use std::sync::atomic::{AtomicU64, Ordering};

/// One logged slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Trace id of the request (0 when the query ran untraced).
    pub trace_id: u64,
    /// The query string as received.
    pub query: String,
    /// End-to-end handling latency in microseconds.
    pub elapsed_us: u64,
    /// Engine revision the query evaluated against.
    pub revision: u64,
}

/// A ring-buffered log of the most recent queries slower than a fixed
/// threshold. Observation is cheap for fast queries (one comparison); only
/// over-threshold queries pay the ring's mutex.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_us: u64,
    ring: RingBuffer<SlowQueryEntry>,
    observed: AtomicU64,
}

impl SlowQueryLog {
    /// Creates a log retaining at most `capacity` entries over
    /// `threshold_us` microseconds.
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        SlowQueryLog {
            threshold_us,
            ring: RingBuffer::new(capacity),
            observed: AtomicU64::new(0),
        }
    }

    /// The threshold in microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Observes one completed query; logs it iff `elapsed_us` meets the
    /// threshold. Returns whether it was logged.
    pub fn observe(&self, trace_id: u64, query: &str, elapsed_us: u64, revision: u64) -> bool {
        if elapsed_us < self.threshold_us {
            return false;
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
        self.ring.push(SlowQueryEntry {
            trace_id,
            query: query.to_string(),
            elapsed_us,
            revision,
        });
        true
    }

    /// Removes and returns the retained entries, oldest first.
    pub fn drain(&self) -> Vec<SlowQueryEntry> {
        self.ring.drain()
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total over-threshold queries observed since creation (including
    /// entries since evicted or drained).
    pub fn total_observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn threshold_filters_and_capacity_bounds() {
        let log = SlowQueryLog::new(1_000, 2);
        assert!(!log.observe(1, "fast", 999, 0));
        assert!(log.observe(2, "slow-a", 1_000, 0));
        assert!(log.observe(3, "slow-b", 5_000, 1));
        assert!(log.observe(4, "slow-c", 9_000, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_observed(), 3);
        let entries = log.drain();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].query, "slow-b");
        assert_eq!(entries[1].query, "slow-c");
        assert_eq!(entries[1].trace_id, 4);
        assert_eq!(entries[1].revision, 2);
        assert!(log.is_empty());
    }

    #[test]
    fn concurrent_observers_and_drainers_stay_bounded() {
        let log = Arc::new(SlowQueryLog::new(0, 16));
        let writers = 4;
        let per_writer = 2_000u64;
        let drained = std::thread::scope(|scope| {
            for w in 0..writers {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..per_writer {
                        log.observe(w * per_writer + i, "q", i, i);
                        if i % 64 == 0 {
                            assert!(log.len() <= log.capacity());
                        }
                    }
                });
            }
            let log = Arc::clone(&log);
            scope
                .spawn(move || {
                    let mut total = 0usize;
                    for _ in 0..200 {
                        total += log.drain().len();
                        std::thread::yield_now();
                    }
                    total
                })
                .join()
                .unwrap()
        });
        let remaining = log.len();
        assert!(remaining <= log.capacity());
        assert_eq!(log.total_observed(), writers * per_writer);
        // Everything observed was either drained, evicted, or still retained.
        assert_eq!(
            drained as u64 + log.drain().len() as u64 + log.ring.evicted(),
            writers * per_writer
        );
    }
}
