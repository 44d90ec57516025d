//! Engine-wide timing telemetry: latency histograms and snapshot-age gauges.
//!
//! [`EngineTelemetry`] sits beside the counter block (`SharedStats`) as the
//! *timing* half of observability: where the counters say **how often** each
//! path ran, the histograms say **how long** it took.  One instance is shared
//! (as an `Arc`) between the writer and every published snapshot, exactly
//! like the counters, so `p99` figures aggregate work from both sides of the
//! MVCC split.
//!
//! Collection is always on.  The recording sites are cheap by construction —
//! phase boundaries and chunk boundaries only, never inside the product-BFS
//! pop loop: `tests/tracing.rs` asserts that one evaluation adds at most one
//! sample per histogram whatever the graph's size.

use std::sync::Mutex;
use std::time::Instant;

/// Declares a struct of latency histograms once: one entry per histogram,
/// its name and documentation, then (after `;`) the struct's other private
/// fields, all default-constructed.
///
/// The struct gets an accessor per histogram and `histograms()`, every
/// histogram as `(name, histogram)` in declaration order — the list the
/// serving layer's `metrics` reply and Prometheus exposition iterate, so a
/// histogram added to the declaration is exported everywhere.
#[macro_export]
macro_rules! histograms {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $($(#[$doc:meta])* $name:ident,)*
            $(; $($(#[$field_doc:meta])* $field:ident: $field_ty:ty,)*)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $ty {
            $($name: $crate::Histogram,)*
            $($($(#[$field_doc])* $field: $field_ty,)*)?
        }

        impl $ty {
            $($(#[$doc])* pub fn $name(&self) -> &$crate::Histogram {
                &self.$name
            })*

            /// Every histogram as `(name, histogram)`, in declaration order.
            pub fn histograms(
                &self,
            ) -> [(&'static str, &$crate::Histogram); [$(stringify!($name)),*].len()] {
                [$((stringify!($name), &self.$name)),*]
            }
        }
    };
}

histograms! {
    /// Latency histograms (microsecond-valued, lock-free) plus the retained
    /// snapshot-age window of one engine.
    ///
    /// Obtainable from either side of the split —
    /// [`crate::QueryEngine::telemetry`] or
    /// [`crate::EngineSnapshot::telemetry`] — and safe to read while workers
    /// record into it.
    pub struct EngineTelemetry {
        /// End-to-end ad-hoc evaluation latency (cache hits included).
        eval,
        /// Query-compilation latency: regex/NFA → frozen `DenseNfa`
        /// (compile-cache hits included — a hit records the lookup cost).
        compile,
        /// Product-BFS sweep latency (the parallel pool, workers joined,
        /// before the merge).
        product_bfs,
        /// Incremental-maintenance latency: insertion delta repair and DRed
        /// deletion repair, whole sharded phase.
        repair,
        /// Latency of `publish_snapshot` calls that actually built a snapshot.
        snapshot_publish,
        /// Interactive point-lookup latency (pair and single-source reads),
        /// end to end — cache and extension fast paths included, so the
        /// histogram shows the served latency, not just fresh-search cost.
        interactive,
        ;
        /// Publish instants of the snapshots the engine currently retains
        /// (`snapshot_keep_last` window plus the current one), oldest first —
        /// the source of the pinned-snapshot-age gauges.
        published: Mutex<Vec<(u64, Instant)>>,
    }
}

impl EngineTelemetry {
    /// Records a snapshot publication, mirroring the engine's keep-last-K
    /// retention (plus the currently published snapshot) so the age gauges
    /// track exactly what the engine keeps pinned.
    pub(crate) fn note_published(&self, revision: u64, keep_last: usize) {
        let mut published = self.published.lock().unwrap_or_else(|e| e.into_inner());
        published.push((revision, Instant::now()));
        let window = keep_last.max(1);
        while published.len() > window {
            published.remove(0);
        }
    }

    /// Ages (in seconds) of the snapshots the engine currently pins, as
    /// `(revision, age_seconds)` pairs, oldest first.  This is the
    /// "pinned-snapshot-age" gauge set: the oldest entry bounds how stale a
    /// late-arriving reader handed a retained snapshot can be.
    pub fn snapshot_ages(&self) -> Vec<(u64, f64)> {
        let published = self.published.lock().unwrap_or_else(|e| e.into_inner());
        // One clock read for the whole window: a read per entry lets an
        // older snapshot report a smaller age than a newer one.
        let now = Instant::now();
        published
            .iter()
            .map(|&(revision, at)| (revision, now.saturating_duration_since(at).as_secs_f64()))
            .collect()
    }

    /// Age in seconds of the oldest snapshot the engine pins (0 when none
    /// was ever published).
    pub fn oldest_snapshot_age_s(&self) -> f64 {
        self.snapshot_ages().first().map_or(0.0, |&(_, age)| age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_window_mirrors_keep_last() {
        let t = EngineTelemetry::default();
        assert_eq!(t.oldest_snapshot_age_s(), 0.0);
        for revision in 0..6 {
            t.note_published(revision, 3);
        }
        let ages = t.snapshot_ages();
        assert_eq!(ages.len(), 3);
        assert_eq!(ages[0].0, 3, "oldest retained revision");
        assert_eq!(ages[2].0, 5, "newest retained revision");
        // Oldest first: ages decrease (weakly) toward the newest entry.
        assert!(ages[0].1 >= ages[2].1);
        assert!(ages.windows(2).all(|w| w[0].1 >= w[1].1), "{ages:?}");

        // keep_last 0 still tracks the currently published snapshot.
        let t = EngineTelemetry::default();
        t.note_published(0, 0);
        t.note_published(1, 0);
        let ages = t.snapshot_ages();
        assert_eq!(ages.len(), 1);
        assert_eq!(ages[0].0, 1);
    }

    #[test]
    fn histograms_iterate_in_pipeline_order() {
        let t = EngineTelemetry::default();
        t.eval().record(10);
        let names: Vec<&str> = t.histograms().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["eval", "compile", "product_bfs", "repair", "snapshot_publish", "interactive"]
        );
        assert_eq!(t.histograms()[0].1.count(), 1);
    }
}
