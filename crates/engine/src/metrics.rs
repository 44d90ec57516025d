//! Engine-wide timing telemetry: latency histograms.
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

/// Declares a struct of latency histograms once: one entry per histogram,
/// its name and documentation.
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
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $ty {
            $($name: $crate::Histogram,)*
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
    /// Latency histograms (microsecond-valued, lock-free) of one engine.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
