//! Sample statistics and the block rule.
//!
//! Every reported timing is the median over the units of a window, together
//! with the sample count and the highest percentile that still has at least
//! ten samples beyond it (so a tail figure is never one lucky or unlucky
//! sample).

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The highest of p90 / p99 / p99.9 that has at least ten samples beyond it,
/// as `(label, value)`.  With fewer than 100 samples no percentile
/// qualifies and the result is `None` — the report then shows the median and
/// the count only.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(&'static str, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find_map(|(label, p)| {
            // Nearest-rank index of the percentile; the samples strictly above
            // it are the ones "beyond".
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
            (n >= rank + 10).then(|| (label, sorted[rank - 1]))
        })
}

/// Block time ÷ block size: sub-millisecond operations are only ever timed
/// through blocks, so a sample is never dominated by timer or scheduler
/// granularity.
pub fn per_op_ms(block_ms: f64, ops: usize) -> f64 {
    block_ms / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 is rank 90, only 9 beyond — nothing qualifies.
        assert_eq!(highest_supported_percentile(&ramp(99)), None);
        // 100 samples: p90 is rank 90 with exactly 10 beyond.
        assert_eq!(
            highest_supported_percentile(&ramp(100)),
            Some(("p90", 90.0))
        );
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has only 1.
        assert_eq!(
            highest_supported_percentile(&ramp(1000)),
            Some(("p99", 990.0))
        );
        // 10 000 samples: p99.9 is rank 9990 with 10 beyond.
        assert_eq!(
            highest_supported_percentile(&ramp(10_000)),
            Some(("p99.9", 9990.0))
        );
    }

    #[test]
    fn block_timer_divides_by_block_size() {
        assert_eq!(per_op_ms(64.0, 64), 1.0);
        assert_eq!(per_op_ms(5.0, 0), 5.0); // an empty block is not a division by zero
    }
}
