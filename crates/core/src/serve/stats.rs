//! Serving accounting: the exactly-reconciled [`ServerStats`] ledger,
//! demuxed [`ServedDetection`]s, and the log₂-bucketed [`LatencyHistogram`]
//! behind the p50/p99 window-latency figures.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use crate::serve::error::SessionId;
use crate::streaming::Detection;

/// Monotonic counters over everything a server has done. Each shard keeps
/// one cell per model ([`ShardSnapshot::per_model`]); every other ledger —
/// [`ShardedStreamServer::stats`], [`ShardedStreamServer::stats_for`],
/// [`ShardedStreamServer::shard_stats`] — is a sum of cells.
///
/// The counters **reconcile exactly**: every window a feed ever made due is
/// either still pending or in exactly one terminal counter, so
/// `windows_fed == windows_accounted() + pending_windows()` holds in every
/// cell at every quiescent point (the overload proptests assert it after
/// every call), and therefore in every sum of cells too.
///
/// [`ShardSnapshot::per_model`]: crate::serve::ShardSnapshot::per_model
/// [`ShardedStreamServer::stats`]: crate::serve::ShardedStreamServer::stats
/// [`ShardedStreamServer::stats_for`]: crate::serve::ShardedStreamServer::stats_for
/// [`ShardedStreamServer::shard_stats`]: crate::serve::ShardedStreamServer::shard_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Windows that became due across all feeds (before admission control).
    pub windows_fed: u64,
    /// Windows that went through inference and voted.
    pub windows_served: u64,
    /// Windows discarded by a drop policy: a
    /// [`OverflowPolicy::DropOldest`](crate::serve::OverflowPolicy::DropOldest)
    /// eviction or a
    /// [`OverflowPolicy::DropNewest`](crate::serve::OverflowPolicy::DropNewest)
    /// refusal.
    pub windows_dropped: u64,
    /// Always 0: no admission policy rejects windows any more. The field
    /// stays so code that names every counter keeps compiling.
    pub windows_rejected: u64,
    /// Windows shed by the
    /// [`ServeConfig::tick_budget`](crate::serve::ServeConfig::tick_budget)
    /// latency budget.
    pub windows_shed: u64,
    /// Windows dropped because their session closed before the tick.
    pub windows_closed: u64,
    /// Windows whose logits were unusable (backend panic, wrong arity, or
    /// non-finite values): no vote, no detection, session survives.
    pub windows_quarantined: u64,
    /// Whole feed calls refused with no audio consumed
    /// ([`ServeError::NonFiniteAudio`](crate::serve::ServeError::NonFiniteAudio)).
    pub rejected_feeds: u64,
    /// Backend calls that panicked or returned malformed logits, including
    /// failed single-row retries (from [`thnt_nn::IsolatedBatch`]).
    pub faulted_calls: u64,
}

impl ServerStats {
    /// Windows with a terminal fate: served, dropped, rejected, shed,
    /// closed, or quarantined. `windows_fed − windows_accounted()` is
    /// exactly the server's current pending-queue depth.
    pub fn windows_accounted(&self) -> u64 {
        self.windows_served
            + self.windows_dropped
            + self.windows_rejected
            + self.windows_shed
            + self.windows_closed
            + self.windows_quarantined
    }

    /// Adds another ledger's counters into this one — the marginalisation
    /// step that folds per-model × per-shard cells into per-shard,
    /// per-model, and aggregate ledgers. Because every counter is a
    /// monotonic sum and no window ever crosses cells, merged ledgers
    /// reconcile whenever their parts do.
    pub fn merge(&mut self, other: &ServerStats) {
        self.windows_fed += other.windows_fed;
        self.windows_served += other.windows_served;
        self.windows_dropped += other.windows_dropped;
        self.windows_rejected += other.windows_rejected;
        self.windows_shed += other.windows_shed;
        self.windows_closed += other.windows_closed;
        self.windows_quarantined += other.windows_quarantined;
        self.rejected_feeds += other.rejected_feeds;
        self.faulted_calls += other.faulted_calls;
    }
}

/// A detection demuxed back to the session that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedDetection {
    /// The session whose stream triggered the detection.
    pub session: SessionId,
    /// The detection itself, positioned in that session's stream.
    pub detection: Detection,
}

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds, so bucket 39 tops out above 9 minutes — far beyond any
/// plausible window latency.
const LATENCY_BUCKETS: usize = 40;

/// A fixed-footprint log₂ histogram of window latencies (feed-to-vote), the
/// store behind the per-shard p50/p99 figures.
///
/// Each recorded duration lands in the bucket holding its nanosecond count;
/// quantiles are answered with the bucket's upper bound, i.e. within 2× of
/// the true value — the right fidelity for load shedding and dashboards at
/// 320 bytes per shard, no allocation, and O(1) record. Histograms from
/// different shards [`merge`](Self::merge) by bucket-wise addition, which is
/// exact: the aggregate histogram equals the histogram of the union of
/// samples, so aggregate quantiles are consistent with per-shard ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; LATENCY_BUCKETS], count: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // floor(log2(ns)) for ns >= 1; 0 ns shares bucket 0 with 1 ns.
        (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other` into this histogram (exact: bucket-wise
    /// addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Upper bound (in ns) of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 with no samples. The answer over-reports by
    /// at most 2×, never under-reports.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped to the sample count.
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) − 1 ns; the top bucket
                // is open-ended, so its bound saturates.
                return if i + 1 >= LATENCY_BUCKETS { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }

    /// The count / p50 / p99 summary served by the stats endpoints.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
        }
    }
}

/// Quantile summary of a [`LatencyHistogram`]: how long windows waited
/// between becoming due at feed time and casting their vote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Windows the summary covers (served windows only).
    pub count: u64,
    /// Median window latency in nanoseconds (bucket upper bound; ≤2× true).
    pub p50_ns: u64,
    /// 99th-percentile window latency in nanoseconds (bucket upper bound).
    pub p99_ns: u64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn quantiles_bound_true_values_within_2x() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_nanos(ns));
        }
        let p50 = h.quantile_ns(0.5);
        // True median is 400 ns; the answer must cover it without doubling
        // more than the bucket width.
        assert!((400..=799).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((100_000..200_000).contains(&p99), "p99 {p99}");
        // Quantiles are monotone in q.
        assert!(h.quantile_ns(0.1) <= p50 && p50 <= p99);
    }

    #[test]
    fn merge_equals_union_of_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for (i, ns) in [3u64, 17, 90, 1_000, 65_000, 2_000_000].iter().enumerate() {
            let d = Duration::from_nanos(*ns);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            union.record(d);
        }
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(a.summary(), union.summary());
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(0));
        h.record(Duration::from_secs(3_600));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(0.0) >= 1);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn server_stats_merge_sums_every_counter() {
        let a = ServerStats {
            windows_fed: 10,
            windows_served: 4,
            windows_dropped: 1,
            windows_rejected: 1,
            windows_shed: 1,
            windows_closed: 1,
            windows_quarantined: 1,
            rejected_feeds: 2,
            faulted_calls: 3,
        };
        let mut sum = a;
        sum.merge(&a);
        assert_eq!(sum.windows_fed, 20);
        assert_eq!(sum.windows_accounted(), 2 * a.windows_accounted());
        assert_eq!(sum.rejected_feeds, 4);
        assert_eq!(sum.faulted_calls, 6);
    }
}
