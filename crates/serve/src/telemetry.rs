//! Serving-tier telemetry: lock-free counters and fixed-bucket latency
//! histograms the experiment harness (and any monitoring layer) reads
//! while the server is hot.
//!
//! The histograms make the query-shape split observable in production,
//! not just in the bench: every query records into either the **direct**
//! histogram (one shard's store answered) or the **fan-out** histogram (a
//! cross-shard gather merged several shards' partials), so a regression
//! that makes gathers expensive shows up as a shifted distribution, not
//! just a vibe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, so 40 buckets span 1ns to ~9 minutes —
/// any serving latency beyond that is an outage, not a tail.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket (log2), lock-free latency histogram. Std-only: an
/// array of relaxed counters, no allocation after construction, safe to
/// record into from any number of threads.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples with `floor(log2(ns)) == i`.
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sample from a [`Duration`].
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Plain-value copy of the buckets at one instant.
    #[must_use]
    pub fn snapshot(&self) -> LatencyHistogramSnapshot {
        LatencyHistogramSnapshot {
            // lint: allow(relaxed, "telemetry histogram buckets: monotonic counters, snapshot need not be a consistent cut")
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A plain-value copy of a [`LatencyHistogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogramSnapshot {
    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exclusive upper bound (ns) of bucket `i`.
    #[must_use]
    pub fn bucket_upper_ns(i: usize) -> u64 {
        if i + 1 >= LATENCY_BUCKETS {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`) — a conservative percentile: the true value is
    /// at most this, and at least half of it. `None` when empty.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // ceil(q * total), clamped to [1, total].
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_upper_ns(i));
            }
        }
        Some(Self::bucket_upper_ns(LATENCY_BUCKETS - 1))
    }

    /// Merges another snapshot into this one (per-bucket sum).
    pub fn merge(&mut self, other: &LatencyHistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Monotone counters accumulated over the server's lifetime. All updates
/// are relaxed atomics: the counters order nothing, they only count.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Snapshots published (including no-op re-publishes of the serving
    /// epoch, which swap nothing).
    pub publishes: AtomicU64,
    /// Shard stores rebuilt by publishes (stale shards).
    pub shards_rebuilt: AtomicU64,
    /// Shard stores re-pinned by publishes (fresh shards: new epoch, same
    /// data `Arc`).
    pub shards_repinned: AtomicU64,
    /// Shard stores refreshed by removal publishes (per-site orders
    /// reused, shard top list re-merged under redistributed scores).
    pub shards_refreshed: AtomicU64,
    /// Point lookups rejected because they named a tombstoned document or
    /// site.
    pub tombstone_rejections: AtomicU64,
    /// Point score lookups answered.
    pub score_queries: AtomicU64,
    /// Batched score lookups answered (one batch = one count).
    pub batch_queries: AtomicU64,
    /// Cross-shard global top-k queries answered.
    pub top_k_queries: AtomicU64,
    /// Single-site top-k queries answered.
    pub site_top_k_queries: AtomicU64,
    /// Pairwise compare queries answered.
    pub compare_queries: AtomicU64,
    /// Single-shard queries (`score`, one-shard batches, `top_k_for_site`,
    /// co-sharded `compare`): one shard's store answered. Under a
    /// point-lookup workload this tracks those query counts one-for-one.
    pub direct_hits: AtomicU64,
    /// Cross-shard gathers (`top_k`, multi-shard batches and compares):
    /// several shards' partials merged on the caller's thread.
    pub fanout_queries: AtomicU64,
    /// Always 0 in-process: every read answers from one loaded serving
    /// set, so a gather cannot straddle a swap. Kept for the benchmark's
    /// report shape.
    pub gather_retries: AtomicU64,
    /// Always 0 in-process: no read takes the publish gate. Kept for the
    /// benchmark's report shape.
    pub gate_escalations: AtomicU64,
    /// Shard-local top-k scans taken because `k` exceeded the precomputed
    /// heap capacity.
    pub heap_overflow_scans: AtomicU64,
    /// Latency of single-shard queries.
    pub direct_latency: LatencyHistogram,
    /// Latency of cross-shard gathers, merge included.
    pub fanout_latency: LatencyHistogram,
}

/// A plain-value copy of [`ServeStats`] at one instant, extended by
/// [`ShardedServer::stats`](crate::ShardedServer::stats) with the live
/// per-shard document counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeStatsSnapshot {
    /// See [`ServeStats::publishes`].
    pub publishes: u64,
    /// See [`ServeStats::shards_rebuilt`].
    pub shards_rebuilt: u64,
    /// See [`ServeStats::shards_repinned`].
    pub shards_repinned: u64,
    /// See [`ServeStats::shards_refreshed`].
    pub shards_refreshed: u64,
    /// See [`ServeStats::tombstone_rejections`].
    pub tombstone_rejections: u64,
    /// Live documents per shard at the instant of the snapshot (filled by
    /// `ShardedServer::stats`; empty when read straight off `ServeStats`).
    /// Removal drains entries in place and growth piles into the last
    /// shard — the imbalance a dynamic resharder triggers on.
    pub shard_docs: Vec<u64>,
    /// See [`ServeStats::score_queries`].
    pub score_queries: u64,
    /// See [`ServeStats::batch_queries`].
    pub batch_queries: u64,
    /// See [`ServeStats::top_k_queries`].
    pub top_k_queries: u64,
    /// See [`ServeStats::site_top_k_queries`].
    pub site_top_k_queries: u64,
    /// See [`ServeStats::compare_queries`].
    pub compare_queries: u64,
    /// See [`ServeStats::direct_hits`].
    pub direct_hits: u64,
    /// See [`ServeStats::fanout_queries`].
    pub fanout_queries: u64,
    /// See [`ServeStats::gather_retries`].
    pub gather_retries: u64,
    /// See [`ServeStats::gate_escalations`].
    pub gate_escalations: u64,
    /// See [`ServeStats::heap_overflow_scans`].
    pub heap_overflow_scans: u64,
    /// See [`ServeStats::direct_latency`].
    pub direct_latency: LatencyHistogramSnapshot,
    /// See [`ServeStats::fanout_latency`].
    pub fanout_latency: LatencyHistogramSnapshot,
}

impl ServeStats {
    /// Adds `n` to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub(crate) fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// Reads every counter at one instant (each relaxed — the snapshot is
    /// not a consistent cut, which is fine for counting).
    #[must_use]
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        // lint: allow(relaxed, "telemetry snapshot: every field read here is a monotonic counter")
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStatsSnapshot {
            publishes: read(&self.publishes),
            shards_rebuilt: read(&self.shards_rebuilt),
            shards_repinned: read(&self.shards_repinned),
            shards_refreshed: read(&self.shards_refreshed),
            tombstone_rejections: read(&self.tombstone_rejections),
            shard_docs: Vec::new(),
            score_queries: read(&self.score_queries),
            batch_queries: read(&self.batch_queries),
            top_k_queries: read(&self.top_k_queries),
            site_top_k_queries: read(&self.site_top_k_queries),
            compare_queries: read(&self.compare_queries),
            direct_hits: read(&self.direct_hits),
            fanout_queries: read(&self.fanout_queries),
            gather_retries: read(&self.gather_retries),
            gate_escalations: read(&self.gate_escalations),
            heap_overflow_scans: read(&self.heap_overflow_scans),
            direct_latency: self.direct_latency.snapshot(),
            fanout_latency: self.fanout_latency.snapshot(),
        }
    }
}

impl ServeStatsSnapshot {
    /// Total queries answered, across every query kind.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.score_queries
            + self.batch_queries
            + self.top_k_queries
            + self.site_top_k_queries
            + self.compare_queries
    }

    /// Gather retries per answered query — the bounded-retries signal the
    /// chaos harness asserts on: under a seeded fault schedule this must
    /// stay a small constant instead of growing with run length (a retry
    /// storm shows up here long before it shows up as latency). `0.0`
    /// before any query.
    #[must_use]
    pub fn retries_per_query(&self) -> f64 {
        if self.total_queries() == 0 {
            return 0.0;
        }
        self.gather_retries as f64 / self.total_queries() as f64
    }

    /// Per-shard document-count skew: the largest shard's live doc count
    /// over the mean — `1.0` is perfectly balanced, and a value drifting
    /// upward under churn (removal draining some shards, growth clamping
    /// into the last) is the dynamic-resharding trigger signal. `1.0` when
    /// `shard_docs` is empty or the server holds no documents.
    #[must_use]
    pub fn doc_skew(&self) -> f64 {
        let total: u64 = self.shard_docs.iter().sum();
        if self.shard_docs.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.shard_docs.len() as f64;
        let max = *self.shard_docs.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_bumped_counters() {
        let stats = ServeStats::default();
        ServeStats::bump(&stats.publishes);
        ServeStats::add(&stats.shards_rebuilt, 3);
        ServeStats::add(&stats.shards_refreshed, 2);
        ServeStats::bump(&stats.tombstone_rejections);
        ServeStats::bump(&stats.top_k_queries);
        ServeStats::bump(&stats.score_queries);
        ServeStats::bump(&stats.direct_hits);
        ServeStats::bump(&stats.fanout_queries);
        let snap = stats.snapshot();
        assert_eq!(snap.publishes, 1);
        assert_eq!(snap.shards_rebuilt, 3);
        assert_eq!(snap.shards_refreshed, 2);
        assert_eq!(snap.tombstone_rejections, 1);
        assert_eq!(snap.direct_hits, 1);
        assert_eq!(snap.fanout_queries, 1);
        assert_eq!(snap.total_queries(), 2);
    }

    #[test]
    fn doc_skew_measures_imbalance() {
        let mut snap = ServeStatsSnapshot::default();
        assert!((snap.doc_skew() - 1.0).abs() < 1e-12);
        snap.shard_docs = vec![100, 100, 100, 100];
        assert!((snap.doc_skew() - 1.0).abs() < 1e-12);
        // One shard drained to 40, another bloated to 160: skew = 160/100.
        snap.shard_docs = vec![40, 100, 100, 160];
        assert!((snap.doc_skew() - 1.6).abs() < 1e-12);
        snap.shard_docs = vec![0, 0];
        assert!((snap.doc_skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::default();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        h.record_ns(u64::MAX); // clamped to the last bucket
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().quantile_upper_ns(0.99), None);
        // 99 fast samples at ~1µs, one slow at ~1ms.
        for _ in 0..99 {
            h.record_ns(1_000); // bucket 9: [512, 1024)
        }
        h.record_ns(1_000_000); // bucket 19
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_ns(0.5), Some(1024));
        assert_eq!(snap.quantile_upper_ns(0.99), Some(1024));
        // The single outlier owns the p999.
        assert_eq!(snap.quantile_upper_ns(0.999), Some(1 << 20));
        assert_eq!(snap.quantile_upper_ns(1.0), Some(1 << 20));
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(100_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.buckets[3], 2); // 10ns -> bucket 3: [8, 16)
    }

    #[test]
    fn histogram_records_durations() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3)); // 3000ns -> bucket 11
        assert_eq!(h.snapshot().buckets[11], 1);
    }
}
