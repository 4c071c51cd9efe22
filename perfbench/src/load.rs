//! Open-loop load: seeded schedules and the per-stream queue recurrence.
//!
//! Each stream draws its arrival schedule from the seed. A load thread
//! sleeps until the next due arrival of any of its streams, issues it, and
//! measures the call's service time. Latency is charged from the due time
//! through the single-server queue of the stream the query belongs to:
//! `depart_i = max(due_i, depart_{i-1}) + service_i`, latency
//! `depart_i - due_i`. A query therefore pays for the queries of its own
//! stream that were still in service when it came due, never for the
//! thread's sleep granularity or for another stream sharing the thread.
//! How late the thread issued each arrival is recorded separately as the
//! generator's lag.

/// Deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..m` (`m > 0`).
    pub fn below(&mut self, m: usize) -> usize {
        debug_assert!(m > 0);
        (self.next_u64() % m as u64) as usize
    }

    /// An exponential inter-arrival gap, in ns, for a Poisson stream of
    /// `rate_hz` arrivals per second.
    pub fn exp_gap_ns(&mut self, rate_hz: f64) -> u64 {
        let gap_s = -(1.0 - self.next_f64()).ln() / rate_hz;
        (gap_s * 1e9) as u64
    }
}

/// The single-server queue of one stream, in nanoseconds since the run's
/// origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamQueue {
    depart_ns: u64,
}

impl StreamQueue {
    /// Charges an arrival due at `due_ns` that took `service_ns` to serve
    /// and returns its latency.
    pub fn charge(&mut self, due_ns: u64, service_ns: u64) -> u64 {
        self.depart_ns = due_ns.max(self.depart_ns) + service_ns;
        self.depart_ns - due_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_per_stream() {
        let draw = |seed, stream| {
            let mut g = SplitMix::new(seed, stream);
            (0..8).map(|_| g.exp_gap_ns(1000.0)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn exponential_gaps_have_the_right_mean() {
        let mut g = SplitMix::new(3, 0);
        let n = 200_000u64;
        let total: u64 = (0..n).map(|_| g.exp_gap_ns(10_000.0)).sum();
        let mean_us = total as f64 / n as f64 / 1e3;
        assert!((mean_us - 100.0).abs() < 2.0, "mean gap {mean_us}us");
    }

    #[test]
    fn queue_charges_waiting_behind_the_stream() {
        let mut q = StreamQueue::default();
        // Idle server: latency is the service time.
        assert_eq!(q.charge(100, 10), 10);
        // Due at 105 while the first departs at 110: waits 5.
        assert_eq!(q.charge(105, 10), 15);
        // Due after the backlog cleared.
        assert_eq!(q.charge(500, 3), 3);
    }
}
