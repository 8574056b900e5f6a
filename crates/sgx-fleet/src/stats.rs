//! Per-slot and fleet-aggregate statistics.

/// Counters for one fleet slot (a logical client enclave). Latencies are
/// virtual-time nanoseconds measured from the request's *scheduled arrival*
/// to its completion, so open-loop queueing delay is included.
#[derive(Debug, Clone, Default)]
pub struct SlotStats {
    /// Enclave creations (cold starts after pool retirement).
    pub spin_ups: u32,
    /// Supervisor rebuilds after enclave losses.
    pub restarts: u32,
    /// Requests routed to this slot.
    pub requests: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed by the fleet circuit breaker.
    pub shed: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// EPC pages paged in for this slot's enclaves.
    pub page_ins: u64,
    /// This slot's pages evicted by other enclaves' EPC pressure.
    pub page_outs: u64,
    latencies: Vec<u64>,
}

impl SlotStats {
    /// Records one completed request's latency.
    pub fn record_latency(&mut self, ns: u64) {
        self.latencies.push(ns);
    }

    /// All recorded latencies, in completion order.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Median latency (0 when no request completed).
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.latencies, 50)
    }

    /// 99th-percentile latency (0 when no request completed).
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.latencies, 99)
    }
}

/// Nearest-rank percentile over an unsorted sample; 0 on an empty sample.
pub fn percentile(samples: &[u64], p: u64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sim_core::stats::nearest_rank(&sorted, p)
}

/// Fleet-wide totals, computed from all slots' counters at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetAggregate {
    /// Total slots in the fleet.
    pub slots: usize,
    /// Slots live (enclave resident) at snapshot time.
    pub live: usize,
    /// Total enclave creations.
    pub spin_ups: u64,
    /// Total supervisor rebuilds.
    pub restarts: u64,
    /// Total requests routed.
    pub requests: u64,
    /// Total requests completed.
    pub completed: u64,
    /// Total requests shed by the breaker.
    pub shed: u64,
    /// Total terminal failures.
    pub failed: u64,
    /// Total EPC page-ins.
    pub page_ins: u64,
    /// Total EPC page-outs (evictions).
    pub page_outs: u64,
    /// Fleet-wide median latency in nanoseconds.
    pub p50_ns: u64,
    /// Fleet-wide 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// How many times the fleet circuit breaker opened.
    pub breaker_opens: u64,
}

impl FleetAggregate {
    /// Folds per-slot stats (plus the live count and breaker counter) into
    /// fleet totals, merging every slot's latency sample for the fleet-wide
    /// percentiles.
    pub fn from_slots(slots: &[SlotStats], live: usize, breaker_opens: u64) -> FleetAggregate {
        let mut agg = FleetAggregate {
            slots: slots.len(),
            live,
            breaker_opens,
            ..FleetAggregate::default()
        };
        let mut all = Vec::new();
        for s in slots {
            agg.spin_ups += u64::from(s.spin_ups);
            agg.restarts += u64::from(s.restarts);
            agg.requests += s.requests;
            agg.completed += s.completed;
            agg.shed += s.shed;
            agg.failed += s.failed;
            agg.page_ins += s.page_ins;
            agg.page_outs += s.page_outs;
            all.extend_from_slice(s.latencies());
        }
        agg.p50_ns = percentile(&all, 50);
        agg.p99_ns = percentile(&all, 99);
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn aggregate_merges_latencies_across_slots() {
        let mut a = SlotStats {
            completed: 3,
            requests: 3,
            ..SlotStats::default()
        };
        for ns in [10, 20, 30] {
            a.record_latency(ns);
        }
        let mut b = SlotStats {
            completed: 2,
            requests: 3,
            shed: 1,
            spin_ups: 1,
            ..SlotStats::default()
        };
        for ns in [40, 50] {
            b.record_latency(ns);
        }
        let agg = FleetAggregate::from_slots(&[a, b], 2, 0);
        assert_eq!(agg.requests, 6);
        assert_eq!(agg.completed, 5);
        assert_eq!(agg.shed, 1);
        assert_eq!(agg.p50_ns, 30);
        assert_eq!(agg.p99_ns, 50);
    }
}
