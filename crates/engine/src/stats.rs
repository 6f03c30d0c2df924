//! Simulation statistics and measurement windows.

/// Declares [`Stats`] from the one list of its counters: the struct, the
/// fixed-order array view the codecs write, its inverse, the field names
/// and their number all come from the same identifiers, in the same
/// order.
macro_rules! stats_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters maintained by the engine. All figures of the
        /// paper derive from deltas of these counters over a measurement
        /// window (see [`StatsWindow`]).
        #[derive(Clone, Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Number of `u64` counters in [`Stats`] (a snapshot format
        /// constant).
        pub const STATS_COUNTERS: usize = [$(stringify!($name)),*].len();

        impl Stats {
            /// All counters as a fixed-order array — the checkpoint
            /// codec's stats layout.
            pub fn counters(&self) -> [u64; STATS_COUNTERS] {
                [$(self.$name),*]
            }

            /// Inverse of [`Stats::counters`].
            pub fn set_counters(&mut self, c: &[u64; STATS_COUNTERS]) {
                [$(self.$name),*] = *c;
            }

            /// Field names of [`Stats::counters`], in the same order
            /// (snapshot diff labels).
            pub fn counter_names() -> [&'static str; STATS_COUNTERS] {
                [$(stringify!($name)),*]
            }
        }
    };
}

// The order is part of the snapshot format: append new counters at the
// end and bump [`crate::snapshot::SNAPSHOT_VERSION`].
stats_counters! {
    /// Packets generated (pushed into source queues).
    generated_packets,
    /// Packets that entered an injection buffer.
    injected_packets,
    /// Packets delivered to their destination node.
    delivered_packets,
    /// Phits delivered.
    delivered_phits,
    /// Sum of packet latencies (generation → ejection grant + packet
    /// serialization), in cycles.
    latency_sum,
    /// Sum of link hops of delivered packets (local + global + ring).
    hop_sum,
    /// Non-minimal local hops taken (§IV-A).
    local_misroutes,
    /// Non-minimal global hops taken (§IV-A).
    global_misroutes,
    /// Packets that entered the escape ring (§IV-C).
    ring_entries,
    /// Hops taken along the escape ring.
    ring_advances,
    /// Packets that abandoned the ring through a canonical output.
    ring_exits,
    /// Packets delivered directly from the escape ring.
    ring_deliveries,
    /// Cycle of the last delivered packet.
    last_delivery,
    /// Cycle of the last crossbar grant anywhere in the network
    /// (progress watchdog for deadlock detection).
    last_grant,
    /// Link-failure transitions applied (fault injection, §VII).
    link_failures,
    /// Link-restoration transitions applied.
    link_repairs,
    /// Router-failure transitions applied.
    router_failures,
    /// Router-restoration transitions applied.
    router_repairs,
    /// LLR: retransmissions issued (first transmissions excluded).
    llr_retransmits,
    /// LLR: transfers lost on the wire (header phit hit — never arrive).
    llr_wire_drops,
    /// LLR: transfers discarded at the receiver on a CRC mismatch.
    llr_crc_drops,
    /// LLR: duplicate transfers discarded at the receiver (spurious
    /// retransmissions — the sequence number was already accepted).
    llr_dup_drops,
    /// LLR: nacks processed by senders.
    llr_nacks,
    /// LLR: retransmit timeouts fired.
    llr_timeouts,
    /// LLR: links escalated to fail-stop after exhausting the retry
    /// budget.
    llr_escalations,
    /// Packets ejected more than once (must stay 0 while the link layer
    /// dedups; counted, not asserted, so release runs surface it too).
    duplicate_deliveries,
    /// CM: token-bucket units actually credited to injection buckets
    /// (cap-clamped, so `granted − consumed ≡ Σ bucket levels` exactly —
    /// the `ThrottleTokenLaw` auditor invariant).
    cm_tokens_granted,
    /// CM: token-bucket units debited by successful injections.
    cm_tokens_consumed,
    /// CM: injection attempts deferred because the bucket was short.
    cm_throttle_deferrals,
    /// CM: router·cycles spent in the throttled hysteresis state.
    cm_throttled_cycles,
}

// Counter readout must be total: no panicking index on the conservation
// counters (DESIGN.md §13).
#[deny(clippy::indexing_slicing)]
impl Stats {
    /// Mean packet latency over all deliveries so far.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Mean hop count over all deliveries so far.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.delivered_packets as f64
        }
    }
}

/// Jain's fairness index over per-source delivery counts:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]` — 1 when every source receives equal
/// service, `1/n` when a single source monopolizes the network.
/// Returns 1.0 for an empty or all-zero population (nothing is unfair
/// about nothing delivered).
pub fn jain_index(xs: &[u64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sq_sum: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq_sum)
}

/// A measurement window: the delta of two [`Stats`] snapshots plus the
/// elapsed cycles, exposing the paper's metrics.
#[derive(Clone, Copy, Debug)]
pub struct StatsWindow {
    /// Cycles covered by the window.
    pub cycles: u64,
    /// Nodes in the network (for per-node normalization).
    pub nodes: usize,
    /// Packets delivered in the window.
    pub delivered_packets: u64,
    /// Phits delivered in the window.
    pub delivered_phits: u64,
    /// Packets generated in the window.
    pub generated_packets: u64,
    /// Latency sum of deliveries in the window.
    pub latency_sum: u64,
    /// Hop sum of deliveries in the window.
    pub hop_sum: u64,
    /// Local misroutes in the window.
    pub local_misroutes: u64,
    /// Global misroutes in the window.
    pub global_misroutes: u64,
    /// Ring entries in the window.
    pub ring_entries: u64,
}

#[deny(clippy::indexing_slicing)]
impl StatsWindow {
    /// Delta between two snapshots taken `cycles` apart.
    pub fn between(start: &Stats, end: &Stats, cycles: u64, nodes: usize) -> Self {
        Self {
            cycles,
            nodes,
            delivered_packets: end.delivered_packets - start.delivered_packets,
            delivered_phits: end.delivered_phits - start.delivered_phits,
            generated_packets: end.generated_packets - start.generated_packets,
            latency_sum: end.latency_sum - start.latency_sum,
            hop_sum: end.hop_sum - start.hop_sum,
            local_misroutes: end.local_misroutes - start.local_misroutes,
            global_misroutes: end.global_misroutes - start.global_misroutes,
            ring_entries: end.ring_entries - start.ring_entries,
        }
    }

    /// Accepted throughput in phits/(node·cycle) — the paper's y-axis in
    /// Figs. 2b, 3b, 4b, 5b, 8b and 9.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.delivered_phits as f64 / (self.cycles as f64 * self.nodes as f64)
    }

    /// Average latency (cycles) of packets delivered in the window — the
    /// paper's y-axis in Figs. 3a, 4a, 5a and 8a.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Average hops per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Fraction of delivered packets that were misrouted at least once
    /// (upper bound: counts misroute hops over packets).
    pub fn misroute_rate(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            (self.local_misroutes + self.global_misroutes) as f64 / self.delivered_packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_delta_and_metrics() {
        let start = Stats {
            delivered_packets: 10,
            delivered_phits: 80,
            latency_sum: 1000,
            ..Default::default()
        };
        let end = Stats {
            delivered_packets: 110,
            delivered_phits: 880,
            latency_sum: 21000,
            hop_sum: 300,
            ..Default::default()
        };
        let w = StatsWindow::between(&start, &end, 100, 4);
        assert_eq!(w.delivered_packets, 100);
        assert_eq!(w.delivered_phits, 800);
        // 800 phits / (100 cycles * 4 nodes) = 2.0
        assert!((w.throughput() - 2.0).abs() < 1e-12);
        assert!((w.avg_latency() - 200.0).abs() < 1e-12);
        assert!((w.avg_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jain_index_bounds_and_extremes() {
        // Equal service → 1.0.
        assert!((jain_index(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        // One source monopolizes an n=4 population → 1/4.
        assert!((jain_index(&[12, 0, 0, 0]) - 0.25).abs() < 1e-12);
        // Degenerate populations are "fair".
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        // Always in (0, 1].
        let j = jain_index(&[1, 2, 3, 4, 100]);
        assert!(j > 0.0 && j <= 1.0);
    }

    #[test]
    fn empty_window_is_safe() {
        let s = Stats::default();
        let w = StatsWindow::between(&s, &s, 0, 0);
        assert_eq!(w.throughput(), 0.0);
        assert_eq!(w.avg_latency(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
    }
}
