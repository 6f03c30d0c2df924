//! The latency recorder: the [`Hooks`] the experiment runners read their
//! percentiles and transient series from.
//!
//! [`Recorder`] overrides [`Hooks::delivered`]. For the packets generated
//! at or after a cycle `since` it keeps one count per latency value, so
//! a percentile is exact and its memory grows with the largest latency
//! seen, not with the packets delivered. A transient run adds a series of
//! generation-cycle buckets from `since`, each a latency sum and a packet
//! count ([`Recorder::with_series`]).
//!
//! Like every hook it is outside simulation snapshots. A checkpoint that
//! must resume one carries its [`Recorder::encode`] bytes.

use crate::audit::AuditViolation;
use crate::hooks::Hooks;
use crate::snapshot::{Dec, Enc, SnapshotError};

/// Exact latency counts of the packets generated from one cycle on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recorder {
    /// Packets generated before this cycle are not recorded.
    since: u64,
    /// `by_latency[l]`: recorded packets delivered `l` cycles after
    /// their generation.
    by_latency: Vec<u64>,
    /// The sum of `by_latency`.
    recorded: u64,
    /// Width in cycles of each `series` bucket.
    width: u64,
    /// Bucket `b` holds the packets generated in
    /// `since + b·width .. since + (b + 1)·width`: latency sum, packets.
    series: Vec<(u64, u64)>,
}

impl Recorder {
    /// Record the packets generated at or after cycle `since`.
    pub fn since(since: u64) -> Self {
        Self {
            since,
            ..Self::default()
        }
    }

    /// Also keep `buckets` generation-cycle buckets of `width` cycles
    /// from `since` on, each a latency sum and a packet count.
    ///
    /// # Panics
    /// If `width` is 0.
    pub fn with_series(self, width: u64, buckets: usize) -> Self {
        assert!(width > 0, "a series bucket is at least one cycle wide");
        Self {
            width,
            series: vec![(0, 0); buckets],
            ..self
        }
    }

    /// Packets recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The generation-cycle buckets, in time order: latency sum and
    /// packets delivered of each. Empty unless built
    /// [`Self::with_series`].
    pub fn series(&self) -> &[(u64, u64)] {
        &self.series
    }

    /// Nearest-rank `pct`-th percentile latency of the recorded packets:
    /// the latency a sort would put at rank `(n − 1)·pct / 100`; 0 when
    /// nothing was recorded.
    pub fn percentile(&self, pct: u64) -> f64 {
        if self.recorded == 0 {
            return 0.0;
        }
        let rank = (self.recorded - 1) * pct / 100;
        let mut below = 0;
        for (latency, &n) in self.by_latency.iter().enumerate() {
            below += n;
            if below > rank {
                return latency as f64;
            }
        }
        // `rank < recorded`, the sum of every count.
        0.0
    }

    /// Whether `other` records the same packets into the same buckets,
    /// so that its counts can stand in for this recorder's (a resumed
    /// run taking a checkpoint's).
    pub fn same_window(&self, other: &Recorder) -> bool {
        (self.since, self.width, self.series.len())
            == (other.since, other.width, other.series.len())
    }

    /// Append the recorder to a checkpoint.
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.since);
        e.u64(self.width);
        e.usize(self.by_latency.len());
        e.u64s(&self.by_latency);
        e.usize(self.series.len());
        for &(sum, n) in &self.series {
            e.u64(sum);
            e.u64(n);
        }
    }

    /// Read a recorder [`Self::encode`] wrote. Counts that do not add up
    /// (a bucketed packet the latency counts miss, a sum past `u64`) are
    /// refused.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let since = d.u64()?;
        let width = d.u64()?;
        let n = d.len(8, "recorder latency count")?;
        let by_latency = d.u64s(n)?;
        let buckets = d.len(16, "recorder bucket count")?;
        let mut series = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            series.push((d.u64()?, d.u64()?));
        }
        fn total(mut counts: impl Iterator<Item = u64>) -> Option<u64> {
            counts.try_fold(0u64, u64::checked_add)
        }
        let recorded = total(by_latency.iter().copied());
        let bucketed = total(series.iter().map(|&(_, n)| n));
        match (recorded, bucketed) {
            (Some(recorded), Some(bucketed))
                if bucketed <= recorded && (width > 0 || series.is_empty()) =>
            {
                Ok(Self {
                    since,
                    by_latency,
                    recorded,
                    width,
                    series,
                })
            }
            _ => Err(SnapshotError::Malformed("recorder counts")),
        }
    }
}

impl Hooks for Recorder {
    /// No verdict of its own: the hooks beside it judge, so pairing a
    /// recorder changes no run.
    #[inline]
    fn check(&mut self, _: impl FnOnce() -> bool, _: impl FnOnce() -> AuditViolation) -> bool {
        true
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a latency is cycles of one run, far below usize::MAX"
    )]
    fn delivered(&mut self, injected_at: u64, latency: u64, _hops: u32) {
        let Some(offset) = injected_at.checked_sub(self.since) else {
            return;
        };
        let l = latency as usize;
        if l >= self.by_latency.len() {
            // Amortised doubling: a warm run stops growing.
            self.by_latency.resize(l + 1, 0);
        }
        self.by_latency[l] += 1;
        self.recorded += 1;
        let bucket = offset.checked_div(self.width);
        if let Some(bucket) = bucket.and_then(|b| self.series.get_mut(b as usize)) {
            bucket.0 += latency;
            bucket.1 += 1;
        }
    }

    #[inline]
    fn recorder(&self) -> Option<&Recorder> {
        Some(self)
    }

    #[inline]
    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(r: &mut Recorder, deliveries: &[(u64, u64)]) {
        for &(at, latency) in deliveries {
            r.delivered(at, latency, 0);
        }
    }

    proptest! {
        /// The counts give what a sort of the recorded latencies gives,
        /// at every rank the runners read.
        #[test]
        fn percentile_agrees_with_a_sort(
            deliveries in proptest::collection::vec((0u64..64, 0u64..300), 0..200),
            since in 0u64..64,
        ) {
            let mut r = Recorder::since(since);
            record(&mut r, &deliveries);
            let mut sorted: Vec<u64> = deliveries
                .iter()
                .filter(|&&(at, _)| at >= since)
                .map(|&(_, l)| l)
                .collect();
            sorted.sort_unstable();
            prop_assert_eq!(r.recorded(), sorted.len() as u64);
            for pct in [0, 50, 99, 100] {
                let want = match sorted.len() {
                    0 => 0.0,
                    n => sorted[(n - 1) * pct as usize / 100] as f64,
                };
                prop_assert_eq!(r.percentile(pct), want);
            }
        }
    }

    #[test]
    fn series_buckets_by_generation_cycle() {
        let mut r = Recorder::since(10).with_series(5, 2);
        record(&mut r, &[(9, 100), (10, 7), (14, 3), (15, 20), (20, 50)]);
        assert_eq!(r.series(), &[(10, 2), (20, 1)]);
        // The packet generated after the series still counts.
        assert_eq!(r.recorded(), 4);
        assert_eq!(r.percentile(100), 50.0);
    }

    #[test]
    fn the_codec_round_trips_and_refuses_what_does_not_add_up() {
        let mut r = Recorder::since(3).with_series(4, 3);
        record(&mut r, &[(3, 9), (4, 11), (8, 11), (30, 2)]);
        let mut e = Enc::default();
        r.encode(&mut e);
        let back = Recorder::decode(&mut Dec::new(&e.0)).unwrap();
        assert_eq!(back, r);

        assert!(Recorder::since(3).with_series(4, 3).same_window(&back));
        assert!(!Recorder::since(4).with_series(4, 3).same_window(&back));
        assert!(!Recorder::since(3).with_series(4, 2).same_window(&back));
        assert!(!Recorder::since(3).same_window(&back));

        // A bucket claiming more packets than were recorded.
        let mut bad = r.clone();
        bad.series[0].1 += 10;
        let mut e = Enc::default();
        bad.encode(&mut e);
        assert!(Recorder::decode(&mut Dec::new(&e.0)).is_err());
        for cut in 0..e.0.len() {
            assert!(Recorder::decode(&mut Dec::new(&e.0[..cut])).is_err());
        }
    }
}
