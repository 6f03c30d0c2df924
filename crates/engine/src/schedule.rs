//! Shard iteration schedules for the two shard loops of `step`.
//!
//! The two shard loops of [`Network::step`](crate::Network::step)
//! — `inject` and `route` — are written to touch disjoint per-shard
//! state, so their iteration order must be unobservable. (The
//! `route` order also permutes the order in which link events are filed
//! into the timing wheel, and with it the order the serial `deliver`
//! phase applies them a link latency later.) This
//! module makes that claim *executable*: a [`ShardSchedule`] materializes
//! a permutation of the shard indices, the engine walks the loops in
//! that order, and the `ofar-race` certifier byte-compares snapshots
//! across schedules. [`ShardSchedule::Identity`] materializes to an
//! empty order vector, which the engine treats as the plain `0..n` loop
//! — the release path pays one `is_empty` branch per loop, nothing else.

/// Iteration order of the per-shard loops in the two sharded
/// phases of `Network::step` (`route` iterates routers, `inject`
/// iterates nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardSchedule {
    /// Natural order `0..n` — the default and the release fast path.
    Identity,
    /// Reverse order `n-1..=0`: maximally far from identity in rank
    /// order, catches "later shard sees earlier shard's write" races.
    Reversed,
    /// Rotation by `k`: shard `i` runs at position `(i + n - k % n) % n`,
    /// i.e. the loop starts at shard `k % n`. Catches races between a
    /// fixed pair of adjacent shards (e.g. a router and its upstream).
    Rotated(u32),
    /// Seeded Fisher–Yates permutation over a splitmix64 stream:
    /// arbitrary interleavings, different every seed.
    Seeded(u64),
}

impl ShardSchedule {
    /// Materialize the iteration order over `n` shards. Identity returns
    /// an **empty** vector — the engine's sentinel for "use the plain
    /// loop" — so the release path never indexes through a table.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a harness knob materialized once per run; the shard count is debug-asserted to fit u32 and j is reduced modulo i + 1"
    )]
    pub fn order(self, n: usize) -> Vec<u32> {
        debug_assert!(
            n <= u32::MAX as usize,
            "shard count exceeds u32 order encoding"
        );
        match self {
            ShardSchedule::Identity => Vec::new(),
            ShardSchedule::Reversed => (0..n as u32).rev().collect(),
            ShardSchedule::Rotated(k) => {
                if n == 0 {
                    return Vec::new();
                }
                let k = k % n as u32;
                (0..n as u32).map(|i| (i + k) % n as u32).collect()
            }
            ShardSchedule::Seeded(seed) => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                // Fisher–Yates over a splitmix64 stream: every
                // permutation reachable, fully determined by `seed`.
                let mut state = seed;
                for i in (1..n).rev() {
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            }
        }
    }

    /// Stable human-readable label (witnesses, verdict artifacts).
    pub fn describe(self) -> String {
        match self {
            ShardSchedule::Identity => "identity".to_string(),
            ShardSchedule::Reversed => "reversed".to_string(),
            ShardSchedule::Rotated(k) => format!("rotated({k})"),
            ShardSchedule::Seeded(s) => format!("seeded({s:#x})"),
        }
    }

    /// The adversarial schedule set of size `k` used by the certifier:
    /// reversed, a prime rotation, then seeded permutations. Reversed
    /// and rotated are the structured extremes; the seeded tail explores
    /// arbitrary interleavings reproducibly.
    pub fn adversaries(k: usize) -> Vec<ShardSchedule> {
        let mut out = Vec::with_capacity(k);
        if k >= 1 {
            out.push(ShardSchedule::Reversed);
        }
        if k >= 2 {
            out.push(ShardSchedule::Rotated(7));
        }
        for i in 0..k.saturating_sub(2) {
            out.push(ShardSchedule::Seeded(
                0x0FA2_5EED_u64.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i as u64)),
            ));
        }
        out
    }
}

/// The splitmix64 step — the standard seed-expansion mixer (Steele et
/// al., "Fast splittable pseudorandom number generators"). Used only to
/// derive permutations; simulation randomness stays in the policy RNGs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&i| {
                let i = i as usize;
                i < n && !std::mem::replace(&mut seen[i], true)
            })
    }

    #[test]
    fn identity_is_the_empty_sentinel() {
        assert!(ShardSchedule::Identity.order(68).is_empty());
    }

    #[test]
    fn every_schedule_is_a_permutation() {
        for sched in [
            ShardSchedule::Reversed,
            ShardSchedule::Rotated(7),
            ShardSchedule::Rotated(1000),
            ShardSchedule::Seeded(1),
            ShardSchedule::Seeded(0xDEAD_BEEF),
        ] {
            for n in [1usize, 2, 17, 68, 136] {
                assert!(
                    is_permutation(&sched.order(n), n),
                    "{} over {n} shards is not a permutation",
                    sched.describe()
                );
            }
        }
    }

    #[test]
    fn seeded_orders_are_reproducible_and_seed_sensitive() {
        let a = ShardSchedule::Seeded(42).order(64);
        let b = ShardSchedule::Seeded(42).order(64);
        let c = ShardSchedule::Seeded(43).order(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adversary_set_has_requested_size_and_no_identity() {
        let advs = ShardSchedule::adversaries(4);
        assert_eq!(advs.len(), 4);
        assert!(advs.iter().all(|s| *s != ShardSchedule::Identity));
        // Distinct schedules: at 68 shards all four orders differ.
        let orders: Vec<_> = advs.iter().map(|s| s.order(68)).collect();
        for i in 0..orders.len() {
            for j in i + 1..orders.len() {
                assert_ne!(orders[i], orders[j], "schedules {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn empty_and_single_shard_edge_cases() {
        assert!(ShardSchedule::Rotated(3).order(0).is_empty());
        assert_eq!(ShardSchedule::Seeded(9).order(1), vec![0]);
        assert_eq!(ShardSchedule::Reversed.order(1), vec![0]);
    }
}
