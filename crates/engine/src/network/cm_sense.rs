//! The `cm_sense` phase: congestion-management state — per-router
//! occupancy estimators with hysteresis, one token bucket per NIC — and
//! the per-cycle sense-and-refill sweep. The buckets are spent by
//! `inject`.

use super::Network;
use crate::config::SimConfig;
use crate::fabric::Fabric;
use crate::hooks::Hooks;
use crate::policy::Policy;
use ofar_topology::RouterId;

/// Fixed-point scale of the congestion-management token buckets:
/// 256 bucket units per phit, so fractional rate floors stay exact in
/// integer arithmetic (`cm_min_rate` resolves to whole units per cycle).
pub(super) const CM_TOKEN_SCALE: u32 = 256;

/// Fixed-point one (`1.0`) of the per-router occupancy estimator.
pub(super) const CM_CONG_ONE: u32 = 1 << 16;

/// Shift of the sensor's exact multiply-shift division. With
/// `M = ceil(2^50 / d)` the identity `(n * M) >> 50 == n / d` holds for
/// every feasible operand pair: writing `M = (2^50 + e) / d` with
/// `0 ≤ e < d`, the rounding term is `n·e / 2^50 < 1` whenever
/// `n·d < 2^50`, and the sensor's numerator `n = used · 2^16` with
/// `used ≤ d < 2^17` keeps `n·d < 2^(17+16+17) = 2^50`. The widened
/// product `n·M < 2^33 · 2^50` needs u128 — one `mulx` on 64-bit
/// targets, far cheaper than the `div` it replaces.
const CM_INV_SHIFT: u32 = 50;

/// Congestion-management state: per-router occupancy estimators with a
/// hysteresis flag, and one token bucket per NIC. All integer, all
/// snapshot-covered (see `encode_state`); the derived rate constants are
/// recomputed from the configuration on construction and restore.
pub(super) struct CmState {
    /// Token bucket per node, in `CM_TOKEN_SCALE` units per phit.
    pub(super) tokens: Vec<u32>,
    /// Per-router smoothed occupancy (EWMA, `CM_CONG_ONE` fixed point).
    pub(super) cong: Vec<u32>,
    /// Per-router hysteresis state: `true` while throttled.
    pub(super) throttled: Vec<bool>,
    /// Bucket capacity (two packets of headroom). Config-derived.
    pub(super) cap: u32,
    /// Full-rate refill: one phit per cycle. Config-derived.
    pub(super) full_rate: u32,
    /// Throttled refill floor, ≥ 1 unit per cycle. Config-derived.
    pub(super) min_rate: u32,
    /// Throttle-on threshold in `CM_CONG_ONE` fixed point. Config-derived.
    pub(super) on_fp: u32,
    /// Throttle-off threshold (`target − hysteresis`). Config-derived.
    pub(super) off_fp: u32,
    /// Per-router Σ capacity over its network outputs (static for a
    /// fabric; ejection ports carry no credits and contribute 0).
    pub(super) cap_sum: Vec<u64>,
    /// Per-router Σ credits over its network outputs, maintained
    /// incrementally at the three credit-mutation sites so the per-cycle
    /// sensor is O(1) per router instead of a full port scan. Equals the
    /// scan whenever no fault is active; the fault path re-scans (a
    /// failed link must sense as fully occupied, which a plain credit
    /// sum cannot express).
    pub(super) free: Vec<u64>,
    /// Per-router magic reciprocal `ceil(2^CM_INV_SHIFT / cap_sum)`
    /// (0 for a router with no credited outputs): the healthy sensor
    /// divides by a per-router *constant*, so a multiply-shift with
    /// this factor replaces the hardware division — and it is exact
    /// over the whole feasible range (see [`CM_INV_SHIFT`] and the
    /// `cm_reciprocal_division_is_exact` test), so sensor values are
    /// bit-identical to the divided form.
    pub(super) inv: Vec<u64>,
}

impl CmState {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "construction-time: packet_size is validated to fit u32 and min_rate is at most CM_TOKEN_SCALE"
    )]
    pub(super) fn new(cfg: &SimConfig, nodes: usize, routers: usize) -> Self {
        let size = cfg.packet_size as u32;
        let cap = 2 * size * CM_TOKEN_SCALE;
        Self {
            // Buckets start full: an idle network must inject at line
            // rate from cycle 0 exactly as without CM.
            tokens: vec![cap; nodes],
            cong: vec![0; routers],
            throttled: vec![false; routers],
            cap,
            full_rate: CM_TOKEN_SCALE,
            min_rate: ((cm_fp(cfg.cm_min_rate) as u64 * u64::from(CM_TOKEN_SCALE)) >> 16).max(1)
                as u32,
            on_fp: cm_fp(cfg.cm_target_occupancy),
            off_fp: cm_fp(cfg.cm_target_occupancy - cfg.cm_hysteresis),
            cap_sum: vec![0; routers],
            free: vec![0; routers],
            inv: vec![0; routers],
        }
    }

    /// Recompute the incremental credit sums from the actual per-lane
    /// `credits`. Called at construction and after a snapshot restore;
    /// between calls the three credit-mutation sites keep `free` exact.
    pub(super) fn rebuild_free(&mut self, fab: &Fabric, credits: &[u32]) {
        let sum = |lanes: &[u32]| lanes.iter().map(|&c| u64::from(c)).sum::<u64>();
        for ridx in 0..self.free.len() {
            let lanes = fab.router_lanes(RouterId::from(ridx));
            let cap_sum = sum(&fab.lane_caps()[lanes.clone()]);
            self.cap_sum[ridx] = cap_sum;
            self.free[ridx] = sum(&credits[lanes]);
            debug_assert!(
                cap_sum < 1 << 17,
                "cap_sum {cap_sum} outside the reciprocal exactness bound"
            );
            self.inv[ridx] = cm_inv(cap_sum);
        }
    }
}

/// The magic reciprocal of `d` for the CM sensor's exact multiply-shift
/// division (0 when `d == 0`, where the sensed occupancy is defined as
/// 0). See [`CM_INV_SHIFT`] for the exactness argument.
fn cm_inv(d: u64) -> u64 {
    if d == 0 {
        0
    } else {
        (1u64 << CM_INV_SHIFT).div_ceil(d)
    }
}

/// Convert a validated CM fraction in `[0, 1]` to `CM_CONG_ONE` fixed
/// point. Deterministic: one rounding mode, no platform-dependent math.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a validated fraction in [0, 1] times CM_CONG_ONE fits u32"
)]
fn cm_fp(frac: f64) -> u32 {
    (frac * f64::from(CM_CONG_ONE)) as u32
}

impl<P: Policy, H: Hooks> Network<P, H> {
    /// CM per-cycle bookkeeping: update each router's smoothed occupancy
    /// estimator and hysteresis state, then refill every NIC bucket at
    /// the rate its router's state dictates. Grants are cap-clamped and
    /// counted exactly, so `granted − consumed ≡ Σ levels` is an
    /// identity (the `ThrottleTokenLaw` auditor invariant).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every sensor value is a quotient or an EWMA of quotients at most CM_CONG_ONE; each cast says why"
    )]
    pub(super) fn cm_sense_and_refill(&mut self) {
        let p = self.fab.cfg().params.p;
        let healthy = !self.faults.any();
        let (fab, credits) = (&self.fab, &self.arena.credits);
        let faults = &self.faults;
        let Some(cm) = self.cm.as_mut() else { return };
        let mut throttled_now = 0u64;
        for ridx in 0..cm.cong.len() {
            // Instantaneous occupancy of this router's network outputs
            // (ejection ports carry no credits and drop out of the sum).
            // Healthy fast path: `free` is maintained incrementally at
            // the three credit-mutation sites, so the sensor reads two
            // integers per router instead of re-scanning every port —
            // the whole CM layer costs O(routers + nodes) per cycle.
            let inst = if healthy {
                let used = cm.cap_sum[ridx].saturating_sub(cm.free[ridx]);
                // Exact multiply-shift division by the static `cap_sum`
                // (see `CM_INV_SHIFT`) — no hardware `div` per router.
                let wide = (u128::from(used) << 16) * u128::from(cm.inv[ridx]);
                // The quotient is at most CM_CONG_ONE, so it fits u32.
                let inst = (wide >> CM_INV_SHIFT) as u32;
                debug_assert_eq!(
                    u64::from(inst),
                    (used << 16).checked_div(cm.cap_sum[ridx]).unwrap_or(0),
                    "reciprocal division diverged from exact division"
                );
                inst
            } else {
                // Fault-active fallback: a failed link must sense as
                // fully occupied, which a plain credit sum cannot
                // express — re-scan the ports while any fault is live
                // (`FaultState::any` clears again on full recovery).
                let mut cap_sum = 0u64;
                let mut used = 0u64;
                for (port, link) in fab.out_links(RouterId::from(ridx)).iter().enumerate() {
                    let cap: u32 = fab.lane_caps()[link.lanes()].iter().sum();
                    if cap == 0 {
                        continue;
                    }
                    cap_sum += u64::from(cap);
                    if faults.link_up(ridx, port) {
                        let free: u32 = credits[link.lanes()].iter().sum();
                        used += u64::from(cap - free);
                    } else {
                        used += u64::from(cap);
                    }
                }
                // Cold path: `cap_sum` here differs from the static one
                // while links are down, so divide for real.
                (used * u64::from(CM_CONG_ONE))
                    .checked_div(cap_sum)
                    // used <= cap_sum, so the quotient fits u32.
                    .map_or(0, |q| q as u32)
            };
            // EWMA with α = 1/8: smooth enough to ride out allocator
            // jitter, fast enough to track a burst front within ~a
            // packet time. Pure integer — bit-exact across platforms.
            let smoothed = (u64::from(cm.cong[ridx]) * 7 + u64::from(inst)) / 8;
            // An EWMA of values <= CM_CONG_ONE fits u32.
            cm.cong[ridx] = smoothed as u32;
            if cm.throttled[ridx] {
                if cm.cong[ridx] < cm.off_fp {
                    cm.throttled[ridx] = false;
                }
            } else if cm.cong[ridx] >= cm.on_fp {
                cm.throttled[ridx] = true;
            }
            if cm.throttled[ridx] {
                throttled_now += 1;
            }
        }
        self.stats.cm_throttled_cycles += throttled_now;
        // One bucket chunk per router (`p` NICs each): reading the
        // throttle latch once per chunk keeps the refill free of the
        // per-node `node / p` division.
        let (cap, min_rate, full_rate) = (cm.cap, cm.min_rate, cm.full_rate);
        for (chunk, &throttled) in cm.tokens.chunks_mut(p).zip(cm.throttled.iter()) {
            let rate = if throttled { min_rate } else { full_rate };
            for tokens in chunk {
                let added = rate.min(cap - *tokens);
                *tokens += added;
                self.stats.cm_tokens_granted += u64::from(added);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{cm_inv, CM_INV_SHIFT};

    /// The CM sensor's multiply-shift must agree with true integer
    /// division over the entire feasible operand range: every divisor
    /// below the `rebuild_free` bound (`cap_sum < 2^17`), numerators at
    /// the ends, middle, and around every multiple-of-`d` step where
    /// `floor` changes value.
    #[test]
    fn cm_reciprocal_division_is_exact() {
        assert_eq!(cm_inv(0), 0);
        for d in (1u64..1 << 17).chain([(1 << 17) - 1]) {
            let m = u128::from(cm_inv(d));
            for used in [
                0,
                1,
                2,
                d / 3,
                d / 2,
                d.saturating_sub(2),
                d.saturating_sub(1),
                d,
            ] {
                let n = used << 16;
                let exact = n / d;
                let magic = ((u128::from(n) * m) >> CM_INV_SHIFT) as u64;
                assert_eq!(magic, exact, "d={d} used={used}");
                // Off-by-one probes around the quotient step.
                for n in [n.saturating_sub(1), n + 1] {
                    let magic = ((u128::from(n) * m) >> CM_INV_SHIFT) as u64;
                    assert_eq!(magic, n / d, "d={d} n={n}");
                }
            }
        }
    }
}
