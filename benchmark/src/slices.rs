//! Timing a measured region in slices, and reading through the host's
//! noise with them.
//!
//! On the shared reference box neighbours slow a memory-bound loop by
//! anything up to +50 %, for minutes at a time, and no repetition-level
//! summary survives that: in one A/A check all seven 4-second `big_h6`
//! repetitions of the second pass were 28 % slower than the best of the
//! first. The pressure fluctuates at the millisecond scale, though. Over
//! ten minutes the mean of a 12-second window of the `idle_un` loop
//! wandered by 40 % while its fastest 0.1-second slice moved by 5 %.
//! Interference only ever adds time, so the fastest reading of a piece
//! of work is the best estimate of what the code costs:
//!
//! * where every slice of a region does the same work in expectation (a
//!   steady-state loop), the region is costed at the pace of the fastest
//!   slice any repetition saw ([`at_fastest_pace_s`]);
//! * elsewhere the simulator is deterministic, so slice *i* of one
//!   repetition does exactly the work of slice *i* of another, and the
//!   region is costed as the sum over slices of the fastest reading of
//!   each ([`lower_envelope_s`]) — on recorded `idle_un` slices this
//!   halves the spread between sets of three repetitions (5.9 % against
//!   12.1 % for the best whole repetition).

use ofar_core::engine::{InputCtx, NetSnapshot, Packet, Request, RouterView};
use ofar_core::prelude::Policy;
use std::time::Instant;

/// Slice boundaries of one measured region: the start, then one mark
/// every `every` simulated cycles (or wherever [`Slices::cut`] is called).
pub struct Slices {
    every: u64,
    cycles: u64,
    marks: Vec<Instant>,
}

impl Slices {
    /// Start the region now; reserve room for `expected` slices so that
    /// marking never reallocates inside it.
    pub fn start(every: u64, expected: usize) -> Self {
        let mut marks = Vec::with_capacity(expected + 2);
        marks.push(Instant::now());
        Self {
            every,
            cycles: 0,
            marks,
        }
    }

    /// Count one simulated cycle; close the slice when it is full.
    #[inline]
    pub fn cycle_done(&mut self) {
        self.cycles += 1;
        if self.cycles.is_multiple_of(self.every) {
            self.cut();
        }
    }

    /// Close the current slice now.
    pub fn cut(&mut self) {
        self.marks.push(Instant::now());
    }

    /// Seconds each closed slice took.
    pub fn closed_s(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Seconds each slice took, the time since the last mark counting as
    /// one more slice: called when the region ends, the slices tile it.
    pub fn tiling_s(&self) -> Vec<f64> {
        let mut out = self.closed_s();
        let last = *self.marks.last().expect("the start mark");
        out.push(last.elapsed().as_secs_f64());
        out
    }
}

/// A routing policy that also marks a slice boundary every few cycles.
///
/// The library's burst runner owns its loop, but it is generic over the
/// policy and calls [`Policy::end_cycle`] once per cycle; wrapping the
/// real mechanism lets the benchmark slice a region it does not drive,
/// still through public API only. Every call is forwarded unchanged, so
/// the simulation (and its snapshot, which records the inner name and
/// state) is bit-identical to an unwrapped run.
pub struct Sliced<P> {
    inner: P,
    /// The marks made so far.
    pub slices: Slices,
}

impl<P> Sliced<P> {
    /// Wrap `inner`; the region starts now.
    pub fn start(inner: P, every: u64, expected: usize) -> Self {
        Self {
            inner,
            slices: Slices::start(every, expected),
        }
    }
}

impl<P: Policy> Policy for Sliced<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        self.inner.route(view, input, pkt)
    }

    #[inline]
    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        self.inner.on_inject(view, pkt)
    }

    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        self.inner.end_cycle(net);
        self.slices.cycle_done();
    }

    fn needs_ring(&self) -> bool {
        self.inner.needs_ring()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, data: &[u8]) -> Result<(), String> {
        self.inner.load_state(data)
    }
}

/// A region of `region_slices` equal-work slices at the pace of the
/// fastest slice in any of `reps` (`None` if no slice was recorded).
pub fn at_fastest_pace_s(reps: &[&[f64]], region_slices: f64) -> Option<f64> {
    reps.iter()
        .flat_map(|r| r.iter().copied())
        .min_by(f64::total_cmp)
        .map(|fastest| fastest * region_slices)
}

/// The sum over slices of the fastest reading of each slice across
/// `reps`. `None` unless every repetition recorded the same non-zero
/// number of slices (a stalled run would not).
pub fn lower_envelope_s(reps: &[&[f64]]) -> Option<f64> {
    let n = reps.first()?.len();
    if n == 0 || reps.iter().any(|r| r.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_fall_every_so_many_cycles_and_slices_tile_the_region() {
        let mut s = Slices::start(4, 3);
        for _ in 0..10 {
            s.cycle_done();
        }
        assert_eq!(s.closed_s().len(), 2, "two full slices, two cycles over");
        let tiling = s.tiling_s();
        assert_eq!(tiling.len(), 3);
        assert!(tiling.iter().all(|&d| d >= 0.0));
        s.cut();
        assert_eq!(s.closed_s().len(), 3);
    }

    #[test]
    fn fastest_pace_scales_the_fastest_slice_of_any_repetition() {
        let reps: [&[f64]; 2] = [&[0.5, 0.4, 0.6], &[0.7, 0.3]];
        assert_eq!(at_fastest_pace_s(&reps, 2.5), Some(0.75));
        assert_eq!(at_fastest_pace_s(&[&[], &[]], 2.5), None);
    }

    #[test]
    fn lower_envelope_takes_each_slice_from_its_fastest_repetition() {
        let reps: [&[f64]; 3] = [&[1.0, 5.0, 2.0], &[3.0, 1.5, 2.5], &[2.0, 4.0, 0.5]];
        assert_eq!(lower_envelope_s(&reps), Some(1.0 + 1.5 + 0.5));
        // Never above the best whole repetition.
        assert!(lower_envelope_s(&reps).unwrap() <= 7.0);
        assert_eq!(lower_envelope_s(&[&[1.0, 2.0], &[1.0]]), None);
        assert_eq!(lower_envelope_s(&[&[], &[]]), None);
        assert_eq!(lower_envelope_s(&[]), None);
    }
}
