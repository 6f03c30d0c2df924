// R006 fixture: a commit phase drains the effect ledger and folds the
// drain order into state through a position-weighting accumulator — a
// polynomial hash of the push order, which the shard schedule
// permutes. The commutative reduction above it and the sort-then-drain
// idiom below it must stay silent: they pin the precision of the rule,
// not just its recall.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.free[ridx] -= 1;
        }
        // ofar-lint: phase(effect_commit, commit)
        self.commit_effects();
    }

    fn commit_effects(&mut self) {
        let mut sum = 0u64;
        let mut sig = 0u64;
        for e in self.effects.drain(..) {
            sum = sum.wrapping_add(e.phits);
            sig = sig.wrapping_mul(31).wrapping_add(e.phits); // lint:expect(R006)
            self.apply(e);
        }
        self.watermark = sum;
        self.order_probe = sig;
        self.delivered_now.sort_unstable();
        for d in self.delivered_now.drain(..) {
            self.watermark = self.watermark.wrapping_add(d);
        }
    }

    fn apply(&mut self, e: Effect) {}
}
