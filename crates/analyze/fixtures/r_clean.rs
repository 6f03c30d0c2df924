// R-family clean fixture: a correctly phased cycle loop. Parallel
// phases touch only their own shard plus reduction-safe sinks; the
// cross-router settlement runs in the commit phase. Pins precision:
// no R rule may fire anywhere in this file.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
        // ofar-lint: phase(settle, commit)
        self.settle();
    }

    fn route_one(&mut self, ridx: usize) {
        self.free[ridx] -= 1;
        self.stats.grants += 1;
    }

    fn settle(&mut self) {
        for e in 0..self.pending.len() {
            let dst_r = self.pending[e];
            self.free[dst_r] += 1;
        }
        self.cycle += 1;
    }
}
