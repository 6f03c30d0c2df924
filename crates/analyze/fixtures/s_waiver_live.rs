// S002 fixture (live): the contract waives the R001 below, and the
// violation still exists as a suppressed finding — the waiver is
// earning its keep, so S002 must stay silent. The fixture has no
// expectations on purpose: it pins the *absence* of a stale-waiver
// finding when the waiver still matches.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
    }

    fn route_one(&mut self, ridx: usize) {
        let dst_r = self.next_of(ridx);
        // lint:allow(R001, neighbor handoff serialized by the ring guard)
        self.free[dst_r] += 1;
    }

    fn next_of(&self, ridx: usize) -> usize {
        ridx + 1
    }
}
