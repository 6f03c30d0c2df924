// S002 fixture (stale): the contract still waives an R001 on the
// write below, but the violation was fixed — the write is now
// home-indexed, so no finding exists for the waiver to claim and the
// stale-waiver rule must say so.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
    }

    fn route_one(&mut self, ridx: usize) {
        self.free[ridx] += 1; // lint:expect(S002)
    }
}
