// R001 fixture: a parallel phase writes another router's shard. The
// home-indexed write on the line above it must stay silent — this pins
// the index classification, not just the write detection.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
    }

    fn route_one(&mut self, ridx: usize) {
        let dst_r = self.next_of(ridx);
        self.free[ridx] -= 1;
        self.free[dst_r] += 1; // lint:expect(R001)
    }

    fn next_of(&self, ridx: usize) -> usize {
        ridx + 1
    }
}
