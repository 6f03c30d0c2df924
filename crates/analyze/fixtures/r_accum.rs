// R003 fixture: a shared accumulator mutated from a parallel phase
// without going through a reduction-safe sink. The same counter bumped
// from the commit phase must stay silent.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
        // ofar-lint: phase(settle, commit)
        self.cycle += 1;
    }

    fn route_one(&mut self, ridx: usize) {
        self.free[ridx] -= 1;
        self.total_grants += 1; // lint:expect(R003)
    }
}
