// R002 fixture: a parallel phase reads a foreign router's copy of a
// field the same phase writes locally — the classic read-after-write
// race a per-router fan-out would expose.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.route_one(ridx);
        }
    }

    fn route_one(&mut self, ridx: usize) {
        let up_r = ridx + 1;
        let spare = self.free[up_r]; // lint:expect(R002)
        self.free[ridx] = spare;
    }
}
