// R005 fixture: an iteration-order-sensitive fold over a sharded
// collection inside a commit phase — exactly the reduction that stops
// being reproducible once sharding changes enumeration order.

impl Network {
    pub fn step(&mut self) {
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.free[ridx] -= 1;
        }
        // ofar-lint: phase(settle, commit)
        self.settle();
    }

    fn settle(&mut self) {
        let sum = self.free.iter().fold(0u64, |acc, f| acc + f); // lint:expect(R005)
        self.watermark = sum;
    }
}
