// H001 fixture: heap allocation reachable from Network::step. The
// cold_reset function is NOT reachable from step, so its allocation
// must stay silent — this pins the call-graph precision.

impl Network {
    pub fn step(&mut self) {
        self.advance();
    }

    fn advance(&mut self) {
        let scratch: Vec<u32> = Vec::new(); // lint:expect(H001)
        let label = format!("cycle"); // lint:expect(H001)
        let copy = self.routes.clone(); // lint:expect(H001)
        let _ = (scratch, label, copy);
    }

    fn cold_reset(&mut self) {
        let big = vec![0u8; 4096];
        let _ = big;
    }
}
