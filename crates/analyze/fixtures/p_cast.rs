// P002 fixture: truncating cast in a function reachable from
// Network::step through a method call.

impl Network {
    pub fn step(&mut self) {
        let route = self.compress(self.cycle);
        let _ = route;
    }

    fn compress(&self, cycle: u64) -> u32 {
        cycle as u32 // lint:expect(P002)
    }
}
