// P001 fixture: panicking calls reachable from Network::step.

impl Network {
    pub fn step(&mut self) {
        let head = self.queue.pop().unwrap(); // lint:expect(P001)
        if head == 0 {
            panic!("empty queue"); // lint:expect(P001)
        }
    }
}
