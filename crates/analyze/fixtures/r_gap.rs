// R004 fixture: phase-coverage defects — a statement that precedes the
// first phase marker (belongs to no declared phase), and a phase
// marker outside the body of the phase root.

impl Network {
    pub fn step(&mut self) {
        self.cycle += 1; // lint:expect(R004)
        // ofar-lint: phase(route, parallel)
        for ridx in 0..self.free.len() {
            self.free[ridx] -= 1;
        }
    }

    // lint:expect(R004)
    // ofar-lint: phase(stray, commit)
    fn other(&mut self) {
        self.cycle += 1;
    }
}
