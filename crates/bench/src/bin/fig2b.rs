//! Regenerates Fig. 2b: Valiant saturation throughput vs ADV offset.

fn main() {
    let scale = ofar_bench::announce("fig2b");
    ofar_bench::emit(&ofar_core::experiments::fig2b(&scale));
}
