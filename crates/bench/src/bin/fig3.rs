//! Regenerates Fig3 of the paper (see ofar_core::experiments::fig3).

fn main() {
    let scale = ofar_bench::announce("fig3");
    ofar_bench::emit(&ofar_core::experiments::fig3(&scale));
}
