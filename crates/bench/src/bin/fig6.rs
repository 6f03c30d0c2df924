//! Regenerates Fig6 of the paper (see ofar_core::experiments::fig6).

fn main() {
    let scale = ofar_bench::announce("fig6");
    ofar_bench::emit(&ofar_core::experiments::fig6(&scale));
}
