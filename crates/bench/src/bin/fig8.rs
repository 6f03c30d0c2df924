//! Regenerates Fig8 of the paper (see ofar_core::experiments::fig8).

fn main() {
    let scale = ofar_bench::announce("fig8");
    ofar_bench::emit(&ofar_core::experiments::fig8(&scale));
}
