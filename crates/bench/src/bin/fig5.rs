//! Regenerates Fig5 of the paper (see ofar_core::experiments::fig5).

fn main() {
    let scale = ofar_bench::announce("fig5");
    ofar_bench::emit(&ofar_core::experiments::fig5(&scale));
}
