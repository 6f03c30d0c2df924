//! Regenerates Fig7 of the paper (see ofar_core::experiments::fig7).

fn main() {
    let scale = ofar_bench::announce("fig7");
    ofar_bench::emit(&ofar_core::experiments::fig7(&scale));
}
