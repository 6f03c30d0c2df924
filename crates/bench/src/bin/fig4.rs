//! Regenerates Fig4 of the paper (see ofar_core::experiments::fig4).

fn main() {
    let scale = ofar_bench::announce("fig4");
    ofar_bench::emit(&ofar_core::experiments::fig4(&scale));
}
