//! Regenerates Fig9 of the paper (see ofar_core::experiments::fig9).

fn main() {
    let scale = ofar_bench::announce("fig9");
    ofar_bench::emit(&ofar_core::experiments::fig9(&scale));
}
