//! `ofar-bench <experiment> [args]` — see the `ofar_bench` crate docs.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ofar_bench::run(&args)
}
