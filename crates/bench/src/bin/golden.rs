//! Golden signatures: the cross-build behaviour pin (ROADMAP 4a).
//!
//! ```text
//! golden [--emit FILE] [--verify FILE]
//! ```
//!
//! Runs the fixed table of [`ofar_core::golden`] and prints it.
//! `--emit` writes it (atomically) — only a PR that means to change
//! simulated behaviour does that, and says why; `--verify` byte-compares
//! a checked-in table against this build and exits 1 on drift. Exit 2 on
//! usage or I/O errors.

use ofar_core::golden;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut emit: Option<PathBuf> = None;
    let mut verify: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--emit" => &mut emit,
            "--verify" => &mut verify,
            other => {
                eprintln!("unknown flag: {other}\nusage: golden [--emit FILE] [--verify FILE]");
                return ExitCode::from(2);
            }
        };
        let Some(v) = it.next() else {
            eprintln!("{a} needs a value");
            return ExitCode::from(2);
        };
        *slot = Some(PathBuf::from(v));
    }
    if let Some(path) = verify {
        return match golden::verify(&path) {
            Ok(()) => {
                println!("golden: {} verifies", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("golden: {e}");
                ExitCode::from(1)
            }
        };
    }
    let text = golden::render(&golden::signatures());
    print!("{text}");
    if let Some(path) = emit {
        if let Err(e) = ofar_core::write_atomic_text(&path, &text) {
            eprintln!("golden: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
