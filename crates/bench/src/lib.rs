//! # ofar-bench
//!
//! The benchmark harness: one binary per figure of the paper
//! (`fig2b` … `fig9`), the §III theory printer (`theory`), the §VII
//! multi-ring reliability study (`rings`) and the tuning ablations
//! (`ablation_thresholds`, `ablation_pb`).
//!
//! Scale control (all binaries):
//!
//! * default — `h = 4` network, full curve shapes in minutes;
//! * `OFAR_FULL=1` — the paper's `h = 6`, 5,256-node network;
//! * `OFAR_QUICK=1` — `h = 2` smoke scale;
//! * `OFAR_H=<n>` — override `h` explicitly;
//! * `OFAR_CSV=<dir>` — additionally write each table as CSV.
//!
//! A switch is on iff it is exactly `1`, and a value that does not parse
//! stops the binary with exit status 2 (see [`ofar_core::env`]).
//!
//! Host-time measurement lives in `benchmark/` (`ofar-perf`), not here.

use ofar_core::engine::{Hooks, Phase};
use ofar_core::env::{self, EnvError};
use ofar_core::{Scale, Table};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// [`Hooks`] that attribute host time to the nine phases of
/// `Network::step` (the per-phase rows of the perf ledger): each
/// [`Hooks::phase`] call closes the previous phase's span and opens the
/// next. The driver calls [`Self::stop`] after every `step`, so the time
/// it spends generating traffic is not charged to `policy_end`.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    open: Option<(Phase, Instant)>,
    spent: [Duration; Phase::ALL.len()],
}

impl PhaseTimer {
    /// Close the open span, if any.
    pub fn stop(&mut self) {
        if let Some((phase, since)) = self.open.take() {
            self.spent[phase as usize] += since.elapsed();
        }
    }

    /// Host time attributed to `phase` so far.
    pub fn spent(&self, phase: Phase) -> Duration {
        self.spent[phase as usize]
    }
}

impl Hooks for PhaseTimer {
    #[inline]
    fn phase(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some((prev, since)) = self.open.replace((phase, now)) {
            self.spent[prev as usize] += now - since;
        }
    }
}

/// Unwrap an environment read, or report the offending variable and
/// exit with status 2.
pub fn env_or_exit<T>(read: Result<T, EnvError>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The scale the environment asks for (see the crate docs).
pub fn scale() -> Scale {
    env_or_exit(Scale::from_env())
}

/// [`scale`], with the scale banner of a figure binary printed.
pub fn announce(figure: &str) -> Scale {
    let scale = scale();
    eprintln!(
        "[{figure}] h={} ({} nodes), warmup={} measure={} cycles, seed={}",
        scale.h,
        scale.cfg().params.nodes(),
        scale.steady.warmup,
        scale.steady.measure,
        scale.seed,
    );
    scale
}

/// Print a table; if `OFAR_CSV` is set, also write `<dir>/<slug>.csv`.
pub fn emit(table: &Table) {
    println!("{table}");
    if let Some(dir) = env_or_exit(env::parsed::<PathBuf>("OFAR_CSV")) {
        let slug: String = table
            .title
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{slug}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|mut f| f.write_all(table.to_csv().as_bytes()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_prints_without_csv() {
        let t = Table::new("smoke", &["a"]);
        emit(&t); // must not panic without OFAR_CSV
    }
}
