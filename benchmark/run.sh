#!/usr/bin/env bash
# Build, run the untraced pass (three repetitions per workload), run the
# traced pass, and rewrite benchmark/latest.json atomically.
#
# `ofar-perf latest` refuses to write when any failed_share is non-zero;
# two repetitions that disagree on a simulated statistic count as a
# failed check, so that case is refused too.
#
# usage: benchmark/run.sh [--seed N] [--quick]   (extra flags go to both passes)
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
run=(cargo run --release --offline --quiet -- run "$@")

"${run[@]}" --reps 3 --out out/untraced.json
"${run[@]}" --trace --out out/traced.json
cargo run --release --offline --quiet -- latest out/untraced.json out/traced.json latest.json
