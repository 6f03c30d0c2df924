#!/bin/bash
# Regenerate every checked-in figure table (results/<name>.txt) from the
# repository root, wherever the checkout lives.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p ofar-bench
for f in $(./target/release/ofar-bench list | awk '$2 == "figure" { print $1 }'); do
  ./target/release/ofar-bench $f > results/$f.txt 2>&1
  echo "done $f $(date +%H:%M:%S)" >> results/progress.log
done
