#!/bin/bash
# Regenerate every checked-in figure table (results/<name>.txt) from the
# repository root, wherever the checkout lives.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p ofar-bench --bins
for f in fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig9 theory rings ablation_thresholds ablation_pb ablation_patience; do
  ./target/release/$f > results/$f.txt 2>&1
  echo "done $f $(date +%H:%M:%S)" >> results/progress.log
done
