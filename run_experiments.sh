#!/bin/bash
# Regenerate every table/figure of the paper at the current CODES_SCALE.
set -u
cd "$(dirname "$0")"
# Correctness gate first: the whole stack (gateway -> router -> serve ->
# core -> sqlengine -> storage) must answer every smoke request before
# any result bin is worth running.
echo "=== e2e smoke gate ($(date +%H:%M:%S)) ==="
if ! cargo run --release --offline -q --manifest-path e2e/Cargo.toml --bin e2e -- --all --smoke \
    >results/logs/e2e_smoke.txt 2>results/logs/e2e_smoke.err; then
  echo "    FAILED: the stack is broken (see results/logs/e2e_smoke.txt); not running the bins"
  exit 1
fi
echo "    ok"
BINS="table1 table2 table3 table4 table5 table6 table7 table8 table9 table10 figure1 figure4 latency stages faults cache batching optimizer storage"
failed=0
for b in $BINS; do
  echo "=== running $b ($(date +%H:%M:%S)) ==="
  if cargo run --release -q -p codes-bench --bin "$b" >"results/logs/$b.txt" 2>"results/logs/$b.err"; then
    echo "    ok"
  else
    echo "    FAILED (see results/logs/$b.err)"
    failed=$((failed + 1))
  fi
done
if [ "$failed" -gt 0 ]; then
  echo "$failed experiment(s) FAILED"
  exit 1
fi
echo "all experiments done"
