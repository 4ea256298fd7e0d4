#!/usr/bin/env bash
# Record guard: regenerates the full benchmark record and fails unless
# it is byte-identical to the committed BENCH_disagg.json.
#
# The record holds only virtual-time numbers (all 18 tables plus the
# chaos / serving / serving.chaos sections), so it is a pure function of
# the source: there is no tolerance, no sample count and no host class
# to tune. A change to the cost model, the scheduler or an experiment
# shows up as a diff; if the change is intended, regenerate the record
# (`exp_driver --json BENCH_disagg.json`) and commit it with the change.
# Host wall-clock is measured by benchmark/ alone.
#
# `timeout 30` is the ceiling on the whole suite (~3 s here): an eager
# allocation or a copy of unwritten pool bytes fails loudly, not slowly.
# `--verify` re-runs serially and exits 1 unless the parallel tables are
# byte-identical to the serial ones.
set -euo pipefail
cd "$(dirname "$0")/.."

# Under the (ignored) build directory, and left there for inspection.
fresh=target/BENCH_disagg.fresh.json

cargo build --release --offline -p disagg-bench --bin exp_driver >&2
timeout 30 ./target/release/exp_driver --verify --json "$fresh" > /dev/null

if ! cmp -s "$fresh" BENCH_disagg.json; then
  echo "bench_guard: the regenerated record differs from BENCH_disagg.json:" >&2
  diff -u BENCH_disagg.json "$fresh" >&2 || true
  exit 1
fi
echo "bench_guard: BENCH_disagg.json reproduced byte for byte"
