#!/usr/bin/env bash
# Record guard: runs the full suite once and fails unless (1) every
# claim the experiments state holds on the full-size numbers, (2) the
# regenerated record is byte-identical to the committed
# BENCH_disagg.json, and (3) the scorecard + tables between the two
# markers in EXPERIMENTS.md are byte-identical to `--markdown`'s output.
# Writing the record also re-runs the full suite at seeds 1..=10, so (2)
# and (3) cover each claim's `holds_in` / `min_margin` / `min_seed` too;
# only a claim that fails at the record's seed 0 fails (1).
#
# The record holds only virtual-time numbers (all 15 tables plus the
# chaos and serving sections), so it is a pure function of
# the source: there is no tolerance, no sample count and no host class
# to tune. A change to the cost model, the scheduler or an experiment
# shows up as a diff; if the change is intended, regenerate the record
# (`exp_driver --json BENCH_disagg.json`) and the EXPERIMENTS.md span
# (paste `exp_driver --markdown` between the markers) and commit both
# with the change. Host wall-clock is measured by benchmark/ alone.
#
# `timeout 120` is the ceiling on the whole run — the suite, its serial
# re-check and the ten-seed grid, twelve full suites in all, measured at
# 34–43 s wall on a 2-core box (one suite ≈ 2 s on two threads, its
# serial re-check ≈ 6 s): an eager allocation or a copy of unwritten pool
# bytes fails loudly, not slowly.
# `--verify` exits 1 — before anything is written — if a claim does not
# hold (each is named on stderr), then re-runs serially and exits 1
# unless the parallel tables are byte-identical to the serial ones.
set -euo pipefail
cd "$(dirname "$0")/.."

# Under the (ignored) build directory, and left there for inspection.
fresh=target/BENCH_disagg.fresh.json
fresh_md=target/EXPERIMENTS.fresh.md

cargo build --release --offline -p disagg-bench --bin exp_driver >&2
timeout 120 ./target/release/exp_driver --verify --markdown --json "$fresh" > "$fresh_md"

if ! cmp -s "$fresh" BENCH_disagg.json; then
  echo "bench_guard: the regenerated record differs from BENCH_disagg.json:" >&2
  diff -u BENCH_disagg.json "$fresh" >&2 || true
  exit 1
fi

# The generated span of EXPERIMENTS.md, without its two marker lines.
span() {
  sed -n '/^<!-- generated by `exp_driver --markdown`: begin -->$/,/^<!-- generated by `exp_driver --markdown`: end -->$/p' \
    EXPERIMENTS.md | sed '1d;$d'
}
if ! span | cmp -s - "$fresh_md"; then
  echo "bench_guard: EXPERIMENTS.md's generated span differs from exp_driver --markdown:" >&2
  span | diff -u - "$fresh_md" >&2 || true
  exit 1
fi
echo "bench_guard: every claim holds; BENCH_disagg.json and EXPERIMENTS.md's tables reproduced byte for byte"
