#!/usr/bin/env bash
# Paired host-time runs of the benchmark (BENCHMARK.json): a parent
# revision against the working tree, the protocol a "faster" claim needs.
#
# Usage: scripts/host_pairs.sh <parent-rev> <workload> [pairs] [seconds] [seed]
#        (defaults: 10 pairs, 20 s a run, seed 1)
#
# Builds the benchmark once for a `git worktree` of <parent-rev> and once
# for a copy of the working tree (tracked and untracked files, nothing
# ignored), offline, both in the same directory one after the other, and
# runs the two binaries from paths of equal length. The source path of a
# path dependency feeds the symbol hashes and so the code layout: the
# same code built from two directories of equal length read up to 6 %
# apart on `serve_bulk`, from a longer path 15 % slower on `batch_dag`,
# and the same binary under a shorter path ran `serve_ctrl` 7-19 %
# slower. Built this way, HEAD against an unchanged tree gives two
# identical binaries. It then runs <pairs>
# pairs of `run --workload W --seed S --seconds N --trace 0` from one
# working directory, alternating which side goes first, and prints every
# pair's host_s_per_pass, each side's q1/median/q3 of host_s_per_pass,
# setup_s and peak_rss_mib, and how many pairs the working tree won on
# host_s_per_pass (ties count for neither).
#
# Exits 1 if a run fails its checks, or if any sim_* metric or the
# failed count differs between any two runs: both sides must simulate
# the same thing, bit for bit, or their host times do not compare.
# Against HEAD with an unchanged tree it checks exactly that, cheaply:
#   scripts/host_pairs.sh HEAD serve_ctrl 1 1
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
  echo "usage: scripts/host_pairs.sh <parent-rev> <workload> [pairs] [seconds] [seed]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20} seed=${5:-1}
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "host_pairs: $rev is not a commit" >&2
  exit 2
}

tmp=$(mktemp -d)
src=$tmp/src
cleanup() {
  git worktree remove --force "$src" 2> /dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# Builds the benchmark of the checkout in $src and keeps only the binary,
# as $tmp/$1/bin.
build() {
  CARGO_TARGET_DIR=$tmp/target \
    cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml"
  mkdir "$tmp/$1"
  mv "$tmp/target/release/disagg-benchmark" "$tmp/$1/bin"
  rm -rf "$tmp/target"
}
echo "==> building the benchmark at $rev and in the working tree" >&2
git worktree add --quiet --detach "$src" "$rev"
build parent
git worktree remove --force "$src"
mkdir "$src"
git ls-files -z --cached --others --exclude-standard |
  tar -c --null -T - --ignore-failed-read 2> /dev/null | tar -x -C "$src"
build change
rm -rf "$src"
if cmp -s "$tmp/parent/bin" "$tmp/change/bin"; then
  echo "==> the two binaries are identical" >&2
fi

# One run; the last line of its stdout is the JSON result, printed even
# when a check failed (the exit status is then non-zero, and the result
# says so).
run() {
  "$tmp/$1/bin" run --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$tmp/$1-$2.out" || true
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
done

python3 - "$tmp" "$pairs" "$workload" "$seed" << 'PY'
import json, statistics, sys

tmp, pairs, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
runs = {side: [json.loads(open(f"{tmp}/{side}-{i}.out").read().splitlines()[-1])
                for i in range(pairs)]
        for side in ("parent", "change")}

def sim(r):
    return {k: v["value"] for k, v in r["metrics"].items() if k.startswith("sim_")} | {"failed": r["failed"]}

def values(side, metric):
    return [r["metrics"][metric]["value"] for r in runs[side]]

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3

host = {side: values(side, "host_s_per_pass") for side in runs}
won = 0
for i, (p, c) in enumerate(zip(host["parent"], host["change"])):
    won += c < p
    print(f"pair {i + 1}: host_s_per_pass parent {p:.4g} s, change {c:.4g} s ({c / p - 1:+.1%})")

# The pass time decides the pairs; set-up and memory are reported beside it.
for metric, unit in (("host_s_per_pass", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")):
    for side in runs:
        q1, med, q3 = quartiles(values(side, metric))
        print(f"{side}: {metric} q1/median/q3 {q1:.4g}/{med:.4g}/{q3:.4g} {unit}")
(pq1, pmed, pq3), cmed = quartiles(host["parent"]), statistics.median(host["change"])
print(f"{workload} seed {seed}: change won {won} of {pairs} pairs; median {cmed / pmed - 1:+.1%}, "
      f"parent quartile spread {(pq3 - pq1) / pmed:.1%}")

ref = sim(runs["parent"][0])
bad = [f"{side} run {i + 1}: {k} = {v}, parent run 1 has {ref.get(k)}"
       for side, rs in runs.items() for i, r in enumerate(rs)
       for k, v in sim(r).items() if v != ref.get(k)]
bad += [f"{side} run {i + 1}: checks failed" for side, rs in runs.items()
        for i, r in enumerate(rs) if not r["correct"]]
if bad:
    print("host_pairs: a check failed, or the two sides do not simulate the same thing:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("sim_* metrics and failed counts identical on both sides")
PY
