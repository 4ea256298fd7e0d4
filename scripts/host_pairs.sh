#!/usr/bin/env bash
# Paired host-time runs of the benchmark (BENCHMARK.json): a parent
# revision against the working tree, the protocol a "faster" claim needs.
#
# Usage: scripts/host_pairs.sh <parent-rev> <workload|all> [pairs] [seconds] [seed]
#        (defaults: 10 pairs, 20 s a run, seed 1; `all` is every workload
#        BENCHMARK.json declares, in its order)
#
# Builds the benchmark once for an export (`git archive`) of <parent-rev>
# and once for a copy of the working tree (tracked and untracked files,
# nothing ignored), offline, both in the same directory one after the
# other, and runs the two binaries from paths of equal length. The source
# path of a path dependency feeds the symbol hashes and so the code
# layout: the same code built from two directories of equal length read
# up to 6 % apart on `serve_bulk`, from a longer path 15 % slower on
# `batch_dag`, and the same binary under a shorter path ran `serve_ctrl`
# 7-19 % slower. Built this way, HEAD against an unchanged tree gives two
# identical binaries. Then, for each workload in turn, it runs <pairs>
# pairs of `run --workload W --seed S --seconds N --trace 0` from one
# working directory, alternating which side goes first, and prints every
# pair's host_s_per_pass, each side's q1/median/q3 of host_s_per_pass,
# setup_s and peak_rss_mib, how many of each side's runs were slow (a
# host_s_per_pass above 1.4 × that side's q1: the box's slow phase, in
# which one run can set a quartile by itself), and how many pairs the
# working tree won on host_s_per_pass (ties count for neither). It ends
# with one summary row per workload: pairs won, the slow runs of each
# side, and for each of the three host metrics the change of the median
# beside the parent's quartile spread (a move smaller than the spread is
# not resolved).
#
# Exits 1 if a run fails its checks, or if any sim_* metric or the
# failed count differs between any two runs of a workload: both sides
# must simulate the same thing, bit for bit, or their host times do not
# compare. Against HEAD with an unchanged tree it checks exactly that,
# cheaply, on every workload:
#   scripts/host_pairs.sh HEAD all 1 1
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
  echo "usage: scripts/host_pairs.sh <parent-rev> <workload|all> [pairs] [seconds] [seed]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20} seed=${5:-1}
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "host_pairs: $rev is not a commit" >&2
  exit 2
}
if [ "$workload" = all ]; then
  workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
  workloads=$workload
fi

tmp=$(mktemp -d)
src=$tmp/src
trap 'rm -rf "$tmp"' EXIT

# Builds the benchmark of the checkout in $src and keeps only the binary,
# as $tmp/$1/bin.
build() {
  CARGO_TARGET_DIR=$tmp/target \
    cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml"
  mkdir "$tmp/$1"
  mv "$tmp/target/release/disagg-benchmark" "$tmp/$1/bin"
  rm -rf "$tmp/target" "$src"
}
echo "==> building the benchmark at $rev and in the working tree" >&2
mkdir "$src"
git archive "$rev" | tar -x -C "$src"
build parent
mkdir "$src"
git ls-files -z --cached --others --exclude-standard |
  tar -c --null -T - --ignore-failed-read 2> /dev/null | tar -x -C "$src"
build change
if cmp -s "$tmp/parent/bin" "$tmp/change/bin"; then
  echo "==> the two binaries are identical" >&2
fi

# One run; the last line of its stdout is the JSON result, printed even
# when a check failed (the exit status is then non-zero, and the result
# says so).
run() {
  "$tmp/$1/bin" run --workload "$2" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$tmp/$1-$2-$3.out" || true
}
for w in $workloads; do
  echo "==> $w: $pairs pairs of $seconds s, seed $seed" >&2
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run parent "$w" "$i"; run change "$w" "$i"; else run change "$w" "$i"; run parent "$w" "$i"; fi
  done
done

python3 - "$tmp" "$pairs" "$seed" $workloads << 'PY'
import json, statistics, sys

tmp, pairs, seed, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
METRICS = (("host_s_per_pass", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SLOW = 1.4  # a run slower than this × its side's q1 ran in the box's slow phase

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3

bad, rows = [], []
for w in workloads:
    runs = {side: [json.loads(open(f"{tmp}/{side}-{w}-{i}.out").read().splitlines()[-1])
                    for i in range(pairs)]
            for side in ("parent", "change")}

    def values(side, metric):
        return [r["metrics"][metric]["value"] for r in runs[side]]

    def sim(r):
        return {k: v["value"] for k, v in r["metrics"].items() if k.startswith("sim_")} | {"failed": r["failed"]}

    print(f"--- {w} (seed {seed})")
    host = {side: values(side, "host_s_per_pass") for side in runs}
    won = 0
    for i, (p, c) in enumerate(zip(host["parent"], host["change"])):
        won += c < p
        print(f"pair {i + 1}: host_s_per_pass parent {p:.4g} s, change {c:.4g} s ({c / p - 1:+.1%})")
    slow = {side: sum(x > SLOW * quartiles(xs)[0] for x in xs) for side, xs in host.items()}
    print(f"slow runs (host_s_per_pass > {SLOW} x q1): parent {slow['parent']}/{pairs}, change {slow['change']}/{pairs}")
    # The pass time decides the pairs; set-up and memory are reported beside it.
    row = [f"{w:<11} won {won:>2}/{pairs}  slow runs parent {slow['parent']} change {slow['change']}"]
    for metric, unit in METRICS:
        for side in runs:
            q1, med, q3 = quartiles(values(side, metric))
            print(f"{side}: {metric} q1/median/q3 {q1:.4g}/{med:.4g}/{q3:.4g} {unit}")
        (pq1, pmed, pq3), cmed = quartiles(values("parent", metric)), statistics.median(values("change", metric))
        row.append(f"{metric} {cmed / pmed - 1:+.1%} (spread {(pq3 - pq1) / pmed:.1%})")
    rows.append("  ".join(row))

    ref = sim(runs["parent"][0])
    bad += [f"{w}: {side} run {i + 1}: {k} = {v}, parent run 1 has {ref.get(k)}"
            for side, rs in runs.items() for i, r in enumerate(rs)
            for k, v in sim(r).items() if v != ref.get(k)]
    bad += [f"{w}: {side} run {i + 1}: checks failed" for side, rs in runs.items()
            for i, r in enumerate(rs) if not r["correct"]]

print(f"=== change against parent, medians, seed {seed}, {pairs} pairs of each workload")
print(*rows, sep="\n")
if bad:
    print("host_pairs: a check failed, or the two sides do not simulate the same thing:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("sim_* metrics and failed counts identical on both sides")
PY
