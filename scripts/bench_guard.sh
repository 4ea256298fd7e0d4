#!/usr/bin/env bash
# Throughput regression guard: re-measures the stress suite and fails if
# any guarded configuration's events/sec drops more than 10% below the
# committed BENCH_disagg.json record.
#
# Guards the reference stress configuration and, when the committed
# record carries one, the serving-mix measurement (the open-loop
# multi-tenant stream from crates/serve driven at saturation).
#
# Also gates observer cost: the trace_overhead microbenchmark measures
# the same stress batch with no observer, with a streaming FullObserver
# attached, and with buffered tracing only. The guard fails if the
# full-observer run's events/sec drops below its own committed figure
# (OBS_FULL_COMMITTED x TOLERANCE), or if buffered tracing costs more
# than OBS_OVERHEAD_MAX percent of the null-observer run.
#
# Also gates goodput under chaos: when the committed record carries a
# serving.chaos section, a fresh quick chaos-under-load sweep must keep
# the fault-aware control plane strictly ahead of the uncontrolled
# baseline on SLO goodput, and its overall controls goodput fraction
# must stay within CHAOS_TOLERANCE of the committed fraction. The sweep
# is virtual-time-only, so this gate is deterministic (no wall-clock
# noise).
#
# Usage:
#   scripts/bench_guard.sh                 # guard j16_l24_w24 (+ serving_mix)
#   scripts/bench_guard.sh j8_l16_w16      # guard another config
#   TOLERANCE=0.80 scripts/bench_guard.sh  # loosen the floor
#   RUNS=5 scripts/bench_guard.sh          # more samples (best-of)
#   OBS_OVERHEAD_MAX=15 scripts/bench_guard.sh  # loosen the buffered-trace gate
#   OBS_FULL_COMMITTED=700000 scripts/bench_guard.sh  # another host class
#   CHAOS_TOLERANCE=0.80 scripts/bench_guard.sh # loosen the chaos floor
#
# Wall-clock numbers only compare within one host class: run this on the
# same machine class that produced the committed record (the record is
# regenerated whenever the benchmark host changes).
set -euo pipefail
cd "$(dirname "$0")/.."

PRIMARY=${1:-j16_l24_w24}
TOLERANCE=${TOLERANCE:-0.90}
RUNS=${RUNS:-3}

# The primary config must have a committed record; serving_mix is
# guarded only when the committed JSON already carries it (older
# records predate the serving layer).
CONFIGS=$(python3 - "$PRIMARY" <<'PY'
import json, sys
rec = json.load(open("BENCH_disagg.json"))
names = [t["name"] for t in rec.get("throughput", [])]
if sys.argv[1] not in names:
    sys.exit(f"bench_guard: no committed throughput entry for {sys.argv[1]}")
configs = [sys.argv[1]]
if "serving_mix" in names and sys.argv[1] != "serving_mix":
    configs.append("serving_mix")
print(" ".join(configs))
PY
)

committed_of() {
  python3 - "$1" <<'PY'
import json, sys
rec = json.load(open("BENCH_disagg.json"))
rows = [t for t in rec.get("throughput", []) if t["name"] == sys.argv[1]]
print(int(rows[0]["events_per_sec"]))
PY
}

echo "==> cargo build --release --offline -p disagg-bench --bin exp_driver" >&2
cargo build --release --offline -p disagg-bench --bin exp_driver >&2

# --thru-only measures the full stress suite plus the serving mix (best
# of 3 reps) without the experiment tables or chaos sweep; the numbers
# land on stderr. Wall-clock noise on small/shared hosts easily exceeds
# 10%, so the guard keeps the best of $RUNS whole-suite samples: a real
# regression slows every sample, noise only some.
declare -A fresh
for cfg in $CONFIGS; do fresh[$cfg]=0; done
for run in $(seq "$RUNS"); do
  fresh_log=$(./target/release/exp_driver --thru-only 2>&1 >/dev/null)
  for cfg in $CONFIGS; do
    sample=$(printf '%s\n' "$fresh_log" \
      | sed -n "s/^throughput ${cfg}: .*→ \([0-9][0-9]*\) events\/sec.*/\1/p")
    if [ -z "$sample" ]; then
      echo "bench_guard: no fresh measurement for ${cfg} in driver output" >&2
      exit 1
    fi
    echo "bench_guard: ${cfg} sample ${run}/${RUNS}: ${sample} events/sec" >&2
    if [ "$sample" -gt "${fresh[$cfg]}" ]; then fresh[$cfg]=$sample; fi
  done
done

# Observer gate: re-run only the trace_overhead group of the micro suite
# (the bench binary accepts substring filters) and parse the summary line
#   trace_overhead/events_per_sec  null N | full observer M (X% slower) | ...
# Two thresholds:
#   - the streaming FullObserver run is held to its own committed
#     events/sec (OBS_FULL_COMMITTED, the low middle of nine samples on the
#     box that produced BENCH_disagg.json), with the same TOLERANCE as
#     the stress configurations. It used to be held to a *ratio* to the
#     null-observer run, which every executor speed-up raised while the
#     observer's own work stood still: that baseline had to move
#     40 -> 60 once, and the next speed-up read 48-71 % against it.
#   - buffered tracing (RuntimeConfig::traced) must stay within
#     OBS_OVERHEAD_MAX points of the null-observer run — the design
#     claims having observability *available* is near-free, and both
#     sides of that ratio share the executor.
# Noisy on shared hosts, so keep the best of $RUNS samples: a real
# regression slows every sample.
OBS_FULL_COMMITTED=${OBS_FULL_COMMITTED:-850000}
OBS_OVERHEAD_MAX=${OBS_OVERHEAD_MAX:-10}
obs_cmd=(cargo bench --offline -p disagg-bench --bench micro -- trace_overhead)
echo "==> ${obs_cmd[*]} (x${RUNS})" >&2
full_best=0
traced_best=""
for run in $(seq "$RUNS"); do
  obs_line=$("${obs_cmd[@]}" 2>/dev/null | grep '^trace_overhead/events_per_sec' || true)
  full=$(printf '%s\n' "$obs_line" \
    | sed -n 's/.*full observer \([0-9][0-9]*\) (.*/\1/p')
  traced=$(printf '%s\n' "$obs_line" \
    | sed -n 's/.*buffered trace [0-9]* (\(-\{0,1\}[0-9.]*\)% slower).*/\1/p')
  if [ -z "$full" ] || [ -z "$traced" ]; then
    echo "bench_guard: could not parse observer figures from micro output" >&2
    exit 1
  fi
  echo "bench_guard: observer sample ${run}/${RUNS}: full ${full} events/sec, traced ${traced}% slower" >&2
  if [ "$full" -gt "$full_best" ]; then full_best=$full; fi
  traced_best=$(awk -v a="${traced_best:-$traced}" -v b="$traced" 'BEGIN { print (a < b) ? a : b }')
done

status=0
obs_ok=$(awk -v f="$full_best" -v c="$OBS_FULL_COMMITTED" -v tol="$TOLERANCE" \
  -v m="$OBS_OVERHEAD_MAX" -v t="$traced_best" \
  'BEGIN { print (f >= c * tol && t <= m) ? 1 : 0 }')
if [ "$obs_ok" != "1" ]; then
  echo "bench_guard: observer cost REGRESSED: full observer ${full_best} events/sec" \
       "(floor ${TOLERANCE} x committed ${OBS_FULL_COMMITTED})," \
       "buffered trace ${traced_best}% slower than null (max ${OBS_OVERHEAD_MAX}%)" >&2
  status=1
else
  echo "bench_guard: observer cost OK: full observer ${full_best} events/sec" \
       "(floor ${TOLERANCE} x committed ${OBS_FULL_COMMITTED})," \
       "buffered trace ${traced_best}% slower than null (max ${OBS_OVERHEAD_MAX}%)"
fi

for cfg in $CONFIGS; do
  committed=$(committed_of "$cfg")
  ok=$(awk -v f="${fresh[$cfg]}" -v c="$committed" -v t="$TOLERANCE" \
    'BEGIN { print (f >= c * t) ? 1 : 0 }')
  if [ "$ok" != "1" ]; then
    echo "bench_guard: ${cfg} REGRESSED: fresh ${fresh[$cfg]} events/sec" \
         "< ${TOLERANCE} x committed ${committed}" >&2
    status=1
  else
    echo "bench_guard: ${cfg} OK: fresh ${fresh[$cfg]} events/sec vs committed ${committed} (floor ${TOLERANCE}x)"
  fi
done

# Goodput-under-chaos gate (skipped when the committed record predates
# the chaos-under-load sweep). The fresh sweep runs in quick mode —
# different load levels than the committed full-mode record, so the
# comparison is on goodput *fractions* (SLO goodput / offered), not
# absolute counts. Both sides are virtual-time-deterministic.
CHAOS_TOLERANCE=${CHAOS_TOLERANCE:-0.90}
has_chaos=$(python3 - <<'PY'
import json
rec = json.load(open("BENCH_disagg.json"))
serving = rec.get("serving") or {}
print(1 if serving.get("chaos") else 0)
PY
)
if [ "$has_chaos" = "1" ]; then
  echo "==> exp_driver --quick --only chaos_serve (goodput-under-chaos gate)" >&2
  ./target/release/exp_driver --quick --only chaos_serve --no-thru \
    --json bench_guard_chaos.json > /dev/null
  if python3 - "$CHAOS_TOLERANCE" <<'PY'
import json, sys
tol = float(sys.argv[1])
fresh = json.load(open("bench_guard_chaos.json"))["serving"]["chaos"]["rows"]
committed = json.load(open("BENCH_disagg.json"))["serving"]["chaos"]["rows"]

def fractions(rows):
    base = [r for r in rows if not r["controls"]]
    ctrl = [r for r in rows if r["controls"]]
    assert ctrl and base, "chaos sweep missing a variant"
    f = lambda rs: sum(r["goodput"] for r in rs) / sum(r["offered"] for r in rs)
    return f(base), f(ctrl)

fb, fc = fractions(fresh)
_, cc = fractions(committed)
ok = True
if fc <= fb:
    print(f"bench_guard: chaos goodput REGRESSED: controls fraction {fc:.3f} "
          f"no longer beats baseline {fb:.3f}", file=sys.stderr)
    ok = False
if fc < tol * cc:
    print(f"bench_guard: chaos goodput REGRESSED: fresh controls fraction "
          f"{fc:.3f} < {tol} x committed {cc:.3f}", file=sys.stderr)
    ok = False
if ok:
    print(f"bench_guard: chaos goodput OK: controls {fc:.3f} vs baseline "
          f"{fb:.3f} (committed {cc:.3f}, floor {tol}x)")
sys.exit(0 if ok else 1)
PY
  then :; else status=1; fi
  rm -f bench_guard_chaos.json
else
  echo "bench_guard: committed record has no serving.chaos section; skipping chaos gate" >&2
fi
exit $status
