#!/usr/bin/env bash
# The "one home" rules: each names a pattern that may appear only where
# the rule says, and how many times. Run from the repository root:
#
#   scripts/one_home.sh
#
# prints one line per rule and exits 1 if any rule is broken, listing
# the offending lines.
#
# A rule is one call of `rule` below:
#
#   rule NAME WHY SCOPE FILES EXCLUDED PATTERN EXPECT
#
# - SCOPE `code`: every .rs file under FILES, read up to its first
#   `#[cfg(test)]`; PATTERN is an awk program whose last pattern selects
#   a hit (earlier pattern-action pairs may keep state).
# - SCOPE `all`: every file under FILES, tests included; PATTERN is an
#   extended regular expression for `grep -rnE`.
# - EXCLUDED: space-separated shell globs of files the rule skips.
# - EXPECT: the number of hits allowed, optionally followed by the one
#   file they must all be in (`1 crates/bench/src/exp/serving.rs`).
set -u

failed=0

rule() {
  local name=$1 why=$2 scope=$3 files=$4 excluded=$5 pattern=$6 expect=$7
  local count=${expect%% *} home= hits f skip g
  [ "$expect" != "$count" ] && home=${expect#* }
  if [ "$scope" = code ]; then
    # shellcheck disable=SC2086  # FILES is a list of directories
    hits=$(for f in $(find $files -name '*.rs' | sort); do
      skip=
      for g in $excluded; do
        # shellcheck disable=SC2254  # EXCLUDED holds globs
        case "$f" in $g) skip=1 ;; esac
      done
      [ -n "$skip" ] && continue
      awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} '"$pattern"' {print f":"FNR": "$0}' "$f"
    done)
  else
    # shellcheck disable=SC2086
    hits=$(grep -rnE "$pattern" $files || true)
  fi
  local n stray=
  n=$(printf '%s' "$hits" | grep -c . || true)
  if [ -n "$home" ]; then
    stray=$(printf '%s\n' "$hits" | grep -v "^$home:" || true)
  fi
  if [ "$n" -ne "$count" ] || [ -n "$stray" ]; then
    echo "FAIL  $name: $n hits, expected $expect — $why"
    [ -n "$hits" ] && printf '%s\n' "$hits"
    failed=1
  else
    echo "ok    $name ($n hits)"
  fi
}

# One way to book an access: only region::access (an access) and
# region::migrate (a copy) reserve ledger bandwidth; placement, ftol and
# healing price with hwsim's one formula and book through them.
rule "Ledger bookings have one home" \
  "ledger.reserve( outside region::access and region::migrate" \
  code "crates/*/src" "crates/region/src/access.rs crates/region/src/migrate.rs" \
  '/ledger\.reserve\(/' 0

# One price per copy: only region::migrate's reserve_copy (the longer of
# the uncontended transfer_cost and the booking) and hwsim's topology,
# which defines it, call transfer_cost; migration, handover copies and
# replica recovery take the price it returns.
rule "Copies have one price" \
  "transfer_cost( outside region::migrate and hwsim::topology" \
  code "crates/*/src" "crates/region/src/migrate.rs crates/hwsim/src/topology.rs" \
  '/transfer_cost\(/' 0

# One liveness rule: only hwsim::fault asks whether a node is down or a
# device has failed; placement, dispatch, healing and ftol call
# FaultInjector::usable.
rule "Liveness has one home" \
  "node_down( or device_failed( outside hwsim::fault" \
  code "crates/*/src" "crates/hwsim/src/fault.rs" \
  '/node_down\(|device_failed\(/' 0

# One placement home: no crate but sched ranks devices itself or keeps
# its own property rule. The heal and tiering ask
# PlacementEngine::choose_where (4 hits before: the heal's .rank( and
# tiering's target_safe).
rule "Placement has one home" \
  ".rank( or target_safe outside sched" \
  code "crates/*/src" "crates/sched/src/*" \
  '/\.rank\(|target_safe/' 0

# One set of books: inside a run, every allocation and free goes through
# RegionManager::{alloc,release,release_all}_traced, which push the
# Alloc / Free event. No line of core, sched or dataflow calls the
# untraced .alloc( / .release( / .release_all(, or builds a
# TraceEvent::Alloc { / Free { (a match arm, with `=>`, only reads one).
# `acc.alloc(` and `ctx.alloc(` are a task's handles on the traced path.
# 12 hits before the traced path existed.
rule "Allocations have one home" \
  "an allocation or free outside RegionManager's traced path" \
  code "crates/core/src crates/sched/src crates/dataflow/src" "" \
  '(/\.(alloc|release|release_all|release_all_with)\(/ && !/(acc|ctx)\.alloc\(/) || (/TraceEvent::(Alloc|Free) \{/ && !/=>/)' 0

# One seed in: every random stream an experiment draws forks from its
# Scenario's seed. A line of crates/bench/src that seeds a SimRng or sets
# a seed (`seed: …`, `seed = …`) takes the value from
# `scenario.stream(tag)`; `seed: u64` declares one.
rule "Experiment seeds have one home" \
  "a seed in crates/bench/src that does not come from Scenario::stream" \
  code "crates/bench/src" "" \
  '/SimRng::new\(|seed: |seed = / && !/seed: u64/ && !/scenario\.stream\(/' 0

# One home for the five apps: a line of crates/bench/src that spells out
# a workload config (`DbmsConfig {`, … `HospitalConfig {`) is in
# crates/bench/src/apps.rs, where every experiment takes its jobs and
# reference checks from. 16 hits before the home existed.
rule "Application sizes have one home" \
  "an application config in crates/bench/src outside crates/bench/src/apps.rs" \
  code "crates/bench/src" "crates/bench/src/apps.rs" \
  '/(Dbms|Ml|Stream|Hpc|Hospital)Config \{/' 0

# One serving experiment: crates/bench/src spells out a ServeConfig
# literal exactly once, in exp/serving.rs's `config`, which every serving
# point takes its config from (a `-> ServeConfig {` signature is not
# one). 4 hits in two files before the experiment had one home.
rule "Serving runs have one home" \
  "crates/bench/src must build exactly one ServeConfig, in exp/serving.rs" \
  code "crates/bench/src" "" \
  '/ServeConfig \{/ && !/-> *ServeConfig \{/' "1 crates/bench/src/exp/serving.rs"

# One constructor for experiment runtimes: no file of crates/bench/src
# but scenario.rs calls Runtime::new — every experiment builds its
# runtimes through Scenario::runtime and hands each run to
# Scenario::observed, so `--trace-out` writes the runs the claims read.
# 11 hits before the constructor existed.
rule "Experiment runtimes have one constructor" \
  "an experiment runtime built outside Scenario::runtime" \
  code "crates/bench/src" "crates/bench/src/scenario.rs" \
  '/Runtime::new\(/' 0

# One machine table: every latency, bandwidth, granularity, capacity,
# price, compute rate and mechanism cost is an entry of
# hwsim::calibration. Outside it, no line of crates/*/src assigns a
# numeric literal to a model field, no `impl LinkKind` /
# `impl ParityEngine` arm returns a number, and no const is named *_NS,
# *_NS_PER_BYTE, *_BW, *OVERHEAD* or PIPELINE_DEPTH. 99 hits before the
# table existed.
rule "Machine constants have one home" \
  "a machine constant outside hwsim::calibration" \
  code "crates/*/src" "crates/hwsim/src/calibration.rs" \
  '
  /^impl (LinkKind|ParityEngine)/{inimpl=1}
  inimpl && /^}/{inimpl=0}
  /(read_lat_ns|write_lat_ns|read_bw_bpns|write_bw_bpns|granularity|capacity|cost_per_gib|slots|ns_per_elem|launch_overhead_ns): *\[? *-?[0-9]/ ||
  (inimpl && /=> *-?[0-9]/) ||
  /const [A-Z0-9_]*(_NS|_NS_PER_BYTE|_BW|PIPELINE_DEPTH) *:/ ||
  /const [A-Z0-9_]*OVERHEAD[A-Z0-9_]* *:/' 0

# Fault control is one switch: Runtime::enable_fault_control turns on
# the per-node breakers, and failure isolation is the executor's rule
# for every request-tagged job, so no code branches on whether the
# breakers are on (1 hit before: the isolation check in
# core::executor::task).
rule "Fault control is one switch" \
  "a second fault-control switch" \
  code "crates/*/src" "" \
  '/breakers\.is_some\(\)/' 0

# ... and the per-tenant retry budgets are gone: no RetryBudget
# identifier is left in the code, its tests or examples.
rule "Fault control is one switch (no retry budget)" \
  "a retry budget" \
  all "crates src tests examples" "" \
  'RetryBudget' 0

# An attempt is recorded once: TraceEvent::TaskAttempt carries its queue
# wait, start, end and outcome, so no other event repeats any of them
# (47 hits of the four names before, in hwsim::trace,
# core::executor::task, obs and the tests).
rule "An attempt is recorded once" \
  "a second per-attempt event beside TaskAttempt" \
  all "crates src tests examples" "" \
  'TaskStart|TaskQueued|TaskDispatch|TaskFinish' 0

# A task report is a fixed record: its placements are a slice of the
# run's one placement list and its access statistics an entry of the
# run's access list, read through RunReport::placements_of and
# RunReport::access_of (12 hits of TaskPlacements before, in
# core::report and core::executor::task).
rule "Placements live out of line" \
  "an inline placement array beside the run's placement list" \
  all "crates src tests examples" "" \
  'TaskPlacements' 0

# One admission barrier: a submission's jobs are admitted at once, and
# serving's quota, charged with serve::admission::predicted_footprint,
# is the one barrier above the executor. Every tenant has the run's one
# quota and SLO. The runtime's watermark waves and the per-tenant
# overrides are gone (no workload set them).
rule "Admission has one home" \
  "a second admission barrier or a per-tenant override" \
  all "crates src tests examples" "" \
  'admission_watermark|with_admission|run_waves|tenant_quotas|tenant_slos|set_quota|Runtime::predicted_footprint' 0

exit "$failed"
