#!/usr/bin/env bash
# Guards the benchmark itself: builds it offline, runs its unit tests and
# both smoke runs, and fails unless the workload and metric names printed
# are exactly those BENCHMARK.json declares. A later PR wires this into
# .github/workflows/ci.yml.
#
# Usage: benchmark/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
spec=BENCHMARK.json

# The standalone package does not inherit the root manifest's profiles,
# so a [profile.*] table added there must be mirrored here, or parent
# and change would be measured with different build settings.
missing=$(comm -23 <(grep -o '^\[profile\.[^]]*\]' Cargo.toml | sort -u) \
                   <(grep -o '^\[profile\.[^]]*\]' "$manifest" | sort -u) || true)
if [ -n "$missing" ]; then
  echo "ci: root Cargo.toml has profile tables $manifest does not mirror:" $missing >&2
  exit 1
fi

echo "==> build and unit tests (offline)"
cargo build --release --offline --quiet --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

# The names inside `"<key>": [ ... ]` of BENCHMARK.json, one per line.
declared() {
  tr -d '\n' < "$spec" | sed -E "s/.*\"$1\"[[:space:]]*:[[:space:]]*\[([^]]*)\].*/\1/" |
    grep -o '"name"[[:space:]]*:[[:space:]]*"[^"]*"' | sed -E 's/.*"([^"]*)"$/\1/' | sort -u
}

smoke() { # <trace 0|1> <key of the metrics every workload must print>
  local out
  out=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke --trace "$1")
  # Metric lines read `workload metric value unit`; notes start with '#'
  # and results with '{'. Every workload prints every metric, once.
  if ! diff <(for w in $(declared workloads); do declared "$2" | sed "s/^/$w /"; done | sort) \
            <(grep -v '^[#{]' <<<"$out" | cut -d' ' -f1,2 | sort); then
    echo "ci: --trace $1 printed other names than $spec declares under workloads x $2" >&2
    exit 1
  fi
}

echo "==> smoke, tracing off"
smoke 0 end_to_end
echo "==> smoke, traced"
smoke 1 per_layer
echo "benchmark ci: OK"
