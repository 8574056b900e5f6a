#!/usr/bin/env bash
# Perf bench: runs the fleet scenario at acceptance scale (1000 enclaves
# x 100k requests, byte-identity asserted across two runs) and emits
# BENCH_fleet.json (spin-up rate, fleet throughput, peak EPC eviction
# rate) plus the fleet trace beside it, which `sgxperf report` and
# `sgxperf fleet` must render. Set FLEET_SCALE=smoke|tiny to shrink it.
#
# Also runs the engine throughput bench (legacy OS-thread engine vs. fast
# coroutine engine) and emits BENCH_engine.json; fails unless the fast
# engine clears the SGXPERF_ENGINE_SPEEDUP_FLOOR (default 5x) and the
# campaign runner clears SGXPERF_SCALING_FLOOR (default 0.7x ideal).
#
# Also runs the declarative stressor sweep (specs/stressors.toml) serially
# and at full parallelism and emits BENCH_campaign.json (cells/sec,
# parallel efficiency, per-stressor headline metrics, plus the
# supervision overheads: resume_validate_ms — a full-archive --resume
# that re-runs nothing — and flaky_retry_ms — one flaky cell's
# fail/backoff/pass cycle).
#
# Exit status: non-zero if any bench assertion or floor fails, or on any
# build/run failure.
#
# usage: scripts/bench.sh [profile]
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE="${1:-unpatched}"
FLEET_JSON="${FLEET_JSON:-BENCH_fleet.json}"
FLEET_SCALE="${FLEET_SCALE:-full}"
ENGINE_JSON="${ENGINE_JSON:-BENCH_engine.json}"
CAMPAIGN_JSON="${CAMPAIGN_JSON:-BENCH_campaign.json}"
CAMPAIGN_SPEC="${CAMPAIGN_SPEC:-specs/stressors.toml}"

echo "== build (release, offline)"
cargo build --release --offline -p sgx-perf -p sgxperf-cli -p workloads --examples --bins

SGXPERF=target/release/sgxperf

echo "== fleet bench ($FLEET_SCALE scale, $PROFILE, byte-identity across 2 runs)"
cargo run --release --offline -q -p workloads --example fleet_bench -- \
    "$FLEET_JSON" "$FLEET_SCALE" "$PROFILE"

# Fleet traces are labelled `l1tf` for the Foreshadow profile.
case "$PROFILE" in
    foreshadow) FLEET_LABEL=l1tf ;;
    *) FLEET_LABEL="$PROFILE" ;;
esac
FLEET_TRACE="$(dirname "$FLEET_JSON")/fleet-$FLEET_LABEL.evdb"

echo "== fleet report ($FLEET_TRACE)"
"$SGXPERF" report "$FLEET_TRACE" > /dev/null
"$SGXPERF" fleet "$FLEET_TRACE" --top 10

echo "== engine bench (legacy vs fast, throughput floors enforced)"
cargo run --release --offline -q -p workloads --example engine_bench -- \
    "$ENGINE_JSON"

echo "== campaign bench ($CAMPAIGN_SPEC, serial vs all cores, resume + retry overheads)"
cargo run --release --offline -q -p workloads --example campaign_bench -- \
    "$CAMPAIGN_JSON" "$CAMPAIGN_SPEC"

echo "wrote $FLEET_JSON, $ENGINE_JSON and $CAMPAIGN_JSON"
