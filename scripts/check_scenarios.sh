#!/usr/bin/env bash
# End-to-end regression gate for the scenario fleet (DESIGN.md §12):
#
#   1. Builds ktcli + kt_loadgen + obs_check, generates the scenario_base
#      historical log, and trains a tiny model on it — the one model that
#      serves every scenario (shared 400x20 question/concept space).
#   2. Starts `ktcli serve` on a TCP port and drives EVERY registered
#      scenario through `kt_loadgen --mode scenario` at small scale
#      (open-loop streaming traffic, 2 connections).
#   3. Validates each JSON report against the documented schema with
#      `obs_check scenario`, gating on:
#        * a per-scenario rolling-AUC floor (regression gate: the model
#          must stay predictive on every traffic shape; adversarial
#          bursts randomize responses, so its floor is lower),
#        * a predict-p99 latency budget,
#        * seed-determinism — each scenario runs TWICE and the second
#          report's traffic_fnv64 digest must equal the first bit-for-bit.
#   4. Restarts the server with --shards 8 and replays every scenario once
#      more: each report's pred_fnv64 must equal the --shards 1 digest
#      bit-for-bit — the sharded reactor serves exactly the predictions
#      the single-shard engine serves (DESIGN.md §13).
#   5. Exercises the unknown-name paths: ktcli and kt_loadgen must list
#      the valid names instead of aborting.
#
# Usage: scripts/check_scenarios.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PORT="${KT_SCENARIO_PORT:-19879}"
SCALE="${KT_SCENARIO_SCALE:-0.05}"
STUDENTS="${KT_SCENARIO_STUDENTS:-40}"
# Generous so slow CI boxes pass; tight enough to catch a 10x regression.
MAX_P99_US="${KT_SCENARIO_MAX_P99_US:-200000}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" --target ktcli kt_loadgen obs_check \
  -j "$(nproc)"

KTCLI="${BUILD_DIR}/tools/ktcli"
LOADGEN="${BUILD_DIR}/tools/kt_loadgen"
OBS_CHECK="${BUILD_DIR}/tools/obs_check"

WORK="$(mktemp -d)"
source scripts/serve_lib.sh

echo "== train the scenario-serving model on the scenario_base log =="
"${KTCLI}" simulate --scenario scenario_base --scale "${SCALE}" \
  --out "${WORK}/base.csv"
"${KTCLI}" train --data "${WORK}/base.csv" --encoder sakt --dim 16 \
  --epochs 2 --verbose false --save "${WORK}/model.ktw"

echo "== unknown-name paths list the registry instead of aborting =="
if "${KTCLI}" simulate --scenario warp_core --out "${WORK}/x.csv" \
     2> "${WORK}/ktcli_err.txt"; then
  echo "FAIL: ktcli accepted an unknown scenario" >&2
  exit 1
fi
grep -q "cold_start" "${WORK}/ktcli_err.txt"
if "${LOADGEN}" --port "${PORT}" --mode scenario --scenario warp_core \
     2> "${WORK}/loadgen_err.txt"; then
  echo "FAIL: kt_loadgen accepted an unknown scenario" >&2
  exit 1
fi
grep -q "cold_start" "${WORK}/loadgen_err.txt"

start_server() {  # start_server <shards>
  launch_server --load "${WORK}/model.ktw" --threads 2 \
    --max-batch 8 --max-wait-us 500 --shards "$1"
}

json_field() {  # json_field <file> <key>  -> hex digest value
  sed "s/.*\"$2\":\"\([0-9a-f]*\)\".*/\1/" "$1"
}

echo "== serve the model on 127.0.0.1:${PORT} (1 shard) =="
start_server 1

# Per-scenario rolling-AUC floors. The model never trains on scenario
# traffic, so these are deliberately loose sanity floors, not paper-grade
# targets: they catch "the model is no longer predictive on this traffic
# shape" (or a scoring regression), not small AUC wiggles. Adversarial
# bursts replace ~20% of responses with guess/slip noise and drift
# contradicts the learned student state mid-sequence, so their floors sit
# at chance; the rest must stay visibly above it.
auc_floor() {
  case "$1" in
    adversarial|drift) echo "0.50" ;;
    cold_start)        echo "0.52" ;;
    *)                 echo "0.55" ;;
  esac
}

for name in cold_start forgetting adversarial drift zipf; do
  echo "== scenario ${name}: twice through the fleet gate =="
  "${LOADGEN}" --port "${PORT}" --mode scenario --scenario "${name}" \
    --students "${STUDENTS}" --connections 2 \
    > "${WORK}/${name}_1.json"
  "${LOADGEN}" --port "${PORT}" --mode scenario --scenario "${name}" \
    --students "${STUDENTS}" --connections 2 \
    > "${WORK}/${name}_2.json"

  fnv="$(json_field "${WORK}/${name}_1.json" traffic_fnv64)"
  "${OBS_CHECK}" scenario "${WORK}/${name}_1.json" \
    --expect-scenario "${name}" \
    --min-auc "$(auc_floor "${name}")" --max-p99-us "${MAX_P99_US}"
  # Determinism gate: run 2 must regenerate run 1's traffic bit-for-bit.
  "${OBS_CHECK}" scenario "${WORK}/${name}_2.json" \
    --expect-scenario "${name}" --expect-fnv "${fnv}" \
    --min-auc "$(auc_floor "${name}")" --max-p99-us "${MAX_P99_US}"
  # Keep run 1's prediction digest for the cross-shard gate below. (Run 2
  # reuses run 1's student names on the SAME server, so its sessions carry
  # doubled history and its predictions legitimately differ — the parity
  # comparison is against a fresh --shards 8 server instead.)
  pred1="$(json_field "${WORK}/${name}_1.json" pred_fnv64)"
  [[ -n "${pred1}" ]] || { echo "FAIL: no pred_fnv64 in ${name}" >&2; exit 1; }
  echo "${pred1}" > "${WORK}/${name}.pred1"
done

stop_server

echo "== shard parity: --shards 8 must serve bit-identical predictions =="
start_server 8
for name in cold_start forgetting adversarial drift zipf; do
  "${LOADGEN}" --port "${PORT}" --mode scenario --scenario "${name}" \
    --students "${STUDENTS}" --connections 2 \
    > "${WORK}/${name}_8.json"
  pred1="$(cat "${WORK}/${name}.pred1")"
  pred8="$(json_field "${WORK}/${name}_8.json" pred_fnv64)"
  if [[ "${pred8}" != "${pred1}" ]]; then
    echo "FAIL: ${name}: pred_fnv64 ${pred8} (8 shards) != ${pred1}" \
         "(1 shard)" >&2
    exit 1
  fi
  echo "   ${name}: pred_fnv64 ${pred8} matches across shard counts"
done
stop_server

echo "OK: scenarios deterministic, predictive, within latency budget," \
     "and bit-identical across shard counts"
