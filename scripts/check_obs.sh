#!/usr/bin/env bash
# End-to-end check of the kt::obs observability layer:
#
#   1. Runs a short ktcli training with tracing + run log + checkpointing
#      enabled and validates both artifacts with tools/obs_check (Chrome
#      trace-event schema, per-epoch JSONL schema).
#   2. Re-runs the identical config with observability off and asserts the
#      reported metrics, the saved model bytes, and the final checkpoint are
#      bit-identical — telemetry must never touch the computation.
#   3. Repeats the A/B at several thread counts (the sharded counters and
#      per-thread trace tracks are only interesting under kt::parallel).
#
# Usage: scripts/check_obs.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" --target ktcli obs_check -j "$(nproc)" >/dev/null

KTCLI="${BUILD_DIR}/tools/ktcli"
OBS_CHECK="${BUILD_DIR}/tools/obs_check"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

"${KTCLI}" simulate --preset assist09 --scale 0.05 --seed 7 \
  --out "${WORK}/data.csv" >/dev/null

TRAIN_FLAGS=(train --data "${WORK}/data.csv" --encoder dkt
  --epochs 3 --patience 3 --seed 1 --verbose=false)

for THREADS in 1 2 8; do
  echo "== threads=${THREADS}"

  # Telemetry on: trace + run log + checkpoint + stderr summary.
  "${KTCLI}" "${TRAIN_FLAGS[@]}" --threads "${THREADS}" \
    --obs on \
    --trace-out "${WORK}/trace.json" \
    --run-log "${WORK}/run.jsonl" \
    --checkpoint-every 1 --checkpoint "${WORK}/on.ktc" \
    --save "${WORK}/on.ktw" \
    >"${WORK}/on.out" 2>"${WORK}/on.err"

  grep -q "kt::obs summary" "${WORK}/on.err" \
    || { echo "FAIL: --obs on printed no summary"; exit 1; }
  grep -q "counter gemm.calls" "${WORK}/on.err" \
    || { echo "FAIL: summary lacks gemm counters"; exit 1; }
  "${OBS_CHECK}" trace "${WORK}/trace.json"
  "${OBS_CHECK}" runlog "${WORK}/run.jsonl"
  EPOCHS=$(wc -l < "${WORK}/run.jsonl")
  [ "${EPOCHS}" -ge 1 ] || { echo "FAIL: empty run log"; exit 1; }
  # The first epoch grows the heap, so its getrusage delta cannot be zero.
  head -n 1 "${WORK}/run.jsonl" | grep -q '"minflt":[1-9]' \
    || { echo "FAIL: run log records no minor page faults"; exit 1; }

  # Telemetry off (the default): identical metrics, model, checkpoint.
  "${KTCLI}" "${TRAIN_FLAGS[@]}" --threads "${THREADS}" \
    --checkpoint-every 1 --checkpoint "${WORK}/off.ktc" \
    --save "${WORK}/off.ktw" \
    >"${WORK}/off.out" 2>/dev/null

  # Compare everything the runs print except the lines that echo their own
  # output paths (metrics, epoch counts, prediction counts must match).
  grep -v "saved model to" "${WORK}/on.out" >"${WORK}/on.cmp"
  grep -v "saved model to" "${WORK}/off.out" >"${WORK}/off.cmp"
  if ! diff -q "${WORK}/on.cmp" "${WORK}/off.cmp" >/dev/null; then
    echo "FAIL: training metrics differ with observability on vs off"
    diff "${WORK}/on.cmp" "${WORK}/off.cmp" || true
    exit 1
  fi
  cmp -s "${WORK}/on.ktw" "${WORK}/off.ktw" \
    || { echo "FAIL: saved model bytes differ with observability on"; exit 1; }
  cmp -s "${WORK}/on.ktc" "${WORK}/off.ktc" \
    || { echo "FAIL: checkpoint bytes differ with observability on"; exit 1; }
  grep "test AUC" "${WORK}/on.out"
done

# Negative coverage: the validator must actually reject broken artifacts.
echo '{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0}]}' \
  >"${WORK}/bad_trace.json"
if "${OBS_CHECK}" trace "${WORK}/bad_trace.json" 2>/dev/null; then
  echo "FAIL: obs_check accepted an X event without ts/dur"
  exit 1
fi
echo '{"run":"m","epoch":-1}' >"${WORK}/bad_run.jsonl"
if "${OBS_CHECK}" runlog "${WORK}/bad_run.jsonl" 2>/dev/null; then
  echo "FAIL: obs_check accepted a malformed run log"
  exit 1
fi
echo '{"run":"m","epoch":0,"train_loss":0.6,"val_auc":0.5,"val_acc":0.5,'\
'"epoch_ms":1,"tokens":1,"tokens_per_sec":1,"gemm_flops":0,"ckpt_ms":0,'\
'"rss_bytes":1}' >"${WORK}/no_usage_run.jsonl"
if "${OBS_CHECK}" runlog "${WORK}/no_usage_run.jsonl" 2>/dev/null; then
  echo "FAIL: obs_check accepted a run log without minflt/sys_ms"
  exit 1
fi

echo "kt::obs check passed"
