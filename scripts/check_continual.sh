#!/usr/bin/env bash
# End-to-end regression gate for the continual-learning loop (DESIGN.md
# §16):
#
#   1. Builds ktcli + kt_loadgen + obs_check, trains a tiny model on the
#      scenario_base log, and starts `ktcli serve --continual` (2 shards)
#      with bench-scale trainer knobs.
#   2. Drives the drift scenario through `kt_loadgen --mode scenario` —
#      the mid-stream concept shift the loop exists to absorb — then waits
#      until the background trainer promotes at least one candidate
#      (polling the `stats` op).
#   3. Replays the drift traffic with --windows 4 and gates the report
#      with `obs_check scenario`:
#        * --min-weight-version 1 — a promotion actually landed and the
#          serving weights carry its version,
#        * --max-auc-drop — last-window online AUC must stay within
#          KT_CONTINUAL_MAX_AUC_DROP of the first window (post-swap AUC >=
#          pre-swap - eps),
#        * --expect-fnv — the window split must not change the traffic
#          digest bit-for-bit (drift replay is deterministic).
#   4. Reservoir determinism: fresh servers at --shards 1 and --shards 4
#      (training disabled via a huge --train-every) ingest the same drift
#      traffic; the `stats` continual.reservoir_fnv64 digests must match
#      bit-for-bit (the bottom-k replay set is shard-layout invariant).
#   5. TSan: builds the suite with -fsanitize=thread (shared build-tsan
#      dir, same config as check_tsan.sh) and runs the continual tests —
#      trainer mini-epochs + SwapWeights quiesce + shard traffic
#      concurrent. KT_CONTINUAL_SKIP_TSAN=1 skips this step.
#
# Usage: scripts/check_continual.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PORT="${KT_CONTINUAL_PORT:-19881}"
SCALE="${KT_CONTINUAL_SCALE:-0.05}"
STUDENTS="${KT_CONTINUAL_STUDENTS:-40}"
# Loose: catches "the swap made the model worse" / "training diverged",
# not small AUC wiggles (the drift scenario degrades any frozen model).
MAX_AUC_DROP="${KT_CONTINUAL_MAX_AUC_DROP:-0.15}"
PROMOTE_TIMEOUT_S="${KT_CONTINUAL_PROMOTE_TIMEOUT_S:-60}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" --target ktcli kt_loadgen obs_check \
  -j "$(nproc)"

KTCLI="${BUILD_DIR}/tools/ktcli"
LOADGEN="${BUILD_DIR}/tools/kt_loadgen"
OBS_CHECK="${BUILD_DIR}/tools/obs_check"

WORK="$(mktemp -d)"
source scripts/serve_lib.sh

echo "== train the serving model on the scenario_base log =="
"${KTCLI}" simulate --scenario scenario_base --scale "${SCALE}" \
  --out "${WORK}/base.csv"
"${KTCLI}" train --data "${WORK}/base.csv" --encoder sakt --dim 16 \
  --epochs 2 --verbose false --save "${WORK}/model.ktw"

start_server() {  # start_server <shards> <continual-dir> [extra flags...]
  local shards="$1" dir="$2"
  shift 2
  launch_server --load "${WORK}/model.ktw" --threads 2 \
    --max-batch 8 --max-wait-us 500 --shards "${shards}" \
    --continual --continual-dir "${dir}" \
    --reservoir 256 --tail 64 --continual-window 16 --gate-min 32 \
    --gate-eps 0.05 --continual-lr 1e-3 --continual-poll-ms 10 "$@"
}

stats_line() {  # one {"op":"stats"} round-trip over /dev/tcp
  exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
  printf '{"op":"stats"}\n' >&3
  local line
  IFS= read -r line <&3
  exec 3<&- 3>&-
  printf '%s' "${line}"
}

num_field() {  # num_field <json> <key> -> first integer value of key
  printf '%s' "$1" | sed "s/.*\"$2\":\([0-9][0-9]*\).*/\1/"
}

echo "== drift e2e: serve --continual (2 shards) on 127.0.0.1:${PORT} =="
start_server 2 "${WORK}/cont_e2e" --train-every 200

echo "== pass 1: drift traffic feeds the reservoir =="
"${LOADGEN}" --port "${PORT}" --mode scenario --scenario drift \
  --students "${STUDENTS}" --connections 2 > "${WORK}/pass1.json"
"${OBS_CHECK}" scenario "${WORK}/pass1.json" --expect-scenario drift
fnv="$(sed 's/.*"traffic_fnv64":"\([0-9a-f]*\)".*/\1/' "${WORK}/pass1.json")"

echo "== wait for the trainer to promote a candidate =="
promoted=0
for _ in $(seq "$((PROMOTE_TIMEOUT_S * 2))"); do
  line="$(stats_line)" || true
  if [[ "${line}" == *'"promotions":'* ]]; then
    p="$(num_field "${line}" promotions)"
    if [[ "${p}" -ge 1 ]]; then
      promoted=1
      echo "   promotions=${p}," \
           "weight_version=$(num_field "${line}" weight_version)"
      break
    fi
  fi
  sleep 0.5
done
if [[ "${promoted}" != 1 ]]; then
  echo "FAIL: no promotion within ${PROMOTE_TIMEOUT_S}s" >&2
  exit 1
fi

echo "== pass 2: windowed drift replay against the promoted weights =="
"${LOADGEN}" --port "${PORT}" --mode scenario --scenario drift \
  --students "${STUDENTS}" --connections 2 --windows 4 \
  > "${WORK}/pass2.json"
"${OBS_CHECK}" scenario "${WORK}/pass2.json" --expect-scenario drift \
  --expect-fnv "${fnv}" --min-weight-version 1 \
  --max-auc-drop "${MAX_AUC_DROP}"
stop_server

echo "== reservoir digest parity: --shards 1 vs --shards 4 =="
declare -A digest
for shards in 1 4; do
  # A huge --train-every disables mini-epochs: pure ingest, so the digest
  # isolates the reservoir (training could not change it anyway, but keep
  # the runs cheap and single-purpose).
  start_server "${shards}" "${WORK}/cont_s${shards}" --train-every 100000000
  "${LOADGEN}" --port "${PORT}" --mode scenario --scenario drift \
    --students "${STUDENTS}" --connections 2 > "${WORK}/parity_${shards}.json"
  line="$(stats_line)"
  digest[${shards}]="$(printf '%s' "${line}" |
    sed 's/.*"reservoir_fnv64":"\([0-9a-f]*\)".*/\1/')"
  events="$(num_field "${line}" events)"
  echo "   shards=${shards}: events=${events}" \
       "reservoir_fnv64=${digest[${shards}]}"
  stop_server
done
if [[ -z "${digest[1]}" || "${digest[1]}" != "${digest[4]}" ]]; then
  echo "FAIL: reservoir digest ${digest[4]} (4 shards) != ${digest[1]}" \
       "(1 shard)" >&2
  exit 1
fi

if [[ "${KT_CONTINUAL_SKIP_TSAN:-0}" != 1 ]]; then
  echo "== TSan: trainer + swap + shard traffic concurrent =="
  TSAN_BUILD_DIR="${KT_CONTINUAL_TSAN_BUILD_DIR:-build-tsan}"
  cmake -B "${TSAN_BUILD_DIR}" -S . \
    -DKT_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g -march=native" >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" --target kt_tests -j "$(nproc)"
  KT_NUM_THREADS="${KT_NUM_THREADS:-8}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  "${TSAN_BUILD_DIR}/tests/kt_tests" \
    --gtest_filter='ReservoirTest*:CollectorTest*:TrainerTest*:SwapWeightsTest*:ColdTierFingerprintTest*' \
    --gtest_brief=1
fi

echo "OK: promotion landed, post-swap AUC within ${MAX_AUC_DROP} of" \
     "pre-swap, reservoir digests shard-invariant, TSan clean"
