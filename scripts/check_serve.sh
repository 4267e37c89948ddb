#!/usr/bin/env bash
# End-to-end check of the kt::serve online inference path:
#
#   1. Builds ktcli + kt_loadgen, simulates a small dataset, and trains a
#      tiny model saved with the KTW2 metadata chunk.
#   2. Scores every prefix sample offline with `ktcli evaluate --json`
#      (single-threaded).
#   3. Starts `ktcli serve` on a TCP port (different thread count, dynamic
#      micro-batching live) and replays the dataset through kt_loadgen with
#      concurrent connections.
#   4. Asserts every online prediction equals the offline generator score
#      BIT FOR BIT — the serving subsystem's load-bearing contract
#      (kt_loadgen exits non-zero on any mismatch or missing sample).
#   5. Repeats the replay against a --shards 3 server: the sharded reactor
#      must serve the same bits (DESIGN.md §13).
#   6. Re-checks through the stdio transport with a handful of hand-rolled
#      requests, including eviction pressure (1 MB session budget).
#   7. Gates recourse: the stacked fast path and --shards 4 must give the
#      same reply digest as the brute per-candidate re-encode.
#   8. For every paper-dataset preset (assist09, assist12, slepemapy,
#      eedi), trains a tiny DKT model and repeats the bitwise replay.
#   9. Unless KT_SERVE_TSAN=0: rebuilds ktcli + kt_loadgen with
#      ThreadSanitizer (shared build-tsan tree, same as check_tsan.sh),
#      drives a --shards 4 server with concurrent bench + replay traffic,
#      and shuts it down gracefully over the wire ({"op":"shutdown"}).
#      halt_on_error=1 turns any data race in the reactor, the shard
#      queues, or the cold tier into a non-zero exit.
#
# Usage: scripts/check_serve.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_BUILD_DIR="${KT_SERVE_TSAN_BUILD_DIR:-build-tsan}"
PORT="${KT_SERVE_PORT:-19877}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" --target ktcli kt_loadgen -j "$(nproc)"

KTCLI="${BUILD_DIR}/tools/ktcli"
LOADGEN="${BUILD_DIR}/tools/kt_loadgen"

WORK="$(mktemp -d)"
source scripts/serve_lib.sh

start_server() {  # start_server MODEL DATA EXTRA_FLAGS...
  local model="$1" data="$2"
  shift 2
  launch_server --load "${model}" --data "${data}" \
    --threads 2 --max-batch 8 --max-wait-us 500 "$@"
}

echo "== train a tiny model (saved with metadata) =="
"${KTCLI}" simulate --preset assist09 --scale 0.05 --seed 7 \
  --out "${WORK}/data.csv"
"${KTCLI}" train --data "${WORK}/data.csv" --encoder sakt --dim 16 \
  --epochs 2 --verbose false --save "${WORK}/model.ktw"

echo "== offline reference: ktcli evaluate --json (1 thread) =="
"${KTCLI}" evaluate --data "${WORK}/data.csv" --load "${WORK}/model.ktw" \
  --threads 1 --json > "${WORK}/offline.json"

echo "== online replay over TCP (2 threads, 4 connections) =="
# No --encoder/--dim flags: the server shapes itself from the metadata.
start_server "${WORK}/model.ktw" "${WORK}/data.csv"
"${LOADGEN}" --port "${PORT}" --data "${WORK}/data.csv" \
  --expect "${WORK}/offline.json" --connections 4 | tee "${WORK}/replay.json"
grep -q '"mismatches":0' "${WORK}/replay.json"
grep -q '"missing":0' "${WORK}/replay.json"
stop_server

echo "== same replay against a 3-shard reactor: still bit-identical =="
start_server "${WORK}/model.ktw" "${WORK}/data.csv" --shards 3
"${LOADGEN}" --port "${PORT}" --data "${WORK}/data.csv" \
  --expect "${WORK}/offline.json" --connections 4 \
  | tee "${WORK}/replay_sharded.json"
grep -q '"mismatches":0' "${WORK}/replay_sharded.json"
grep -q '"missing":0' "${WORK}/replay_sharded.json"
stop_server

echo "== stdio transport + eviction pressure (1 MB budget) =="
{
  echo '{"op":"predict","student":"a","question":1}'
  echo '{"op":"update","student":"a","question":1,"response":1}'
  echo '{"op":"predict","student":"a","question":2}'
  echo '{"op":"explain","student":"a","question":2}'
  echo '{"op":"stats"}'
  echo '{"op":"reset","student":"a"}'
  echo '{"op":"stats"}'
} | "${KTCLI}" serve --load "${WORK}/model.ktw" --data "${WORK}/data.csv" \
      --memory-budget-mb 1 > "${WORK}/stdio.out"
[[ "$(grep -c '"ok":true' "${WORK}/stdio.out")" -eq 7 ]]
grep -q '"sessions":0' "${WORK}/stdio.out"   # after the reset

echo "== recourse gate: suffix replay ≡ brute offline re-encode =="
# One server, two passes of the same recourse traffic: the fast path
# (prefix-clone + suffix replay) and --brute (full per-candidate
# re-encode). The reply digest folds base_p, every candidate probability
# and every intervention, so digest equality is bitwise top-K equality.
start_server "${WORK}/model.ktw" "${WORK}/data.csv"
"${LOADGEN}" --port "${PORT}" --mode recourse --data "${WORK}/data.csv" \
  --connections 4 --k 2 --top 3 | tee "${WORK}/recourse_fast.json"
"${LOADGEN}" --port "${PORT}" --mode recourse --data "${WORK}/data.csv" \
  --connections 4 --k 2 --top 3 --brute > "${WORK}/recourse_brute.json"
stop_server

digest() { sed -n 's/.*"recourse_fnv64":"\([0-9a-f]*\)".*/\1/p' "$1"; }
FAST_DIGEST="$(digest "${WORK}/recourse_fast.json")"
[[ -n "${FAST_DIGEST}" ]]
grep -q '"recourses":0' "${WORK}/recourse_fast.json" && {
  echo "recourse gate ran zero recourse requests"; exit 1; }
[[ "${FAST_DIGEST}" == "$(digest "${WORK}/recourse_brute.json")" ]] || {
  echo "recourse fast path diverges from brute re-encode"; exit 1; }

echo "== recourse gate: --shards 4 serves the same bits =="
start_server "${WORK}/model.ktw" "${WORK}/data.csv" --shards 4
"${LOADGEN}" --port "${PORT}" --mode recourse --data "${WORK}/data.csv" \
  --connections 4 --k 2 --top 3 > "${WORK}/recourse_sharded.json"
stop_server
[[ "${FAST_DIGEST}" == "$(digest "${WORK}/recourse_sharded.json")" ]] || {
  echo "recourse digests diverge between --shards 1 and --shards 4"; exit 1; }

for PRESET in assist09 assist12 slepemapy eedi; do
  echo "== ${PRESET}: tiny DKT model, bitwise replay =="
  DATA="${WORK}/${PRESET}.csv"
  MODEL="${WORK}/${PRESET}.ktw"
  "${KTCLI}" simulate --preset "${PRESET}" --scale 0.03 --seed 11 \
    --out "${DATA}"
  "${KTCLI}" train --data "${DATA}" --encoder dkt --dim 16 --epochs 2 \
    --verbose false --save "${MODEL}"
  "${KTCLI}" evaluate --data "${DATA}" --load "${MODEL}" --threads 1 \
    --json > "${WORK}/${PRESET}_offline.json"
  start_server "${MODEL}" "${DATA}"
  "${LOADGEN}" --port "${PORT}" --data "${DATA}" \
    --expect "${WORK}/${PRESET}_offline.json" --connections 4 \
    | tee "${WORK}/${PRESET}_replay.json"
  stop_server
  grep -q '"mismatches":0' "${WORK}/${PRESET}_replay.json"
  grep -q '"missing":0' "${WORK}/${PRESET}_replay.json"
done

if [[ "${KT_SERVE_TSAN:-1}" != "0" ]]; then
  echo "== TSan: 4-shard reactor under concurrent mixed loadgen =="
  # Same configuration as scripts/check_tsan.sh (shared build tree): -O1
  # keeps shadow frames honest, -march=native keeps FP codegen — and so
  # the bit-parity contract — identical to the normal build.
  cmake -B "${TSAN_BUILD_DIR}" -S . \
    -DKT_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g -march=native" >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" --target ktcli kt_loadgen -j "$(nproc)"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

  # From here on the TSan binaries serve and drive.
  KTCLI="${TSAN_BUILD_DIR}/tools/ktcli"
  LOADGEN="${TSAN_BUILD_DIR}/tools/kt_loadgen"

  # 1 MB budget + cold dir: eviction, replay rebuild, AND cold snapshot
  # save/load all run on the shard threads while the reactor mixes four
  # bench connections with a four-connection replay.
  start_server "${WORK}/model.ktw" "${WORK}/data.csv" --shards 4 \
    --memory-budget-mb 1 --cold-dir "${WORK}/cold"

  "${LOADGEN}" --port "${PORT}" --mode bench \
    --connections 4 --requests 100 > /dev/null &
  BENCH_PID=$!
  # Recourse rides the shard workers' heavy lane concurrently with the
  # light predict traffic — the lane split itself runs under TSan.
  "${LOADGEN}" --port "${PORT}" --mode recourse \
    --data "${WORK}/data.csv" --connections 2 --k 2 --top 3 > /dev/null &
  RECOURSE_PID=$!
  "${LOADGEN}" --port "${PORT}" \
    --data "${WORK}/data.csv" --expect "${WORK}/offline.json" \
    --connections 4 > "${WORK}/replay_tsan.json"
  wait "${BENCH_PID}"
  wait "${RECOURSE_PID}"
  grep -q '"mismatches":0' "${WORK}/replay_tsan.json"
  grep -q '"missing":0' "${WORK}/replay_tsan.json"

  # Graceful shutdown over the wire: the reactor stops accepting, drains
  # in-flight work, flushes cold snapshots, and the process must exit 0
  # (halt_on_error=1 turns any TSan report into a non-zero exit).
  exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
  printf '{"op":"shutdown"}\n' >&3
  read -r -t 30 _reply <&3 || true
  exec 3<&- 3>&-
  wait "${SERVER_PID}"
  SERVER_PID=""
  echo "   TSan run clean: no races, graceful shutdown, parity held"
fi

echo "OK: online serving is bit-identical to offline evaluation"
