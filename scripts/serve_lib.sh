# Server lifecycle shared by the `ktcli serve` gates (check_serve.sh,
# check_scenarios.sh, check_continual.sh). Source it after setting:
#   KTCLI, LOADGEN  the ktcli and kt_loadgen binaries to run,
#   PORT            the loopback port the server listens on,
#   WORK            the scratch directory the EXIT trap removes.
# Each script wraps launch_server with its own `ktcli serve` arguments.

SERVER_PID=""
cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

# launch_server ARGS...: starts `${KTCLI} serve --port ${PORT} ARGS...` in
# the background and waits until a one-request bench round trip succeeds;
# exits the script if the server exits first or never answers. The 300
# polls, 0.1 s apart, leave room for a TSan build's slow startup.
launch_server() {
  "${KTCLI}" serve --port "${PORT}" "$@" &
  SERVER_PID=$!
  for _ in $(seq 300); do
    if "${LOADGEN}" --port "${PORT}" --mode bench --connections 1 \
         --requests 1 >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "${SERVER_PID}" 2>/dev/null || break
    sleep 0.1
  done
  echo "FAIL: server did not come up on port ${PORT}" >&2
  exit 1
}

stop_server() {
  kill "${SERVER_PID}" 2>/dev/null || true
  wait "${SERVER_PID}" 2>/dev/null || true
  SERVER_PID=""
}
