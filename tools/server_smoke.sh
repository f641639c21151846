#!/usr/bin/env bash
# End-to-end smoke of the datanetd serving path over a real loopback socket:
# start the daemon, query a handful of keys through datanet_cli, check every
# served digest against the in-process golden run (`--local` rebuilds the
# same deterministic dataset, so digests must match byte-for-byte), exercise
# a typed rejection, read the per-tenant metering snapshot, then shut the
# daemon down over the wire and verify it exits cleanly.
#
# Usage: tools/server_smoke.sh [build-dir] (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/${1:-build}"
cli="${build_dir}/tools/datanet_cli"
daemon="${build_dir}/tools/datanetd"

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "${daemon_pid}" ]] && kill "${daemon_pid}" 2>/dev/null || true
  rm -rf "${workdir}"
}
trap cleanup EXIT

port_file="${workdir}/port"
"${daemon}" --port-file "${port_file}" --workers 2 \
  > "${workdir}/daemon.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 100); do
  [[ -s "${port_file}" ]] && break
  kill -0 "${daemon_pid}" 2>/dev/null || {
    echo "FAIL: daemon died on startup"; cat "${workdir}/daemon.log"; exit 1
  }
  sleep 0.1
done
[[ -s "${port_file}" ]] || { echo "FAIL: no port file"; exit 1; }
port="$(cat "${port_file}")"
echo "datanetd up on port ${port}"

extract() { sed -n "s/.*$1=\([0-9]*\).*/\1/p" <<< "$2"; }

for key in movie_00000 movie_00001 movie_00002; do
  for sched in datanet locality; do
    served="$(timeout 60 "${cli}" query --port "${port}" --tenant smoke --key "${key}" \
      --scheduler "${sched}")"
    golden="$(timeout 60 "${cli}" query --key "${key}" --scheduler "${sched}" --local)"
    sd="$(extract digest "${served}")"
    gd="$(extract digest "${golden}")"
    if [[ -z "${sd}" || "${sd}" != "${gd}" ]]; then
      echo "FAIL: digest mismatch key=${key} sched=${sched}:" \
           "served=${sd:-none} golden=${gd:-none}"
      exit 1
    fi
    echo "OK  ${key} ${sched} digest=${sd}"
  done
done

# A bogus scheduler must come back as a typed rejection (exit 2), not a hang
# or a crash.
rc=0
timeout 60 "${cli}" query --port "${port}" --tenant smoke --key movie_00000 \
  --scheduler no-such-scheduler > "${workdir}/reject.out" 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "FAIL: bogus scheduler exit=${rc}, want 2 (typed rejection)"
  cat "${workdir}/reject.out"; exit 1
fi
echo "OK  typed rejection for unknown scheduler"

# query --stats --json round-trips the per-tenant metering snapshot.
stats="$(timeout 60 "${cli}" query --port "${port}" --stats --json)"
echo "${stats}"
for want in '"tenant": "smoke"' '"queue_wait_micros"'; do
  if ! grep -qF "${want}" <<< "${stats}"; then
    echo "FAIL: stats missing ${want}"; exit 1
  fi
done
echo "OK  stats report tenant metering"

timeout 60 "${cli}" query --port "${port}" --shutdown
for _ in $(seq 1 100); do
  kill -0 "${daemon_pid}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${daemon_pid}" 2>/dev/null; then
  echo "FAIL: daemon still running after wire shutdown"; exit 1
fi
daemon_pid=""
echo "OK  wire shutdown"
echo "server smoke PASS"
