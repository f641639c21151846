#!/usr/bin/env bash
# Smoke of the sharded metadata plane, end to end through datanet_cli:
#
#  1. fsck --meta-shards 4 runs the kill-one-shard drill — spread a dataset
#     across 4 metadata shards with per-shard journals, crash one shard,
#     verify the other three keep serving, recover the victim from its own
#     FsImage + EditLog suffix, digest-check it, and finish with a clean
#     plane-wide fsck (non-zero exit on any failure). Plain fsck runs the
#     single-NameNode drill on the same log: deferred repair drained by the
#     ReplicationMonitor, then an FsImage checkpoint and crash/recover.
#  2. datanetd --meta-shards 4 serves the hosted dataset off a 4-shard
#     plane; a served digest must still match the in-process golden run
#     (--local, shard count 1) — sharding must never change placement.
#  3. query --stats --json round-trips the per-tenant metering snapshot and
#     must report the 4-shard plane.
#
# Usage: tools/shard_smoke.sh [build-dir] (default: build)
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

# ---- 1. kill-one-shard drill ------------------------------------------------
timeout 60 "${cli}" generate --out "${workdir}/shard.log" --records 6000 --seed 4

fsck_out="$(timeout 60 "${cli}" fsck --in "${workdir}/shard.log" --meta-shards 4 \
  --nodes 8 --workdir "${workdir}/plane")"
echo "${fsck_out}"
for want in "4 metadata shards" "other shard(s) still serving" \
            "recovered shard digest matches" "plane fsck:"; do
  if ! grep -q "${want}" <<< "${fsck_out}"; then
    echo "FAIL: fsck --meta-shards output missing '${want}'"; exit 1
  fi
done
echo "OK  kill-one-shard drill (4 shards, recover from image+journal)"

fsck_out="$(timeout 60 "${cli}" fsck --in "${workdir}/shard.log" \
  --workdir "${workdir}/namenode")"
echo "${fsck_out}"
for want in "fsck after healing: 0 missing, 0 under-replicated" \
            "recovered namespace digest matches"; do
  if ! grep -q "${want}" <<< "${fsck_out}"; then
    echo "FAIL: fsck output missing '${want}'"; exit 1
  fi
done
echo "OK  single-NameNode drill (monitor drain, checkpoint, crash/recover)"

# ---- 2. serving determinism across shard counts -----------------------------
port_file="${workdir}/port"
"${daemon}" --port-file "${port_file}" --workers 2 --meta-shards 4 \
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
echo "datanetd up on port ${port} (4 metadata shards)"

extract() { sed -n "s/.*$1=\([0-9]*\).*/\1/p" <<< "$2"; }

for key in movie_00000 movie_00001; do
  served="$(timeout 60 "${cli}" query --port "${port}" --tenant smoke --key "${key}")"
  golden="$(timeout 60 "${cli}" query --key "${key}" --local)"
  sd="$(extract digest "${served}")"
  gd="$(extract digest "${golden}")"
  if [[ -z "${sd}" || "${sd}" != "${gd}" ]]; then
    echo "FAIL: digest mismatch at 4 shards key=${key}:" \
         "served=${sd:-none} golden=${gd:-none}"
    exit 1
  fi
  echo "OK  ${key} digest=${sd} (4-shard plane == golden)"
done

# ---- 3. per-tenant metering snapshot ----------------------------------------
stats="$(timeout 60 "${cli}" query --port "${port}" --stats --json)"
echo "${stats}"
for want in '"meta_shards": 4' '"tenant": "smoke"' '"queue_wait_micros"'; do
  if ! grep -qF "${want}" <<< "${stats}"; then
    echo "FAIL: stats missing ${want}"; exit 1
  fi
done
echo "OK  stats report 4 shards and tenant metering"

timeout 60 "${cli}" query --port "${port}" --shutdown
for _ in $(seq 1 100); do
  kill -0 "${daemon_pid}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${daemon_pid}" 2>/dev/null; then
  echo "FAIL: daemon still running after wire shutdown"; exit 1
fi
daemon_pid=""
echo "shard smoke PASS"
