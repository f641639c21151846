#!/usr/bin/env bash
# Smoke of the fsck drill, end to end through datanet_cli. One drill runs at
# any metadata shard count: spread a dataset over part files so every shard
# owns one, checkpoint each shard beside an empty journal, damage one shard
# and heal it through the ReplicationMonitor, leave an open block in flight,
# crash that shard while the others keep serving, recover it from its own
# FsImage + EditLog suffix, digest-check and audit it, and finish with a
# clean plane-wide fsck (non-zero exit on any failure). It runs here at 4
# shards on 8 nodes and at 1 shard (the single-NameNode case) on 16.
#
# Usage: tools/shard_smoke.sh [build-dir] (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/${1:-build}"
cli="${build_dir}/tools/datanet_cli"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

timeout 60 "${cli}" generate --out "${workdir}/shard.log" --records 6000 --seed 4

for run in "4 8" "1 16"; do
  read -r shards nodes <<< "${run}"
  fsck_out="$(timeout 60 "${cli}" fsck --in "${workdir}/shard.log" \
    --meta-shards "${shards}" --nodes "${nodes}" \
    --workdir "${workdir}/plane${shards}")"
  echo "${fsck_out}"
  for want in "fsck after healing: 0 missing, 0 under-replicated" \
              "other shard(s) still serving" \
              "recovered shard digest matches" \
              "journaled extents match stored bytes" "plane fsck:"; do
    if ! grep -qF "${want}" <<< "${fsck_out}"; then
      echo "FAIL: fsck --meta-shards ${shards} output missing '${want}'"; exit 1
    fi
  done
  echo "OK  fsck drill at ${shards} shard(s): heal, crash, recover, audit"
done
echo "shard smoke PASS"
