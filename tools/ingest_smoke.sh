#!/usr/bin/env bash
# Streaming-ingestion smoke: run the `datanet ingest` crash drill (see
# src/cli/commands.cpp cmd_ingest) across several seeded kill points. Each
# run streams a generated log through dfs::Ingestor with group commit while
# the serving cache (server::DatasetCache) delta-applies every sealed block
# into the ElasticMap, copies the journal at the kill instant, recovers
# from checkpoint + journal, audits the open block against its journaled
# length, continues the stream, and exits non-zero unless content, block
# boundaries, and per-key estimates all match a never-crashed reference.
# The script just varies the kill seed (so one lucky crash point can't hide a
# regression) and insists the chi ledger is actually printed — a drill that
# silently skipped the accuracy accounting would otherwise still pass.
#
# Usage: tools/ingest_smoke.sh [build-dir] (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/${1:-build}"
cli="${build_dir}/tools/datanet_cli"

[[ -x "${cli}" ]] || { echo "FAIL: ${cli} not built"; exit 1; }

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

for kill_seed in 1 7 42; do
  echo "== ingest drill kill-seed=${kill_seed} =="
  log="${workdir}/drill_${kill_seed}.log"
  timeout 120 "${cli}" ingest --records 12000 --group 64 \
    --kill-seed "${kill_seed}" --workdir "${workdir}/run_${kill_seed}" \
    | tee "${log}" || {
    rc=$?
    if [[ "${rc}" -eq 124 ]]; then
      echo "FAIL: ingest drill HUNG (kill-seed=${kill_seed})"
    else
      echo "FAIL: ingest drill exit=${rc} (kill-seed=${kill_seed})"
    fi
    exit 1
  }
  grep -q "ingestion drill passed" "${log}" || {
    echo "FAIL: no pass line (kill-seed=${kill_seed})"; exit 1;
  }
  grep -q "chi ledger" "${log}" || {
    echo "FAIL: chi ledger not printed (kill-seed=${kill_seed})"; exit 1;
  }
  grep -q "open-block audit" "${log}" || {
    echo "FAIL: open-block audit not printed (kill-seed=${kill_seed})"; exit 1;
  }
done
echo "ingest smoke PASS"
