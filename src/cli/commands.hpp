#pragma once
// The datanet CLI subcommands, implemented as library functions writing to a
// caller-supplied stream (testable without spawning processes).
//
//   generate  — synthesize a movie/github/worldcup log file
//   inspect   — per-sub-dataset statistics, concentration metrics, and a
//               Gamma model fit of a log file
//   analyze   — ingest a log file into the simulated cluster and run one of
//               the analysis jobs over a sub-dataset, DataNet vs baseline
//   simulate  — event-driven selection timing on configurable hardware
//   faults    — selection under an injected fault plan (kills, stalls,
//               transient read errors) with the attempt/timeout report
//   fsck      — metadata durability drill over --meta-shards S shards
//               (default 1): a checkpoint + journal per shard, a fault plan
//               on one shard, its under-replication table and healing queue
//               before/after a ReplicationMonitor drain, and a crash/recover
//               round-trip of that shard verified by namespace digest while
//               the others serve (including an open block left in flight,
//               audited against the journal), then a plane-wide fsck
//   ingest    — streaming-ingestion drill: group-committed appends through
//               dfs::Ingestor with live ElasticMap maintenance, a seeded
//               mid-stream crash, recovery from checkpoint + journal, and a
//               continued run whose content and estimates must match a
//               never-crashed reference (exits non-zero otherwise)
//   forecast  — Section II-B imbalance forecast fitted from a log file
//   serve     — run datanetd: the always-on multi-tenant selection service
//               over a deterministic hosted dataset (loopback TCP)
//   query     — datanetd client: submit selection queries, verify digests
//               in-process with --local, or stop a daemon with --shutdown

#include <ostream>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace datanet::cli {

// Each returns a process exit code (0 = success) and writes human-readable
// output (or an error explanation) to `out`.
int cmd_generate(const Args& args, std::ostream& out);
int cmd_inspect(const Args& args, std::ostream& out);
int cmd_analyze(const Args& args, std::ostream& out);
int cmd_simulate(const Args& args, std::ostream& out);
int cmd_faults(const Args& args, std::ostream& out);
int cmd_fsck(const Args& args, std::ostream& out);
int cmd_ingest(const Args& args, std::ostream& out);
int cmd_forecast(const Args& args, std::ostream& out);
int cmd_serve(const Args& args, std::ostream& out);
int cmd_query(const Args& args, std::ostream& out);

// Dispatch "generate|inspect|analyze --flags..." and handle help/unknown
// commands. `argv` excludes the program name.
int run_cli(const std::vector<std::string>& argv, std::ostream& out);

// Usage text for --help and error paths.
[[nodiscard]] std::string usage();

}  // namespace datanet::cli
