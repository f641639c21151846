// chaos_drill — the wire-chaos acceptance drill for datanetd (DESIGN.md §8).
//
// Stands up a real Server on loopback, parks a seeded ChaosProxy in front of
// it, and pushes queries through a ResilientClient while the proxy injects
// resets, mid-frame truncations, stalls, and dribbled replies. Midway, the
// drill crashes the metadata shard owning the hosted dataset to force
// degraded-mode serving, then recovers it.
//
// The contract under test: EVERY query ends in exactly one of
//   * a golden reply   — digest equal to the pre-chaos baseline,
//   * a degraded reply — same golden digest, degraded flag set, and
//                        stale_bytes == 0 (nothing is ingested during the
//                        drill, so the cached bundle covers every block),
//   * a typed error    — kRejected/kError result or RetriesExhaustedError,
// and the drill itself terminates. Never a wrong digest, never a hang,
// never a crash (tools/chaos_smoke.sh runs this under `timeout` and ASan).
//
// Deterministic: the fault schedule is a pure function of --seed (one fresh
// connection per attempt, faults drawn per connection in accept order), and
// retry backoff jitter is seeded from the same value.
//
// Usage: chaos_drill [--queries N] [--seed S] [--verbose]

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "server/chaos_proxy.hpp"
#include "server/client.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"

namespace srv = datanet::server;

namespace {

struct Tally {
  std::uint64_t golden = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t attempts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t timeouts = 0;
  [[nodiscard]] std::uint64_t total() const {
    return golden + degraded + rejected + errors + exhausted;
  }
};

srv::QueryRequest drill_query(const std::string& key) {
  srv::QueryRequest q;
  q.tenant = "chaos";
  q.key = key;
  q.deadline_ms = 5'000;  // generous: exercises the wire field, sheds nothing
  return q;
}

// One query through the proxy on a FRESH ResilientClient (so every attempt
// is a new proxied connection and draws its own fault). Returns false on a
// contract violation (wrong digest, or a degraded reply whose stale-byte
// bound is not 0); everything else is a counted outcome.
bool run_one(std::uint16_t proxy_port, const srv::RetryPolicy& policy,
             const std::string& key, std::uint64_t golden_digest,
             bool expect_degraded_ok, Tally& tally, bool verbose) {
  srv::ResilientClient client(proxy_port, policy);
  const char* outcome = nullptr;
  bool pass = true;
  try {
    const srv::ClientResult r = client.query(drill_query(key));
    switch (r.status) {
      case srv::ClientResult::Status::kOk:
        if (r.reply.digest != golden_digest) {
          std::fprintf(stderr,
                       "FAIL key=%s digest=%016llx want=%016llx degraded=%d\n",
                       key.c_str(),
                       static_cast<unsigned long long>(r.reply.digest),
                       static_cast<unsigned long long>(golden_digest),
                       static_cast<int>(r.reply.degraded));
          pass = false;
          outcome = "WRONG-DIGEST";
        } else if (r.reply.degraded && r.reply.stale_bytes != 0) {
          // No block is sealed during the drill, so the cached bundle
          // covers the whole file: any other bound is a wrong bound.
          std::fprintf(stderr, "FAIL key=%s degraded stale_bytes=%llu want 0\n",
                       key.c_str(),
                       static_cast<unsigned long long>(r.reply.stale_bytes));
          pass = false;
          outcome = "WRONG-BOUND";
        } else if (r.reply.degraded) {
          // Degraded replies are only acceptable while the drill has the
          // shard down; a degraded reply in a healthy phase would mean the
          // server lies about its own state.
          pass = expect_degraded_ok;
          ++tally.degraded;
          outcome = pass ? "degraded-golden" : "UNEXPECTED-DEGRADED";
        } else {
          ++tally.golden;
          outcome = "golden";
        }
        break;
      case srv::ClientResult::Status::kRejected:
        ++tally.rejected;
        outcome = "typed-rejection";
        break;
      case srv::ClientResult::Status::kError:
        ++tally.errors;
        outcome = "typed-error";
        break;
    }
  } catch (const srv::RetriesExhaustedError& e) {
    ++tally.exhausted;
    outcome = "retries-exhausted";
    if (verbose) std::fprintf(stderr, "  (%s)\n", e.what());
  }
  const auto& rs = client.retry_stats();
  tally.attempts += rs.attempts;
  tally.reconnects += rs.reconnects;
  tally.timeouts += rs.timeouts;
  if (verbose) std::fprintf(stderr, "  key=%s -> %s\n", key.c_str(), outcome);
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t queries = 60;
  std::uint64_t seed = 9;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "--queries") {
      queries = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_drill [--queries N] [--seed S] [--verbose]\n");
      return 64;
    }
  }

  srv::ServerOptions opts;
  opts.cfg.num_nodes = 16;
  opts.cfg.block_size = 64 * 1024;
  opts.cfg.seed = 42;
  opts.dataset_blocks = 32;
  opts.workers = 2;
  opts.io_timeout_ms = 2'000;  // slowloris guard: stalled writes get dropped
  srv::Server server(opts);
  // crash/recover drills need per-shard journals (FsImage + EditLog).
  const auto journal_dir =
      std::filesystem::temp_directory_path() /
      ("datanet_chaos_drill_" + std::to_string(::getpid()));
  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);
  server.plane().attach_journals(journal_dir.string());
  server.start();

  srv::ChaosPlan plan;
  plan.seed = seed;
  plan.stall_ms = 1'500;  // longer than the client timeout: stalls MUST trip
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  srv::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 2;
  policy.max_backoff_ms = 20;
  policy.timeout_ms = 500;
  policy.seed = seed;

  // Pin golden digests straight from the server (no proxy, no chaos) — the
  // baseline every chaotic reply is checked against.
  const auto& keys = server.dataset().hot_keys;
  std::vector<std::uint64_t> golden(keys.size());
  {
    srv::Client direct(server.port(), 5'000);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto r = direct.query(drill_query(keys[k]));
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: baseline query failed: %s\n",
                     r.error.c_str());
        return 1;
      }
      golden[k] = r.reply.digest;
    }
  }

  // Three phases: healthy chaos, shard-down chaos (degraded allowed), and
  // recovered chaos (degraded forbidden again).
  const std::uint64_t down_from = queries / 3;
  const std::uint64_t up_from = (2 * queries) / 3;
  const std::uint32_t shard = server.plane().shard_of(server.dataset().path);
  Tally tally;
  bool pass = true;
  for (std::uint64_t i = 0; i < queries; ++i) {
    if (i == down_from) {
      std::fprintf(stderr, "-- crashing metadata shard %u --\n", shard);
      server.plane().crash_shard(shard);
    }
    if (i == up_from) {
      std::fprintf(stderr, "-- recovering metadata shard %u --\n", shard);
      (void)server.plane().recover_shard(shard);
    }
    const bool shard_down = i >= down_from && i < up_from;
    srv::RetryPolicy p = policy;
    p.seed = seed ^ (i + 1);  // distinct jitter stream per query
    pass &= run_one(proxy.port(), p, keys[i % keys.size()],
                    golden[i % keys.size()], shard_down, tally, verbose);
  }

  const auto ps = proxy.stats();
  proxy.stop();
  server.stop();
  std::filesystem::remove_all(journal_dir);

  std::printf(
      "chaos_drill queries=%llu golden=%llu degraded=%llu rejected=%llu "
      "errors=%llu exhausted=%llu\n",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(tally.golden),
      static_cast<unsigned long long>(tally.degraded),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.errors),
      static_cast<unsigned long long>(tally.exhausted));
  std::printf(
      "transport attempts=%llu reconnects=%llu timeouts=%llu | proxy "
      "connections=%llu clean=%llu reset=%llu truncate=%llu stall=%llu "
      "split=%llu\n",
      static_cast<unsigned long long>(tally.attempts),
      static_cast<unsigned long long>(tally.reconnects),
      static_cast<unsigned long long>(tally.timeouts),
      static_cast<unsigned long long>(ps.connections),
      static_cast<unsigned long long>(ps.clean),
      static_cast<unsigned long long>(ps.resets),
      static_cast<unsigned long long>(ps.truncations),
      static_cast<unsigned long long>(ps.stalls),
      static_cast<unsigned long long>(ps.splits));

  if (tally.total() != queries) {
    std::fprintf(stderr, "FAIL: %llu outcomes for %llu queries\n",
                 static_cast<unsigned long long>(tally.total()),
                 static_cast<unsigned long long>(queries));
    return 1;
  }
  if (tally.golden == 0) {
    std::fprintf(stderr, "FAIL: no query ever reached a golden reply\n");
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr, "chaos drill FAIL\n");
    return 1;
  }
  std::printf("chaos drill PASS\n");
  return 0;
}
