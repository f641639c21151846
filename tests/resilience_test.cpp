// Chaos-hardened serving (PR 9): per-tenant circuit breaker determinism,
// deadline shedding, slowloris connection drops, retrying-client backoff and
// typed exhaustion, hostile-server reply hardening, seeded ChaosProxy fault
// injection (reset / truncate / stall / split), and degraded-mode serving —
// answering from the epoch-cached bundle while the owning metadata shard is
// down, with the digest still golden and the reply's stale_bytes bounding
// what the bundle misses. Run under ASan by
// `tools/sanitize_tests.sh address`.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "datanet/experiment.hpp"
#include "dfs/ingest.hpp"
#include "dfs/meta_plane.hpp"
#include "elasticmap/elastic_map.hpp"
#include "server/chaos_proxy.hpp"
#include "server/client.hpp"
#include "server/dataset_cache.hpp"
#include "server/dispatcher.hpp"
#include "server/protocol.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"
#include "server/socket_io.hpp"
#include "workload/dataset.hpp"
#include "workload/record.hpp"

namespace dc = datanet::core;
namespace dfs = datanet::dfs;
namespace srv = datanet::server;
namespace dw = datanet::workload;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("datanet_resilience_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path() const { return dir.string(); }
};

srv::ServerOptions small_server() {
  srv::ServerOptions opts;
  opts.cfg.num_nodes = 16;
  opts.cfg.block_size = 64 * 1024;
  opts.cfg.seed = 42;
  opts.dataset_blocks = 32;
  opts.workers = 2;
  return opts;
}

srv::QueryRequest query_for(const std::string& tenant,
                            const std::string& key) {
  srv::QueryRequest q;
  q.tenant = tenant;
  q.key = key;
  return q;
}

}  // namespace

// ---- circuit breaker (clock-free, pure function of the outcome stream) ----

TEST(CircuitBreaker, OpensAtThresholdAndProbesDeterministically) {
  srv::BreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.probe_interval = 4;
  srv::FairDispatcher d({.max_queue = 64, .max_inflight = 64}, breaker);

  auto pump_one = [&](bool success) {
    std::uint64_t ticket = 0;
    ASSERT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kAccepted);
    ASSERT_TRUE(d.try_next().has_value());
    d.record_outcome("t", success);
    d.complete("t");
  };

  pump_one(false);
  pump_one(false);
  EXPECT_FALSE(d.breaker_open("t"));  // 2 < threshold
  pump_one(true);                     // success resets the streak
  pump_one(false);
  pump_one(false);
  pump_one(false);  // 3rd consecutive failure trips it
  EXPECT_TRUE(d.breaker_open("t"));

  // While open: every probe_interval-th blocked submit is admitted as a
  // half-open probe; the rest shed typed. Deterministic — no clocks.
  std::uint64_t ticket = 0;
  EXPECT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kCircuitOpen);
  EXPECT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kCircuitOpen);
  EXPECT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kCircuitOpen);
  EXPECT_EQ(d.submit("t", &ticket),
            srv::SubmitStatus::kAccepted);  // the probe
  ASSERT_TRUE(d.try_next().has_value());
  d.record_outcome("t", true);  // probe succeeds -> breaker closes
  d.complete("t");
  EXPECT_FALSE(d.breaker_open("t"));
  EXPECT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kAccepted);

  const srv::TenantStats ts = d.tenant_stats("t");
  EXPECT_EQ(ts.rejected_circuit, 3u);

  // A failed probe keeps it open.
  ASSERT_TRUE(d.try_next().has_value());
  d.record_outcome("t", false);
  d.record_outcome("t", false);
  d.record_outcome("t", false);
  d.complete("t");
  EXPECT_TRUE(d.breaker_open("t"));
  EXPECT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kCircuitOpen);
}

TEST(CircuitBreaker, DisabledByDefaultNeverTrips) {
  srv::FairDispatcher d;  // failure_threshold 0 = off
  std::uint64_t ticket = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(d.submit("t", &ticket), srv::SubmitStatus::kAccepted);
    ASSERT_TRUE(d.try_next().has_value());
    d.record_outcome("t", false);
    d.complete("t");
  }
  EXPECT_FALSE(d.breaker_open("t"));
}

// ---- retry backoff (pure schedule, no sleeping) ----

TEST(RetryBackoff, BoundedExponentialWithEqualJitter) {
  srv::RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 80;
  // cap(k) = min(80, 10 << k): 10, 20, 40, 80, 80...; the jittered wait
  // always lands in (cap/2, cap].
  for (std::uint32_t k = 0; k < 8; ++k) {
    const std::uint32_t cap = std::min<std::uint32_t>(80, 10u << k);
    for (const std::uint64_t bits : {0ull, 1ull, 17ull, 0xffffffffull}) {
      const std::uint32_t ms = srv::backoff_ms(p, k, bits);
      EXPECT_GE(ms, cap / 2) << "k=" << k;
      EXPECT_LE(ms, cap) << "k=" << k;
    }
  }
  // Deterministic: same inputs, same wait.
  EXPECT_EQ(srv::backoff_ms(p, 3, 12345), srv::backoff_ms(p, 3, 12345));
  // Retry index far past 32 must not overflow the shift.
  EXPECT_EQ(srv::backoff_ms(p, 40, 0), 40u);
}

// ---- slowloris defense ----

TEST(ServerResilience, SlowlorisConnectionIsDroppedNotWedged) {
  srv::ServerOptions opts = small_server();
  opts.io_timeout_ms = 100;  // short so the test is fast
  srv::Server server(opts);
  server.start();

  // A half-open attacker: send ONE header byte, then stall forever.
  srv::Fd attacker = srv::connect_loopback(server.port());
  srv::write_all(attacker, "D");
  // The server must drop the connection after ~io_timeout_ms: we observe the
  // FIN as EOF/reset on our side within a bounded wait (3 s >> 100 ms).
  EXPECT_THROW(
      {
        const auto got = srv::read_exact(attacker, 1, 3'000);
        if (!got.has_value()) throw srv::SocketError("clean EOF");
      },
      srv::SocketError);

  // The handler thread was released, not wedged: a well-behaved client on a
  // fresh connection still gets served.
  srv::Client client(server.port(), 3'000);
  const auto result = client.query(
      query_for("alice", server.dataset().hot_keys.front()));
  EXPECT_TRUE(result.ok());
  server.stop();
}

// ---- hostile server replies (client hardening satellite) ----

namespace {

// A fake "server" that accepts one connection, reads one request frame, and
// answers with whatever hostile bytes the test chooses.
void hostile_reply_once(const srv::Fd& listener, const std::string& reply) {
  auto conn = srv::accept_client(listener);
  ASSERT_TRUE(conn.has_value());
  const auto header = srv::read_exact(*conn, srv::kFrameHeaderBytes);
  ASSERT_TRUE(header.has_value());
  const srv::FrameHeader h = srv::decode_frame_header(*header);
  ASSERT_TRUE(srv::read_exact(*conn, h.payload_len).has_value());
  srv::write_all(*conn, reply);
}

std::string u32le(std::uint32_t v) {
  std::string s(4, '\0');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return s;
}

}  // namespace

TEST(ClientHardening, MaliciousReplyHeadersAreTypedErrors) {
  struct Case {
    const char* name;
    std::string reply;
  };
  const std::string good = srv::frame(srv::encode_error("x"));
  std::string bad_crc = good;
  bad_crc[8] = static_cast<char>(bad_crc[8] ^ 0x5a);  // flip a CRC byte
  const std::vector<Case> cases = {
      // Wrong magic: not our protocol, refuse before trusting the length.
      {"bad_magic", u32le(0xdeadbeef) + u32le(4) + u32le(0) + "oops"},
      // Attacker-sized length: must be rejected BEFORE allocating/reading
      // 256 MiB that will never come.
      {"huge_len", u32le(srv::kFrameMagic) + u32le(256u << 20) + u32le(0)},
      // Valid header, corrupt payload: CRC catches it.
      {"bad_crc", bad_crc},
      // Valid frame of the WRONG message type for a query.
      {"wrong_type", srv::frame(srv::encode_shutdown_ok())},
  };
  for (const Case& c : cases) {
    auto [listener, port] = srv::listen_loopback(0);
    std::thread fake([&] { hostile_reply_once(listener, c.reply); });
    srv::Client client(port, 2'000);
    EXPECT_THROW((void)client.query(query_for("t", "k")), srv::ProtocolError)
        << c.name;
    fake.join();
  }
}

// ---- ResilientClient over a chaotic wire ----

TEST(ResilientClient, RetriesConnectionResetsToGoldenDigest) {
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  // Reset, reset, clean, ... deterministic per connection index.
  srv::ChaosPlan plan;
  plan.seed = 7;
  plan.weight_clean = 1;
  plan.weight_reset = 2;
  plan.weight_truncate = 0;
  plan.weight_stall = 0;
  plan.weight_split = 0;
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  srv::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  retry.timeout_ms = 2'000;
  srv::ResilientClient client(proxy.port(), retry);
  const srv::QueryRequest q =
      query_for("alice", server.dataset().hot_keys.front());
  const auto golden = srv::local_query(opts, q);
  ASSERT_TRUE(golden.ok);

  // 10 attempts vs ~2/3 reset probability: the chance all 10 connections
  // are resets under seed 7 is zero (the schedule is deterministic; we
  // simply assert the retry loop reaches a clean connection).
  const auto result = client.query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.reply.digest, golden.reply.digest);
  EXPECT_FALSE(result.reply.degraded);
  EXPECT_GE(client.retry_stats().attempts, 1u);

  proxy.stop();
  server.stop();
}

TEST(ResilientClient, SplitWritesAreSlowNotWrong) {
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  srv::ChaosPlan plan;
  plan.weight_clean = 0;
  plan.weight_reset = 0;
  plan.weight_truncate = 0;
  plan.weight_stall = 0;
  plan.weight_split = 1;  // every connection dribbles
  plan.split_bytes = 3;
  plan.delay_ms = 1;
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  srv::RetryPolicy retry;
  retry.timeout_ms = 2'000;  // idle timeout: each dribble resets the clock
  srv::ResilientClient client(proxy.port(), retry);
  const srv::QueryRequest q =
      query_for("alice", server.dataset().hot_keys.front());
  const auto golden = srv::local_query(opts, q);
  const auto result = client.query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.reply.digest, golden.reply.digest);
  // No retries were needed: pathological pacing is not a failure.
  EXPECT_EQ(client.retry_stats().attempts, 1u);
  proxy.stop();
  server.stop();
}

TEST(ResilientClient, ExhaustionIsTypedNeverAHang) {
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  srv::ChaosPlan plan;
  plan.weight_clean = 0;
  plan.weight_reset = 0;
  plan.weight_truncate = 1;  // every reply torn mid-frame
  plan.weight_stall = 0;
  plan.weight_split = 0;
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  srv::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  retry.timeout_ms = 1'000;
  srv::ResilientClient client(proxy.port(), retry);
  try {
    (void)client.query(query_for("alice", server.dataset().hot_keys.front()));
    FAIL() << "expected RetriesExhaustedError";
  } catch (const srv::RetriesExhaustedError& e) {
    EXPECT_EQ(e.attempts, 3u);
    EXPECT_FALSE(e.last_error.empty());
  }
  EXPECT_EQ(client.retry_stats().attempts, 3u);
  EXPECT_EQ(client.retry_stats().reconnects, 2u);
  proxy.stop();
  server.stop();
}

TEST(ResilientClient, StallTripsIdleTimeoutAndCountsIt) {
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  srv::ChaosPlan plan;
  plan.weight_clean = 0;
  plan.weight_reset = 0;
  plan.weight_truncate = 0;
  plan.weight_stall = 1;
  plan.weight_split = 0;
  plan.stall_ms = 5'000;  // far beyond the client deadline
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  srv::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  retry.timeout_ms = 100;  // the only thing standing between us and a hang
  srv::ResilientClient client(proxy.port(), retry);
  EXPECT_THROW(
      (void)client.query(query_for("alice", server.dataset().hot_keys.front())),
      srv::RetriesExhaustedError);
  EXPECT_EQ(client.retry_stats().timeouts, 2u);
  proxy.stop();
  server.stop();
}

TEST(ChaosProxy, FaultScheduleIsPureFunctionOfSeed) {
  srv::ChaosPlan plan;
  plan.seed = 123;
  srv::ChaosProxy a(1, plan);  // never started: mode_of needs no socket
  srv::ChaosProxy b(1, plan);
  bool modes_seen[5] = {};
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(a.mode_of(k), b.mode_of(k));
    modes_seen[static_cast<std::uint8_t>(a.mode_of(k))] = true;
  }
  // With equal weights, 64 draws cover every mode. kCorrupt is opt-in
  // (weight 0 by default) precisely so this schedule is unchanged from the
  // five-mode plans older drills were seeded with.
  for (const bool seen : modes_seen) EXPECT_TRUE(seen);

  srv::ChaosPlan with_corrupt = plan;
  with_corrupt.weight_corrupt = 5;
  srv::ChaosProxy c(1, with_corrupt);
  bool corrupt_drawn = false;
  for (std::uint64_t k = 0; k < 64; ++k) {
    corrupt_drawn |= c.mode_of(k) == srv::FaultMode::kCorrupt;
  }
  EXPECT_TRUE(corrupt_drawn);
}

// ---- mid-connection byte corruption (PR 10 satellite) ----

TEST(ChaosProxy, CorruptedRequestIsTypedBadRequestNeverAWrongAnswer) {
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  srv::ChaosPlan plan;
  plan.seed = 99;
  plan.weight_clean = 0;
  plan.weight_reset = 0;
  plan.weight_truncate = 0;
  plan.weight_stall = 0;
  plan.weight_split = 0;
  plan.weight_corrupt = 1;  // every connection flips one request payload bit
  srv::ChaosProxy proxy(server.port(), plan);
  proxy.start();

  // Different connection indices flip different seeded bits; whatever the
  // bit, the server's frame CRC must catch it — a typed bad_request and a
  // dropped connection. A computed (wrong) answer is the forbidden outcome.
  for (int i = 0; i < 8; ++i) {
    srv::Client client(proxy.port(), 2'000);
    const auto result =
        client.query(query_for("alice", server.dataset().hot_keys.front()));
    ASSERT_EQ(result.status, srv::ClientResult::Status::kRejected) << i;
    EXPECT_EQ(result.rejection.reason, srv::RejectReason::kBadRequest) << i;
    EXPECT_THROW(
        (void)client.query(query_for("alice", "k")), srv::SocketError)
        << "connection " << i << " survived a corrupted frame";
  }
  EXPECT_EQ(proxy.stats().corruptions, 8u);
  EXPECT_EQ(server.queries_served(), 0u);
  proxy.stop();
  server.stop();
}

// ---- deadline shedding ----

TEST(ServerResilience, StaleQueuedWorkIsShedTyped) {
  srv::ServerOptions opts = small_server();
  opts.workers = 1;  // one execution slot, so queues actually build
  srv::Server server(opts);
  server.start();
  const std::string key = server.dataset().hot_keys.front();

  // 8 concurrent clients, every query with a 1 ms budget: behind a single
  // execution slot whose service time is ~1 ms, most of the queue ages out. Every
  // reply must be either ok or a typed deadline rejection — and the server's
  // shed counter must match exactly.
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      srv::Client client(server.port(), 5'000);
      srv::QueryRequest q = query_for("alice", key);
      q.deadline_ms = 1;
      const auto result = client.query(q);
      if (result.ok()) {
        ++ok;
      } else {
        EXPECT_EQ(result.status, srv::ClientResult::Status::kRejected);
        EXPECT_EQ(result.rejection.reason,
                  srv::RejectReason::kDeadlineExceeded);
        ++shed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok + shed, kClients);
  EXPECT_EQ(server.deadline_shed(), static_cast<std::uint64_t>(shed));
  EXPECT_EQ(server.queries_served(), static_cast<std::uint64_t>(ok));
  server.stop();
}

// ---- degraded-mode serving ----

TEST(ServerResilience, ServesDegradedFromCachedBundleWhileShardDown) {
  TempDir tmp;
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.plane().attach_journals(tmp.path());
  server.start();
  const srv::QueryRequest q =
      query_for("alice", server.dataset().hot_keys.front());
  srv::Client client(server.port(), 5'000);

  // Warm the cache, pin the healthy digest.
  const auto before = client.query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.reply.degraded);
  EXPECT_EQ(before.reply.stale_bytes, 0u);

  // NameNode down, DataNodes up: the owning shard refuses routed access but
  // the block bytes and the cached bundle survive.
  const std::uint32_t shard = server.plane().shard_of(server.dataset().path);
  server.plane().crash_shard(shard);
  const auto during = client.query(q);
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during.reply.degraded);
  // Degraded is stale-tolerant, not wrong: nothing was appended, so the
  // bundle covers every block, the digest is still golden and the reply's
  // error bound is exactly zero.
  EXPECT_EQ(during.reply.digest, before.reply.digest);
  EXPECT_EQ(during.reply.stale_bytes, 0u);
  EXPECT_EQ(server.degraded_served(), 1u);

  // Recovery restores normal (non-degraded) service.
  (void)server.plane().recover_shard(shard);
  const auto after = client.query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.reply.degraded);
  EXPECT_EQ(after.reply.digest, before.reply.digest);
  server.stop();
}

TEST(ServerResilience, DegradedReplyBoundsWhatUnseenSealsAdd) {
  // Warm the cache, then grow the served file by N >= 2 sealed blocks the
  // cache never sees, then crash the owning shard. The degraded reply is
  // computed from the stale bundle, so it misses the hot key's records in
  // the new blocks; stale_bytes must be exactly the new blocks' bytes and
  // must bound both that miss and every key's estimate shortfall.
  TempDir tmp;
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.plane().attach_journals(tmp.path());
  server.start();
  const std::string& path = server.dataset().path;
  const std::string key = server.dataset().hot_keys.front();
  srv::Client client(server.port(), 5'000);
  ASSERT_TRUE(client.query(query_for("alice", key)).ok());
  const auto stale = server.cache().get_stale(path);
  ASSERT_NE(stale, nullptr);

  dfs::MiniDfs& mini = server.plane().dfs_for(path);
  const std::size_t covered = mini.blocks_of(path).size();
  ASSERT_EQ(stale->meta().num_blocks(), covered);
  {
    // Every third record is the hot key, so each new block holds some.
    dfs::Ingestor ing(mini, path);
    const std::string payload(200, 'p');
    for (std::uint64_t i = 0; i < 3 * opts.cfg.block_size / 200; ++i) {
      ing.append(dw::encode_record(
          {.timestamp = i,
           .key = i % 3 == 0 ? key : "appended_" + std::to_string(i % 7),
           .payload = payload}));
    }
  }
  const auto& blocks = mini.blocks_of(path);
  ASSERT_GE(blocks.size(), covered + 2);
  std::uint64_t sealed_bytes = 0;
  for (std::size_t i = covered; i < blocks.size(); ++i) {
    sealed_bytes += mini.block(blocks[i]).size_bytes;
  }
  const dw::GroundTruth truth(mini, path);
  const auto fresh = datanet::elasticmap::ElasticMapArray::build(
      mini, path, stale->meta().options());

  server.plane().crash_shard(server.plane().shard_of(path));
  const auto during = client.query(query_for("alice", key));
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during.reply.degraded);
  EXPECT_EQ(during.reply.stale_bytes, sealed_bytes);
  const std::uint64_t want = truth.total_size(dw::subdataset_id(key));
  ASSERT_GT(want, during.reply.matched_bytes);
  EXPECT_LE(want - during.reply.matched_bytes, during.reply.stale_bytes);
  for (const dw::SubDatasetId id : truth.ids_by_size()) {
    const std::uint64_t now = fresh.estimate_total_size(id);
    const std::uint64_t then = stale->meta().estimate_total_size(id);
    ASSERT_GE(now, then) << id;
    EXPECT_LE(now - then, during.reply.stale_bytes) << id;
  }
  server.stop();
}

// The regression behind degraded serving: a DataNet bundle resolves replica
// placements through the MiniDfs it was built from, and recover_shard swaps
// that instance out. The cache must (a) never revalidate an entry against a
// DIFFERENT instance — epochs only order mutations within one — and (b) hand
// out bundles that keep their source instance alive, so a degraded query
// still holding the pre-crash bundle after the swap (and even after the
// entry is rebuilt) never touches freed memory. ASan-verified via
// `tools/sanitize_tests.sh address`.
TEST(DatasetCacheLifetime, RecoveredShardRebuildsWhileStaleBundleStaysAlive) {
  TempDir tmp;
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 16;
  cfg.block_size = 64 * 1024;
  cfg.seed = 42;
  dfs::MetaPlaneOptions popt;
  popt.num_shards = 1;
  popt.dfs = dc::make_dfs_options(cfg);
  dfs::MetaPlane plane(dfs::ClusterTopology::flat(cfg.num_nodes), popt);
  const std::string path = "/data/movies.log";
  const auto hot_keys =
      dc::ingest_movie_dataset(plane.dfs_for(path), path, cfg, 16);
  plane.attach_journals(tmp.path());

  srv::DatasetCache cache;
  const auto warm = cache.get(plane, path);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(cache.stats().rebuilds, 1u);

  plane.crash_shard(0);
  // Degraded reads hand back the same bundle, un-revalidated.
  EXPECT_EQ(cache.get_stale(path).get(), warm.get());
  (void)plane.recover_shard(0);

  // Post-recovery get() must REBUILD, not revalidate: the recovered shard
  // is a new instance even though the namespace (and possibly the epoch)
  // looks identical.
  const auto fresh = cache.get(plane, path);
  EXPECT_NE(fresh.get(), warm.get());
  EXPECT_EQ(cache.stats().rebuilds, 2u);
  EXPECT_EQ(cache.stats().revalidations, 0u);

  // The pre-crash bundle — entry long gone, shard swapped — still resolves
  // placements through its pinned source instance.
  const auto graph = warm->scheduling_graph(hot_keys.front());
  EXPECT_GT(graph.num_blocks(), 0u);
}

TEST(ServerResilience, ColdCacheShardDownIsTypedShardUnavailable) {
  TempDir tmp;
  srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.plane().attach_journals(tmp.path());
  server.start();
  srv::Client client(server.port(), 5'000);

  // Crash BEFORE any query: no epoch-validated bundle exists, so a metadata
  // query cannot be answered honestly — typed rejection, not a lie.
  server.plane().crash_shard(server.plane().shard_of(server.dataset().path));
  const auto result = client.query(
      query_for("alice", server.dataset().hot_keys.front()));
  ASSERT_EQ(result.status, srv::ClientResult::Status::kRejected);
  EXPECT_EQ(result.rejection.reason, srv::RejectReason::kShardUnavailable);

  // A baseline (metadata-blind) query needs no bundle: it degrades fine
  // even on a cold cache.
  srv::QueryRequest baseline =
      query_for("alice", server.dataset().hot_keys.front());
  baseline.use_datanet_meta = false;
  const auto degraded = client.query(baseline);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.reply.degraded);
  server.stop();
}

// ---- breaker end-to-end: typed rejection over the wire ----

TEST(ServerResilience, BreakerShedsOverTheWireAfterRepeatedFailures) {
  TempDir tmp;
  srv::ServerOptions opts = small_server();
  opts.breaker.failure_threshold = 3;
  opts.breaker.probe_interval = 4;
  srv::Server server(opts);
  server.plane().attach_journals(tmp.path());
  server.start();
  srv::Client client(server.port(), 5'000);
  const std::string key = server.dataset().hot_keys.front();

  // Cold cache + crashed shard: every metadata query fails shard-unavailable
  // (a breaker-counted failure) until the breaker opens.
  server.plane().crash_shard(server.plane().shard_of(server.dataset().path));
  for (int i = 0; i < 3; ++i) {
    const auto r = client.query(query_for("alice", key));
    ASSERT_EQ(r.status, srv::ClientResult::Status::kRejected);
    EXPECT_EQ(r.rejection.reason, srv::RejectReason::kShardUnavailable);
  }
  // Breaker now open: sheds at the door without taking an execution slot.
  const auto shed = client.query(query_for("alice", key));
  ASSERT_EQ(shed.status, srv::ClientResult::Status::kRejected);
  EXPECT_EQ(shed.rejection.reason, srv::RejectReason::kCircuitOpen);

  // Other tenants are unaffected — the breaker is per-tenant.
  srv::QueryRequest other = query_for("bob", key);
  other.use_datanet_meta = false;  // degrades fine; a SUCCESS for bob
  EXPECT_TRUE(client.query(other).ok());

  const srv::ServerStats stats = client.stats();
  EXPECT_GE(stats.circuit_rejected, 1u);
  server.stop();
}
