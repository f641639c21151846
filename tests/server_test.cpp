// datanetd coverage: wire-protocol round-trips and corruption handling,
// multi-tenant admission control with typed rejections, deficit-round-robin
// fairness (flooder vs trickler, weighted shares, deterministic dispatch
// order), DatasetCache epoch invalidation (hit / replica-churn revalidation
// / growth delta-apply), and the loopback end-to-end paths: served digests
// matching in-process golden runs, bad-request handling, admission
// rejections over the wire, graceful shutdown with drain, and queries
// racing live replica churn (the zero-copy pinned-read path under a
// concurrent mutator — run under ASan by `tools/sanitize_tests.sh address`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "datanet/experiment.hpp"
#include "elasticmap/elastic_map.hpp"
#include "server/client.hpp"
#include "server/dataset_cache.hpp"
#include "server/dispatcher.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket_io.hpp"

namespace dc = datanet::core;
namespace dfs = datanet::dfs;
namespace srv = datanet::server;

namespace {

// Small-but-real server shape shared by the end-to-end tests. 16 nodes and
// 32 blocks keep a full query around a millisecond.
srv::ServerOptions small_server() {
  srv::ServerOptions opts;
  opts.cfg.num_nodes = 16;
  opts.cfg.block_size = 64 * 1024;
  opts.cfg.seed = 42;
  opts.dataset_blocks = 32;
  opts.workers = 2;
  return opts;
}

srv::QueryRequest query_for(const std::string& tenant, const std::string& key,
                            const std::string& sched = "datanet") {
  srv::QueryRequest q;
  q.tenant = tenant;
  q.key = key;
  q.scheduler = sched;
  return q;
}

}  // namespace

// ---- protocol ----

TEST(ServerProtocol, QueryRoundTrip) {
  srv::QueryRequest q;
  q.tenant = "alice";
  q.key = "movie_00042";
  q.scheduler = "locality";
  q.use_datanet_meta = false;
  const std::string payload = srv::encode_query(q);
  EXPECT_EQ(srv::peek_type(payload), srv::MsgType::kQuery);
  const srv::QueryRequest back = srv::decode_query(payload);
  EXPECT_EQ(back.tenant, q.tenant);
  EXPECT_EQ(back.key, q.key);
  EXPECT_EQ(back.scheduler, q.scheduler);
  EXPECT_EQ(back.use_datanet_meta, q.use_datanet_meta);
}

TEST(ServerProtocol, ReplyAndRejectionRoundTrip) {
  srv::QueryReply r;
  r.digest = 0x1234567890abcdefull;
  r.matched_bytes = 77;
  r.blocks_scanned = 13;
  r.service_micros = 999;
  r.queue_micros = 5;
  r.degraded = true;
  r.staleness_micros = 123'456;
  const srv::QueryReply back = srv::decode_query_ok(srv::encode_query_ok(r));
  EXPECT_EQ(back.digest, r.digest);
  EXPECT_EQ(back.matched_bytes, r.matched_bytes);
  EXPECT_EQ(back.blocks_scanned, r.blocks_scanned);
  EXPECT_EQ(back.service_micros, r.service_micros);
  EXPECT_EQ(back.queue_micros, r.queue_micros);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.staleness_micros, 123'456u);

  const srv::Rejection rej = srv::decode_rejected(srv::encode_rejected(
      {srv::RejectReason::kQueueFull, "tenant queue is full"}));
  EXPECT_EQ(rej.reason, srv::RejectReason::kQueueFull);
  EXPECT_EQ(rej.detail, "tenant queue is full");

  EXPECT_EQ(srv::decode_error(srv::encode_error("boom")), "boom");
  EXPECT_EQ(srv::peek_type(srv::encode_shutdown()), srv::MsgType::kShutdown);
}

TEST(ServerProtocol, FrameValidationCatchesCorruption) {
  const std::string payload = srv::encode_query(query_for("t", "k"));
  std::string framed = srv::frame(payload);
  ASSERT_GE(framed.size(), srv::kFrameHeaderBytes);

  // Clean frame parses.
  const srv::FrameHeader h = srv::decode_frame_header(
      std::string_view(framed).substr(0, srv::kFrameHeaderBytes));
  EXPECT_EQ(h.payload_len, payload.size());
  srv::check_frame_payload(
      h, std::string_view(framed).substr(srv::kFrameHeaderBytes));

  // Bad magic.
  std::string bad = framed;
  bad[0] = static_cast<char>(bad[0] ^ 0x5a);
  EXPECT_THROW(
      (void)srv::decode_frame_header(
          std::string_view(bad).substr(0, srv::kFrameHeaderBytes)),
      srv::ProtocolError);

  // Flipped payload byte fails the CRC.
  bad = framed;
  bad[srv::kFrameHeaderBytes + 2] =
      static_cast<char>(bad[srv::kFrameHeaderBytes + 2] ^ 1);
  EXPECT_THROW(
      srv::check_frame_payload(
          h, std::string_view(bad).substr(srv::kFrameHeaderBytes)),
      srv::ProtocolError);

  // Truncated payload.
  EXPECT_THROW(
      srv::check_frame_payload(
          h, std::string_view(framed).substr(srv::kFrameHeaderBytes + 1)),
      srv::ProtocolError);

  // Absurd length field.
  std::string huge = framed;
  huge[4] = '\xff';
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\x7f';
  EXPECT_THROW(
      (void)srv::decode_frame_header(
          std::string_view(huge).substr(0, srv::kFrameHeaderBytes)),
      srv::ProtocolError);

  // Short header, empty payload, truncated message body, trailing bytes.
  EXPECT_THROW((void)srv::decode_frame_header("tiny"), srv::ProtocolError);
  EXPECT_THROW((void)srv::peek_type(""), srv::ProtocolError);
  EXPECT_THROW((void)srv::decode_query(payload.substr(0, 4)),
               srv::ProtocolError);
  EXPECT_THROW((void)srv::decode_query(payload + "x"), srv::ProtocolError);
  // Wrong type for the decoder.
  EXPECT_THROW((void)srv::decode_query_ok(payload), srv::ProtocolError);
}

// ---- dispatcher ----

TEST(FairDispatcher, TypedRejectionsAtTheBounds) {
  srv::FairDispatcher d;
  d.register_tenant("bounded", {.max_queue = 3, .max_inflight = 2});
  d.register_tenant("queueless", {.max_queue = 0, .max_inflight = 2});

  // Bounded queue: 3 accepted, 4th typed kQueueFull.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(d.submit("bounded", query_for("bounded", "k")),
              srv::SubmitStatus::kAccepted);
  }
  EXPECT_EQ(d.submit("bounded", query_for("bounded", "k")),
            srv::SubmitStatus::kQueueFull);

  // Queueless tenant: admission is in-flight availability; rejections are
  // typed kTooManyInflight, never kQueueFull.
  EXPECT_EQ(d.submit("queueless", query_for("queueless", "k")),
            srv::SubmitStatus::kAccepted);
  EXPECT_EQ(d.submit("queueless", query_for("queueless", "k")),
            srv::SubmitStatus::kAccepted);
  EXPECT_EQ(d.submit("queueless", query_for("queueless", "k")),
            srv::SubmitStatus::kTooManyInflight);

  const srv::TenantStats bounded = d.tenant_stats("bounded");
  EXPECT_EQ(bounded.accepted, 3u);
  EXPECT_EQ(bounded.rejected_queue_full, 1u);
  EXPECT_EQ(bounded.rejected_inflight, 0u);
  const srv::TenantStats queueless = d.tenant_stats("queueless");
  EXPECT_EQ(queueless.accepted, 2u);
  EXPECT_EQ(queueless.rejected_inflight, 1u);
  EXPECT_EQ(queueless.rejected_queue_full, 0u);

  // Freeing a queueless slot re-admits. DRR may hand us bounded jobs first;
  // drain until a queueless job is in flight, then complete it.
  std::optional<srv::DispatchJob> job;
  do {
    job = d.try_next();
    ASSERT_TRUE(job.has_value());
    if (job->tenant != "queueless") d.complete(job->tenant);
  } while (job->tenant != "queueless");
  d.complete("queueless");
  EXPECT_EQ(d.submit("queueless", query_for("queueless", "k")),
            srv::SubmitStatus::kAccepted);
}

TEST(FairDispatcher, TricklerIsServedWithinOneRotationOfAFlooder) {
  srv::FairDispatcher d;
  d.register_tenant("flooder", {.max_queue = 100, .max_inflight = 100});
  d.register_tenant("trickler", {.max_queue = 4, .max_inflight = 4});
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(d.submit("flooder", query_for("flooder", "k")),
              srv::SubmitStatus::kAccepted);
  }
  // The trickler submits ONE job into a 50-deep backlog; DRR must dispatch
  // it within one rotation (<= #tenants dispatch ticks), not after the
  // backlog drains. This is the daemon's bounded-latency guarantee for
  // light tenants — the dispatch-tick analogue of the p99 bound.
  ASSERT_EQ(d.submit("trickler", query_for("trickler", "k")),
            srv::SubmitStatus::kAccepted);
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    auto job = d.try_next();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->tenant);
  }
  EXPECT_NE(std::find(order.begin(), order.end(), "trickler"), order.end())
      << "trickler waited more than one DRR rotation behind the flooder";
}

TEST(FairDispatcher, InflightCapGatesDispatchUntilCompletion) {
  srv::FairDispatcher d;
  d.register_tenant("t", {.max_queue = 10, .max_inflight = 2});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(d.submit("t", query_for("t", "k")), srv::SubmitStatus::kAccepted);
  }
  EXPECT_TRUE(d.try_next().has_value());
  EXPECT_TRUE(d.try_next().has_value());
  // Cap reached: queued work exists but nothing is eligible.
  EXPECT_FALSE(d.try_next().has_value());
  EXPECT_EQ(d.queued(), 3u);
  d.complete("t");
  EXPECT_TRUE(d.try_next().has_value());
  EXPECT_FALSE(d.try_next().has_value());
}

TEST(FairDispatcher, WeightedSharesAndDeterministicOrder) {
  // heavy (weight 2) gets two dispatches per rotation, light gets one, and
  // the whole order is a pure function of the submission sequence.
  auto run = [] {
    srv::FairDispatcher d;
    d.register_tenant("heavy", {.max_queue = 50, .max_inflight = 50,
                                .weight = 2});
    d.register_tenant("light", {.max_queue = 50, .max_inflight = 50,
                                .weight = 1});
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(d.submit("heavy", query_for("heavy", "k")),
                srv::SubmitStatus::kAccepted);
      EXPECT_EQ(d.submit("light", query_for("light", "k")),
                srv::SubmitStatus::kAccepted);
    }
    std::vector<std::string> order;
    std::vector<std::uint64_t> tickets;
    while (auto job = d.try_next()) {
      order.push_back(job->tenant);
      tickets.push_back(job->ticket);
    }
    return std::pair(order, tickets);
  };
  const auto [order, tickets] = run();
  ASSERT_EQ(order.size(), 24u);
  // First 18 dispatches: heavy,heavy,light repeating (the 2:1 share).
  // heavy's queue then runs dry and light drains alone.
  for (std::size_t i = 0; i < 18; i += 3) {
    EXPECT_EQ(order[i], "heavy") << i;
    EXPECT_EQ(order[i + 1], "heavy") << i;
    EXPECT_EQ(order[i + 2], "light") << i;
  }
  for (std::size_t i = 18; i < 24; ++i) EXPECT_EQ(order[i], "light") << i;
  // Seeded-schedule determinism: an identical submission sequence yields an
  // identical dispatch sequence, ticket for ticket.
  const auto [order2, tickets2] = run();
  EXPECT_EQ(order, order2);
  EXPECT_EQ(tickets, tickets2);
}

TEST(FairDispatcher, StopDrainsAcceptedWorkThenReleasesWorkers) {
  srv::FairDispatcher d;
  ASSERT_EQ(d.submit("t", query_for("t", "k")), srv::SubmitStatus::kAccepted);
  ASSERT_EQ(d.submit("t", query_for("t", "k")), srv::SubmitStatus::kAccepted);
  d.stop();
  EXPECT_EQ(d.submit("t", query_for("t", "k")), srv::SubmitStatus::kStopped);
  // next() hands out the remaining accepted jobs before returning nullopt.
  EXPECT_TRUE(d.next().has_value());
  EXPECT_TRUE(d.next().has_value());
  EXPECT_FALSE(d.next().has_value());
}

// ---- dataset cache ----

TEST(DatasetCache, HitRevalidateAndRebuild) {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  const dc::StoredDataset ds = dc::make_movie_dataset(cfg, 16);
  srv::DatasetCache cache;

  const auto first = cache.get(*ds.dfs, ds.path);
  const auto again = cache.get(*ds.dfs, ds.path);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Replica churn (healing/balancing): epoch moves, block count does not —
  // the ElasticMap is still exact, so the entry is revalidated, not rebuilt.
  const dfs::BlockId b = ds.dfs->blocks_of(ds.path).front();
  const auto hosts = ds.dfs->replicas_snapshot(b);
  dfs::NodeId target = 0;
  while (std::find(hosts.begin(), hosts.end(), target) != hosts.end()) {
    ++target;
  }
  ds.dfs->move_replica(b, hosts.front(), target);
  const auto after_churn = cache.get(*ds.dfs, ds.path);
  EXPECT_EQ(after_churn.get(), first.get());
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(cache.stats().rebuilds, 1u);

  // A sibling file appearing bumps the epoch but not this path's block
  // count: still the same cached entry, revalidated not rebuilt.
  {
    auto writer = ds.dfs->create(ds.path + ".sibling");
    writer.append("100\tprobe\tpayload");
    writer.close();
  }
  EXPECT_EQ(cache.get(*ds.dfs, ds.path).get(), first.get());
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.stats().revalidations, 2u);
}

TEST(DatasetCache, GrowthUnderTheSamePathDeltaApplies) {
  dfs::MiniDfs mini(dfs::ClusterTopology::flat(4),
                    {.block_size = 1024, .replication = 2, .seed = 7});
  srv::DatasetCache cache;
  auto writer = mini.create("/data/log");
  const std::string payload(400, 'x');
  // Seal a few blocks, keep the writer open so the file can still grow.
  for (int i = 0; i < 8; ++i) writer.append("100\tk\t" + payload);
  const std::size_t before = mini.blocks_of("/data/log").size();
  ASSERT_GT(before, 0u);
  const auto small = cache.get(mini, "/data/log");
  EXPECT_EQ(cache.stats().rebuilds, 1u);

  for (int i = 0; i < 8; ++i) writer.append("100\tk\t" + payload);
  writer.close();
  ASSERT_GT(mini.blocks_of("/data/log").size(), before);
  // Streaming growth: the cache extends the prior map over the appended
  // blocks instead of rescanning the whole file — a NEW bundle (immutable
  // snapshots for in-flight queries), but no second full rebuild.
  const auto big = cache.get(mini, "/data/log");
  EXPECT_NE(big.get(), small.get());
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.stats().delta_applies, 1u);
  EXPECT_EQ(big->meta().num_blocks(), mini.blocks_of("/data/log").size());
  // The delta-applied map answers exactly like a from-scratch build.
  const auto fresh =
      datanet::elasticmap::ElasticMapArray::build(mini, "/data/log", {});
  const auto id = datanet::workload::subdataset_id("100");
  EXPECT_EQ(big->meta().estimate_total_size(id),
            fresh.estimate_total_size(id));
}

// ---- end to end over loopback ----

TEST(ServerEndToEnd, ServedDigestsMatchInProcessGoldenRuns) {
  const srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  srv::Client client(server.port());

  const auto& hot = server.dataset().hot_keys;
  ASSERT_GE(hot.size(), 2u);
  for (const char* sched : {"datanet", "locality"}) {
    for (std::size_t k = 0; k < 2; ++k) {
      srv::QueryRequest q = query_for("golden", hot[k], sched);
      const srv::ClientResult served = client.query(q);
      ASSERT_TRUE(served.ok()) << served.error;
      const srv::QueryOutcome golden = srv::local_query(opts, q);
      ASSERT_TRUE(golden.ok) << golden.error;
      EXPECT_EQ(served.reply.digest, golden.reply.digest)
          << sched << " " << hot[k];
      EXPECT_EQ(served.reply.matched_bytes, golden.reply.matched_bytes);
      EXPECT_EQ(served.reply.blocks_scanned, golden.reply.blocks_scanned);
      EXPECT_GT(served.reply.matched_bytes, 0u);
    }
  }
  // DataNet pruning scans fewer blocks than the content-blind baseline.
  srv::QueryRequest pruned = query_for("golden", hot[0]);
  srv::QueryRequest blind = query_for("golden", hot[0]);
  blind.use_datanet_meta = false;
  const auto with_meta = client.query(pruned);
  const auto without_meta = client.query(blind);
  ASSERT_TRUE(with_meta.ok() && without_meta.ok());
  EXPECT_LT(with_meta.reply.blocks_scanned, without_meta.reply.blocks_scanned);
  EXPECT_EQ(with_meta.reply.matched_bytes, without_meta.reply.matched_bytes);
  server.stop();
}

TEST(ServerEndToEnd, BadRequestsGetTypedRejections) {
  srv::Server server(small_server());
  server.start();
  srv::Client client(server.port());

  srv::QueryRequest no_key = query_for("t", "");
  auto result = client.query(no_key);
  ASSERT_EQ(result.status, srv::ClientResult::Status::kRejected);
  EXPECT_EQ(result.rejection.reason, srv::RejectReason::kBadRequest);

  srv::QueryRequest bad_sched = query_for("t", "movie_00000", "magic");
  result = client.query(bad_sched);
  ASSERT_EQ(result.status, srv::ClientResult::Status::kRejected);
  EXPECT_EQ(result.rejection.reason, srv::RejectReason::kBadRequest);

  // A query on a healthy connection still works after rejections.
  result = client.query(query_for("t", server.dataset().hot_keys[0]));
  EXPECT_TRUE(result.ok());
  server.stop();
}

TEST(ServerEndToEnd, CorruptFrameIsRejectedNotCrashed) {
  srv::Server server(small_server());
  server.start();
  {
    // Hand-roll a frame with a flipped payload byte: the server must answer
    // kRejected(bad_request) and drop the connection, not die.
    srv::Fd fd = srv::connect_loopback(server.port());
    std::string framed =
        srv::frame(srv::encode_query(query_for("t", "movie_00000")));
    framed[framed.size() - 1] = static_cast<char>(framed.back() ^ 1);
    srv::write_all(fd, framed);
    const auto header = srv::read_exact(fd, srv::kFrameHeaderBytes);
    ASSERT_TRUE(header.has_value());
    const srv::FrameHeader h = srv::decode_frame_header(*header);
    const auto payload = srv::read_exact(fd, h.payload_len);
    ASSERT_TRUE(payload.has_value());
    srv::check_frame_payload(h, *payload);
    const srv::Rejection rej = srv::decode_rejected(*payload);
    EXPECT_EQ(rej.reason, srv::RejectReason::kBadRequest);
    // Connection is dropped after a protocol error.
    const auto eof = srv::read_exact(fd, 1);
    EXPECT_FALSE(eof.has_value());
  }
  // The server still serves fresh connections.
  srv::Client client(server.port());
  EXPECT_TRUE(client.query(query_for("t", server.dataset().hot_keys[0])).ok());
  server.stop();
}

TEST(ServerEndToEnd, QueuelessTenantSeesTypedInflightRejection) {
  srv::ServerOptions opts = small_server();
  opts.default_limits = {.max_queue = 0, .max_inflight = 0};
  srv::Server server(opts);
  server.start();
  srv::Client client(server.port());
  const auto result = client.query(query_for("t", "movie_00000"));
  ASSERT_EQ(result.status, srv::ClientResult::Status::kRejected);
  EXPECT_EQ(result.rejection.reason, srv::RejectReason::kTooManyInflight);
  server.stop();
}

TEST(ServerEndToEnd, SkewedTenantsFlooderIsBoundedTricklerAlwaysServed) {
  srv::ServerOptions opts = small_server();
  opts.workers = 1;  // serialize execution so backpressure actually builds
  opts.default_limits = {.max_queue = 1, .max_inflight = 1};
  srv::Server server(opts);
  server.dispatcher().register_tenant("trickler",
                                      {.max_queue = 8, .max_inflight = 4});
  server.start();
  const std::string key = server.dataset().hot_keys[0];

  std::atomic<std::uint64_t> flooder_ok{0};
  std::atomic<std::uint64_t> flooder_rejected{0};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 4; ++t) {
    flooders.emplace_back([&, t] {
      srv::Client c(server.port());
      for (int i = 0; i < 40; ++i) {
        const auto r = c.query(query_for("flooder", key));
        if (r.ok()) {
          ++flooder_ok;
        } else {
          ASSERT_EQ(r.status, srv::ClientResult::Status::kRejected);
          ASSERT_EQ(r.rejection.reason, srv::RejectReason::kQueueFull)
              << "flooder rejections must be the typed queue-full kind";
          ++flooder_rejected;
        }
      }
    });
  }
  // The trickler runs its queries while the flood is in progress; every one
  // must be served (its private queue is never full) with a bounded wait.
  std::uint64_t trickler_served = 0;
  {
    srv::Client c(server.port());
    for (int i = 0; i < 10; ++i) {
      const auto r = c.query(query_for("trickler", key));
      ASSERT_TRUE(r.ok()) << "trickler query " << i << " not served";
      ++trickler_served;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (auto& t : flooders) t.join();
  EXPECT_EQ(trickler_served, 10u);
  EXPECT_GT(flooder_ok.load(), 0u);
  // 4 synchronous flooder connections against capacity 2 (1 queued + 1
  // in flight): overflow arrivals are typed queue-full rejections.
  const srv::TenantStats fs = server.dispatcher().tenant_stats("flooder");
  EXPECT_EQ(fs.rejected_inflight, 0u);
  EXPECT_EQ(fs.accepted + fs.rejected_queue_full, fs.submitted);
  const srv::TenantStats ts = server.dispatcher().tenant_stats("trickler");
  EXPECT_EQ(ts.accepted, 10u);
  EXPECT_EQ(ts.rejected_queue_full + ts.rejected_inflight, 0u);
  server.stop();
}

TEST(ServerEndToEnd, QueriesStayCorrectWhileAMutatorChurnsReplicas) {
  // The zero-copy lifetime regression, end to end: workers serve pinned
  // reads while the single external mutator relocates and drop-and-heals
  // replicas under them. Every query must succeed with the
  // placement-invariant totals (matched bytes, scanned blocks); under ASan
  // this is the use-after-free probe for the PR 6 string_view hazard.
  const srv::ServerOptions opts = small_server();
  srv::Server server(opts);
  server.start();
  const std::string key = server.dataset().hot_keys[0];
  const srv::QueryOutcome golden = srv::local_query(opts, query_for("t", key));
  ASSERT_TRUE(golden.ok);

  std::atomic<bool> done{false};
  std::thread mutator([&] {
    dfs::MiniDfs& mini = server.dfs();
    const auto blocks = mini.blocks_of(server.dataset().path);
    std::uint64_t step = 0;
    while (!done.load(std::memory_order_acquire)) {
      const dfs::BlockId b = blocks[step % blocks.size()];
      const auto hosts = mini.replicas_snapshot(b);
      dfs::NodeId target = 0;
      while (std::find(hosts.begin(), hosts.end(), target) != hosts.end()) {
        ++target;
      }
      if (step % 3 == 0) {
        // Drop-and-reheal churn: mark a copy corrupt, report it, NameNode
        // re-replicates (inline_repair default) — replica set mutates.
        mini.corrupt_replica(b, hosts.front());
        mini.report_corrupt_replica(b, hosts.front());
      } else {
        mini.move_replica(b, hosts.front(), target);
      }
      ++step;
    }
  });

  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> served{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      srv::Client c(server.port());
      for (int i = 0; i < 25; ++i) {
        const auto r = c.query(query_for("t", key));
        ASSERT_TRUE(r.ok()) << r.error;
        // Placement-sensitive fields (digest) legitimately change under
        // churn; the selection's content totals must not.
        EXPECT_EQ(r.reply.matched_bytes, golden.reply.matched_bytes);
        EXPECT_EQ(r.reply.blocks_scanned, golden.reply.blocks_scanned);
        ++served;
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_release);
  mutator.join();
  EXPECT_EQ(served.load(), 75u);
  EXPECT_GT(server.cache().stats().revalidations, 0u);
  server.stop();
}

TEST(ServerEndToEnd, ShutdownMessageDrainsAndStops) {
  srv::Server server(small_server());
  server.start();
  {
    srv::Client client(server.port());
    ASSERT_TRUE(
        client.query(query_for("t", server.dataset().hot_keys[0])).ok());
    client.shutdown_server();
  }
  server.wait();  // returns because the kShutdown frame requested stop
  server.stop();
  EXPECT_GE(server.queries_served(), 1u);
  // The listener is gone: new connections fail.
  EXPECT_THROW((void)srv::connect_loopback(server.port()), srv::SocketError);
}

// ---- stats / metering ----

TEST(ServerProtocol, StatsRoundTrip) {
  EXPECT_EQ(srv::peek_type(srv::encode_stats()), srv::MsgType::kStats);

  srv::ServerStats s;
  s.queries_served = 42;
  s.cache_hits = 40;
  s.cache_revalidations = 1;
  s.cache_rebuilds = 1;
  s.cache_delta_applies = 6;
  s.meta_shards = 4;
  srv::TenantMeter a;
  a.tenant = "alice";
  a.submitted = 30;
  a.accepted = 28;
  a.rejected_queue_full = 2;
  a.dispatched = 28;
  a.completed = 28;
  a.queue_wait_micros = 12345;
  srv::TenantMeter b;
  b.tenant = "bob";
  b.submitted = 14;
  b.accepted = 14;
  b.rejected_inflight = 0;
  b.dispatched = 14;
  b.completed = 13;
  s.tenants = {a, b};

  const auto decoded = srv::decode_stats_ok(srv::encode_stats_ok(s));
  EXPECT_EQ(decoded.queries_served, 42u);
  EXPECT_EQ(decoded.meta_shards, 4u);
  EXPECT_EQ(decoded.cache_hits, 40u);
  EXPECT_EQ(decoded.cache_delta_applies, 6u);
  ASSERT_EQ(decoded.tenants.size(), 2u);
  EXPECT_EQ(decoded.tenants[0].tenant, "alice");
  EXPECT_EQ(decoded.tenants[0].rejected_queue_full, 2u);
  EXPECT_EQ(decoded.tenants[0].queue_wait_micros, 12345u);
  EXPECT_EQ(decoded.tenants[1].tenant, "bob");
  EXPECT_EQ(decoded.tenants[1].completed, 13u);

  // Truncation and a hostile tenant count both fail typed.
  const auto payload = srv::encode_stats_ok(s);
  EXPECT_THROW(srv::decode_stats_ok(payload.substr(0, payload.size() - 3)),
               srv::ProtocolError);
  auto hostile = payload;
  hostile[62] = '\xff';  // inside the tenant-count word (offset 61..64)
  EXPECT_THROW(srv::decode_stats_ok(hostile), srv::ProtocolError);
}

TEST(ServerEndToEnd, StatsMeterTenantsAcrossShardedPlane) {
  srv::ServerOptions opts = small_server();
  opts.meta_shards = 4;
  srv::Server server(opts);
  server.start();
  EXPECT_EQ(server.plane().num_shards(), 4u);
  srv::Client client(server.port());

  const auto& hot = server.dataset().hot_keys;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.query(query_for("alice", hot[0])).ok());
  }
  ASSERT_TRUE(client.query(query_for("bob", hot[1])).ok());
  // Served digests stay golden at shard count 4 — sharding must not change
  // placement (the serve --meta-shards determinism contract).
  const srv::QueryRequest q = query_for("alice", hot[0]);
  const auto served = client.query(q);
  const auto golden = srv::local_query(opts, q);
  ASSERT_TRUE(served.ok() && golden.ok);
  EXPECT_EQ(served.reply.digest, golden.reply.digest);

  const srv::ServerStats stats = client.stats();
  EXPECT_EQ(stats.queries_served, 5u);
  EXPECT_EQ(stats.meta_shards, 4u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  const auto* alice = &stats.tenants[0];
  const auto* bob = &stats.tenants[1];
  if (alice->tenant != "alice") std::swap(alice, bob);
  EXPECT_EQ(alice->tenant, "alice");
  EXPECT_EQ(alice->submitted, 4u);
  EXPECT_EQ(alice->accepted, 4u);
  EXPECT_EQ(alice->dispatched, 4u);
  EXPECT_EQ(alice->completed, 4u);
  EXPECT_EQ(bob->submitted, 1u);
  EXPECT_EQ(bob->completed, 1u);
  EXPECT_EQ(alice->rejected_queue_full + alice->rejected_inflight, 0u);

  // The stats message is read-only: it does not count as a served query.
  EXPECT_EQ(client.stats().queries_served, 5u);
  server.stop();
}

// A served query is counted before its reply is written, so a stats request
// on another connection never reads the counter one short.
TEST(ServerEndToEnd, QueriesServedCountsEveryReplyBeforeItArrives) {
  srv::Server server(small_server());
  server.start();
  srv::Client queries(server.port());
  srv::Client stats(server.port());
  const auto& hot = server.dataset().hot_keys;
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(queries.query(query_for("alice", hot[i % hot.size()])).ok());
    EXPECT_EQ(stats.stats().queries_served, i + 1) << "after reply " << i;
  }
  server.stop();
}

// ---- one message layout per type ----

// Every field is mandatory: any strict prefix of a kQuery, kQueryOk or
// kStatsOk payload is torn, never an older layout with fields defaulted.
TEST(ServerProtocol, EveryStrictPrefixIsRejected) {
  srv::QueryRequest q;
  q.tenant = "alice";
  q.key = "movie_00007";
  q.scheduler = "lpt";
  q.use_datanet_meta = false;
  q.deadline_ms = 250;
  srv::QueryReply r;
  r.digest = 42;
  r.matched_bytes = 7;
  r.blocks_scanned = 3;
  r.service_micros = 11;
  r.queue_micros = 5;
  r.degraded = true;
  r.staleness_micros = 9'000;
  srv::ServerStats s;
  s.queries_served = 3;
  s.cache_delta_applies = 2;
  srv::TenantMeter t;
  t.tenant = "bob";
  t.completed = 3;
  s.tenants = {t};

  const std::string query = srv::encode_query(q);
  const std::string reply = srv::encode_query_ok(r);
  const std::string stats = srv::encode_stats_ok(s);
  EXPECT_EQ(srv::decode_query(query).deadline_ms, 250u);
  EXPECT_EQ(srv::decode_query_ok(reply).staleness_micros, 9'000u);
  EXPECT_EQ(srv::decode_stats_ok(stats).cache_delta_applies, 2u);
  for (std::size_t len = 0; len < query.size(); ++len) {
    EXPECT_THROW((void)srv::decode_query(query.substr(0, len)),
                 srv::ProtocolError)
        << "kQuery prefix " << len;
  }
  for (std::size_t len = 0; len < reply.size(); ++len) {
    EXPECT_THROW((void)srv::decode_query_ok(reply.substr(0, len)),
                 srv::ProtocolError)
        << "kQueryOk prefix " << len;
  }
  for (std::size_t len = 0; len < stats.size(); ++len) {
    EXPECT_THROW((void)srv::decode_stats_ok(stats.substr(0, len)),
                 srv::ProtocolError)
        << "kStatsOk prefix " << len;
  }
}

// A tenant row is at least 64 bytes (8-byte name length + 7 u64 counters),
// so a count that fits the remaining bytes only at a smaller row size is
// rejected before it sizes the row vector.
TEST(ServerProtocol, StatsTenantCountBoundedByRowSize) {
  std::string payload = srv::encode_stats_ok(srv::ServerStats{});
  payload[61] = 50;  // tenant-count word (offset 61..64), little-endian
  payload.append(100, '\0');
  // 108 bytes follow the count: room for 1 row, not 50.
  try {
    (void)srv::decode_stats_ok(payload);
    FAIL() << "hostile tenant count decoded";
  } catch (const srv::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt tenant count"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServerProtocolV2, NewRejectReasonsRoundTrip) {
  for (const srv::RejectReason reason :
       {srv::RejectReason::kDeadlineExceeded, srv::RejectReason::kCircuitOpen,
        srv::RejectReason::kShardUnavailable}) {
    const auto back =
        srv::decode_rejected(srv::encode_rejected({reason, "detail"}));
    EXPECT_EQ(back.reason, reason);
    EXPECT_FALSE(srv::reject_reason_name(reason).empty());
  }
}

// ---- socket EOF semantics (PR 9 satellite) ----

namespace {

// A connected loopback pair: `a` is the connecting side, `b` the accepted
// side. Loopback connect completes via the backlog, so no threads needed.
struct SocketPair {
  srv::Fd listener;
  srv::Fd a;
  srv::Fd b;
  SocketPair() {
    auto [fd, port] = srv::listen_loopback(0);
    listener = std::move(fd);
    a = srv::connect_loopback(port);
    auto accepted = srv::accept_client(listener);
    EXPECT_TRUE(accepted.has_value());
    b = std::move(*accepted);
  }
};

}  // namespace

TEST(ServerSocket, ReadExactCleanEofAtMessageBoundary) {
  SocketPair p;
  srv::write_all(p.a, "hello");
  p.a.reset();  // FIN after a complete message
  const auto got = srv::read_exact(p.b, 5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "hello");
  // EOF with zero bytes read is a CLEAN end of stream: nullopt, not a throw.
  EXPECT_FALSE(srv::read_exact(p.b, 5).has_value());
}

TEST(ServerSocket, ReadExactMidMessageEofThrows) {
  SocketPair p;
  srv::write_all(p.a, "abc");
  p.a.reset();  // FIN mid-message
  // 3 of 5 bytes then EOF: the message is torn — typed error, never a
  // truncated success.
  EXPECT_THROW((void)srv::read_exact(p.b, 5), srv::SocketError);
}

TEST(ServerSocket, ReadExactIdleTimeoutThrowsTyped) {
  SocketPair p;
  // No bytes ever arrive: the idle deadline must surface as the typed
  // subclass so retry policy can distinguish slow from garbled.
  EXPECT_THROW((void)srv::read_exact(p.b, 1, 50), srv::SocketTimeoutError);
  // The connection is still usable afterwards — a timeout is a deadline,
  // not a protocol desync.
  srv::write_all(p.a, "x");
  const auto got = srv::read_exact(p.b, 1, 50);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "x");
}

TEST(ServerSocket, PeekTypeOnEmptyPayloadThrows) {
  EXPECT_THROW((void)srv::peek_type(std::string_view{}), srv::ProtocolError);
}
