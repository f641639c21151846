#pragma once
// datanetd: an always-on, multi-tenant sub-dataset selection service over
// one hosted dataset. The paper's pipeline runs DataNet as a batch job —
// build the ElasticMap, schedule, select, exit. This daemon turns that into
// the deployment the paper argues for (Section VI): metadata built once and
// served to every analysis, with the selection runtime shared by all
// tenants. Architecture (DESIGN.md §6):
//
//   accept thread -> connection handler pool (one thread per live
//   connection, bounded) -> parse/validate -> FairDispatcher admission
//   (typed rejection at the door) -> the handler waits for a
//   deficit-round-robin grant of one of ServerOptions::workers execution
//   slots -> the SAME handler runs the query through the shared
//   SelectionRuntime seams (DirectReadPolicy + NoFaults + CostOnlyBackend)
//   over the process-wide DatasetCache -> framed reply.
//
// The daemon hosts one file, so its namespace lives on a one-shard
// dfs::MetaPlane: the plane supplies the crash/recover/snapshot seams the
// degraded path needs. Queries run as READERS of that shard's MiniDfs
// (pinned zero-copy block reads, snapshot replica sets), so one external
// mutator — a healing ReplicationMonitor, a replica mover, a fault hook in
// tests — may run concurrently under the MiniDfs single-mutator contract,
// and the shard's epoch check in DatasetCache keeps the served metadata
// honest across that churn.
//
// Shutdown contract: a kShutdown frame (or any thread calling stop())
// stops admission, DRAINS every already-accepted query — each gets its
// framed reply before its connection is torn down — then joins all
// threads. stop() is idempotent and safe to race from several threads.
//
// The reply digest is a deterministic hash chain over the selection's
// node-local filtered data, so a client (or the CI smoke test) can verify a
// served result against an in-process run of the same query (local_query).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datanet/selection_runtime.hpp"
#include "server/dataset_cache.hpp"
#include "server/dispatcher.hpp"
#include "server/protocol.hpp"
#include "server/socket_io.hpp"

namespace datanet::server {

struct ServerOptions {
  std::uint16_t port = 0;        // 0 = ephemeral; see Server::port()
  // Queries executing at once, across all tenants (the dispatcher's global
  // slot count; each runs on its connection's handler thread). 0 acts as 1.
  std::uint32_t workers = 2;
  std::uint32_t max_connections = 64;  // concurrent connection handlers
  TenantLimits default_limits;   // admission bounds for unregistered tenants
  // Hosted dataset shape. The dataset is rebuilt deterministically from
  // (cfg, dataset_blocks) at startup, so any client building the same
  // config locally gets byte-identical data — the digest contract.
  core::ExperimentConfig cfg;
  std::uint64_t dataset_blocks = 64;
  // Wire idle timeout (PR 9): the longest a handler waits for the REST of a
  // frame once its first byte arrived, and for reply writes to drain. A
  // peer that stalls mid-frame (slowloris) is dropped after this instead of
  // wedging the handler thread forever. Waiting for a new request on an
  // idle keep-alive connection is still unbounded — idling between messages
  // is legal. 0 disables (legacy block-forever behaviour).
  std::uint32_t io_timeout_ms = 10'000;
  // Per-tenant consecutive-failure circuit breaker; default-disabled
  // (failure_threshold 0) so the clean path is untouched.
  BreakerPolicy breaker;
};

// What the server knows about its hosted dataset beyond the metadata plane
// itself (the plane owns the namespace; this is the serving-side residue).
struct HostedDataset {
  std::string path;
  std::vector<std::string> hot_keys;  // hottest sub-dataset keys first
};

// Outcome of executing one query (shared by the daemon path and the
// in-process local_query golden path). Exactly one of three shapes: ok
// (reply valid, possibly degraded), rejected (typed execution-time shed —
// deadline exceeded / shard unavailable), or error (!ok && !rejected).
struct QueryOutcome {
  bool ok = false;
  QueryReply reply;
  bool rejected = false;
  Rejection rejection;  // valid when rejected
  std::string error;    // set when !ok && !rejected
};

// Deterministic digest over a selection's node-local output: a hash chain
// over the per-node filtered buffers (node order is part of the digest).
[[nodiscard]] std::uint64_t selection_digest(const core::SelectionResult& r);

// Build `name`'s scheduler; nullptr for unknown names.
// Names: datanet | locality | lpt | maxflow.
[[nodiscard]] std::unique_ptr<scheduler::TaskScheduler> make_scheduler(
    const std::string& name, std::uint64_t seed);

// Execute one query against a hosted dataset: DirectReadPolicy + NoFaults +
// CostOnlyBackend (the serving path skips the analytic cost model; the
// selection output is backend-independent). `net` may be null (baseline
// scan-everything graph). service_micros is filled from the host clock;
// queue_micros is left 0 (the daemon fills it).
[[nodiscard]] QueryOutcome execute_query(const dfs::MiniDfs& dfs,
                                         const std::string& path,
                                         const core::DataNet* net,
                                         const QueryRequest& request,
                                         const core::ExperimentConfig& cfg);

// Golden-path helper: build the same deterministic dataset a server with
// `opts` hosts, run `request` in-process, return the outcome. Used by
// `datanet query --local`, the end-to-end test, and the CI smoke script to
// verify served digests.
[[nodiscard]] QueryOutcome local_query(const ServerOptions& opts,
                                       const QueryRequest& request);

class Server {
 public:
  // Builds the hosted dataset (deterministic from opts.cfg/dataset_blocks)
  // and binds the listener; serving threads start in start().
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  // Drain and tear down (see the shutdown contract above). Idempotent;
  // concurrent callers serialize and all return after teardown completes.
  void stop();
  // Blocks until shutdown is requested (kShutdown frame or stop()).
  void wait();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const HostedDataset& dataset() const noexcept {
    return dataset_;
  }
  // The one-shard metadata plane hosting the dataset's namespace.
  [[nodiscard]] dfs::MetaPlane& plane() noexcept { return plane_; }
  [[nodiscard]] const dfs::MetaPlane& plane() const noexcept { return plane_; }
  // Mutator-side access to the shard owning the hosted dataset, for the
  // single external mutator the MiniDfs contract allows (healing monitor,
  // fault hooks in tests). Throws ShardUnavailableError while that shard is
  // crashed.
  [[nodiscard]] dfs::MiniDfs& dfs() { return plane_.dfs_for(dataset_.path); }

  [[nodiscard]] FairDispatcher& dispatcher() noexcept { return dispatcher_; }
  [[nodiscard]] const DatasetCache& cache() const noexcept { return cache_; }
  [[nodiscard]] std::uint64_t queries_served() const noexcept {
    return queries_served_.load(std::memory_order_relaxed);
  }
  // Resilience counters (PR 9).
  [[nodiscard]] std::uint64_t degraded_served() const noexcept {
    return degraded_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t deadline_shed() const noexcept {
    return deadline_shed_.load(std::memory_order_relaxed);
  }

 private:
  struct Handler {
    std::thread thread;
    std::shared_ptr<Fd> socket;  // shared so stop() can shutdown() it
    std::shared_ptr<std::atomic<bool>> finished;
  };

  // Assemble the kStatsOk snapshot (counters + per-tenant meters).
  [[nodiscard]] ServerStats snapshot_stats() const;

  void accept_loop();
  void handle_connection(const std::shared_ptr<Fd>& socket);
  // Grant pass (caller holds pending_mu_): every job try_next() hands out
  // goes into granted_. Runs after each accepted submit and each completion,
  // the only events that make queued work eligible.
  void grant_locked();
  // Drop one accepted query's drain count; wakes stop() at zero.
  void release_reply();
  // Execute one granted query, admitted at `submitted_micros`: deadline
  // shed -> typed rejection; owning shard down -> degraded serving from the
  // epoch-cached bundle (or a typed shard-unavailable rejection on a cold
  // cache); otherwise the normal path.
  [[nodiscard]] QueryOutcome run_job(const QueryRequest& request,
                                     std::uint64_t submitted_micros);
  void reap_finished_handlers();
  // Mark shutdown requested (wakes wait()); does not tear down.
  void request_stop();

  ServerOptions opts_;
  dfs::MetaPlane plane_;
  HostedDataset dataset_;
  FairDispatcher dispatcher_;
  DatasetCache cache_;

  Fd listener_;
  std::uint16_t port_ = 0;

  std::thread accept_thread_;
  std::mutex handlers_mu_;
  std::vector<Handler> handlers_;
  std::atomic<std::size_t> live_handlers_{0};

  // Shared by the connection handlers; locked before the dispatcher's own
  // mutex. granted_ holds dispatched tickets whose handler has not yet
  // picked the grant up; awaiting_replies_ counts accepted queries whose
  // framed reply has not been written yet. stop() waits for it to reach
  // zero before shutting client sockets, which is what makes the drain
  // guarantee hold.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::set<std::uint64_t> granted_;
  std::size_t awaiting_replies_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> degraded_served_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  // Serializes teardown: the first stop() does the work, latecomers block
  // on the mutex until it is done, then see torn_down_ and return.
  std::mutex teardown_mu_;
  bool torn_down_ = false;
};

}  // namespace datanet::server
