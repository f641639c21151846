#pragma once
// Multi-tenant admission control + deficit-round-robin fair dispatch for
// datanetd. Each tenant owns a bounded FIFO of pending selection jobs and a
// bounded in-flight count; submission is rejected with a TYPED reason the
// moment a bound would be exceeded (backpressure at the door, never an
// unbounded queue), and dispatch order between tenants is deficit round
// robin weighted by TenantLimits::weight — a flooding tenant can fill only
// its own queue, and a light tenant's occasional job is dispatched within
// one DRR rotation regardless of how deep the flooder's backlog is
// (tests/server_test.cpp pins the exact bound).
//
// A global slot count caps the jobs in flight across all tenants: with
// every slot busy, try_next() hands out nothing until a complete().
//
// The dispatcher is deliberately free of any socket, thread or runtime
// knowledge and never blocks: datanetd's connection handlers submit, pull
// grants with try_next() and report complete(), and the whole policy is
// testable single-threaded — the dispatch order is a pure function of the
// submit/try_next/complete sequence (determinism test).

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace datanet::server {

struct TenantLimits {
  // Pending jobs the tenant may queue. 0 = queueless tenant: a job is
  // admitted only if an in-flight slot is free right now (rejections then
  // surface as kTooManyInflight instead of kQueueFull).
  std::size_t max_queue = 64;
  // Jobs of this tenant that may be executing concurrently.
  std::size_t max_inflight = 4;
  // DRR weight: dispatches per rotation relative to weight-1 tenants.
  std::uint32_t weight = 1;
};

// Per-tenant consecutive-failure circuit breaker (PR 9). A tenant whose
// queries keep failing at execution (execution errors or shard-unavailable
// sheds, NOT admission rejections) is load-shed at the door with a typed
// kCircuitOpen rejection instead of burning execution slots on doomed work. The
// breaker is count-based, not clock-based, so its behaviour is a pure
// function of the outcome sequence (deterministic tests): it OPENS after
// `failure_threshold` consecutive failures, admits every `probe_interval`-th
// blocked submission as a half-open probe, and CLOSES on the first success.
struct BreakerPolicy {
  std::uint32_t failure_threshold = 0;  // 0 disables the breaker
  std::uint32_t probe_interval = 4;     // every Nth blocked submit probes
};

// One admitted unit of work. `ticket` is a process-unique admission sequence
// number (also the FIFO order within a tenant); whatever the caller needs to
// run the job stays with the caller (a datanetd handler keeps its own
// request and waits for its ticket to be granted).
struct DispatchJob {
  std::uint64_t ticket = 0;
  std::string tenant;
  // Host-clock stamp taken at admission; dispatch accumulates the delta
  // into the tenant's queue_wait_micros meter.
  std::uint64_t submitted_micros = 0;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted = 0,
  kQueueFull = 1,       // tenant queue at max_queue
  kTooManyInflight = 2, // queueless tenant with all in-flight slots busy
  kStopped = 3,         // dispatcher is draining
  kCircuitOpen = 4,     // tenant's failure circuit breaker is open
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t rejected_circuit = 0;  // breaker-open load sheds
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  // Total admission->dispatch wait across this tenant's dispatched jobs
  // (host clock, micros) — the per-tenant metering the stats wire message
  // serves; divide by `dispatched` for the mean wait.
  std::uint64_t queue_wait_micros = 0;
};

class FairDispatcher {
 public:
  // Tenants not registered explicitly are created on first submit with
  // `default_limits`. The breaker policy applies to every tenant. `slots`
  // caps the jobs in flight across all tenants (datanetd passes
  // ServerOptions::workers: the queries executing at once).
  explicit FairDispatcher(
      TenantLimits default_limits = {}, BreakerPolicy breaker = {},
      std::size_t slots = std::numeric_limits<std::size_t>::max())
      : default_limits_(default_limits), breaker_(breaker), slots_(slots) {}

  // Pre-register a tenant with its own limits; no-op if already known
  // (limits are fixed at first sight, matching a config-file model).
  void register_tenant(const std::string& tenant, TenantLimits limits);

  // Admission: bound check + enqueue. O(log tenants).
  SubmitStatus submit(const std::string& tenant,
                      std::uint64_t* ticket_out = nullptr);

  // The one dispatch primitive, non-blocking DRR: the next job whose tenant
  // has a free in-flight slot, or nullopt when nothing is eligible or all
  // `slots` are taken. The caller owns the job until complete().
  std::optional<DispatchJob> try_next();

  // A dispatched job finished; frees its tenant's in-flight slot and its
  // global slot, which may make queued work eligible again (call try_next).
  void complete(const std::string& tenant);

  // The job's EXECUTION outcome, feeding the circuit breaker: `success` is
  // any answered query (ok or degraded); failures are execution errors and
  // shard-unavailable sheds. No-op for unknown tenants or when the breaker
  // is disabled.
  void record_outcome(const std::string& tenant, bool success);
  [[nodiscard]] bool breaker_open(const std::string& tenant) const;

  // Stop admitting; try_next() still hands out the jobs already queued, so
  // the caller can drain them. (Drain keeps the CI smoke deterministic:
  // every accepted query is answered even when shutdown races the last
  // submissions.)
  void stop();

  [[nodiscard]] std::size_t queued() const;       // across all tenants
  [[nodiscard]] std::size_t inflight() const;     // across all tenants
  [[nodiscard]] TenantStats tenant_stats(const std::string& tenant) const;
  [[nodiscard]] std::vector<std::string> tenants() const;

 private:
  struct Tenant {
    TenantLimits limits;
    std::deque<DispatchJob> queue;
    std::size_t inflight = 0;
    std::uint64_t deficit = 0;  // DRR credit, in units of kJobCost
    TenantStats stats;
    // Circuit-breaker state (see BreakerPolicy).
    std::uint32_t consecutive_failures = 0;
    bool breaker_open = false;
    std::uint64_t blocked_since_open = 0;  // counts toward the next probe
  };

  // Uniform job cost: DRR with per-visit quantum weight*kJobCost gives a
  // weight-w tenant w consecutive dispatches per rotation.
  static constexpr std::uint64_t kJobCost = 1;

  Tenant& tenant_locked(const std::string& name);
  [[nodiscard]] std::optional<DispatchJob> pick_locked();
  [[nodiscard]] bool eligible_locked(const Tenant& t) const;

  mutable std::mutex mu_;
  TenantLimits default_limits_;
  BreakerPolicy breaker_;
  std::size_t slots_;
  std::map<std::string, Tenant> tenants_;
  // DRR rotation order = registration order; rr_ points at the tenant the
  // next pick starts from.
  std::vector<std::string> order_;
  std::size_t rr_ = 0;
  std::uint64_t next_ticket_ = 1;
  std::size_t queued_total_ = 0;
  std::size_t inflight_total_ = 0;
  bool stopped_ = false;
};

}  // namespace datanet::server
