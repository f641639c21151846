#pragma once
// ResilientClient — a retrying wrapper around the blocking Client for
// surviving a chaotic wire. datanetd queries are idempotent reads (the reply
// digest is a pure function of the hosted dataset and the request), so a
// transport failure — connection refused, reset, mid-frame truncation, idle
// timeout, corrupt reply frame — is safely retried on a FRESH connection
// with seeded-deterministic bounded exponential backoff plus jitter.
//
// What retries and what does not:
//   - SocketError (incl. SocketTimeoutError) and ProtocolError: transport is
//     suspect; drop the connection, back off, reconnect, retry.
//   - A decoded typed result (kOk — degraded or not — kRejected, kError):
//     the server ANSWERED; the loop ends and the result is returned as-is.
//     Retrying rejections is the caller's policy decision, not transport's.
// When every attempt fails, throws RetriesExhaustedError carrying the
// attempt count and the last transport error — the "never hang, never lie"
// end state the chaos drill asserts on.
//
// Determinism: jitter comes from a common::SplitMix64 seeded from the
// policy, so a given (policy, failure sequence) produces one backoff
// schedule — chaos tests replay exactly.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/rng.hpp"
#include "server/client.hpp"

namespace datanet::server {

struct RetryPolicy {
  std::uint32_t max_attempts = 3;     // total tries, not retries-after-first
  std::uint32_t base_backoff_ms = 5;  // backoff before retry k: ~base*2^k
  std::uint32_t max_backoff_ms = 200;
  std::uint64_t seed = 0;             // jitter stream seed
  std::uint32_t timeout_ms = 2'000;   // per-attempt socket idle timeout
};

// Every attempt (including connects) failed at the transport layer.
class RetriesExhaustedError : public std::runtime_error {
 public:
  RetriesExhaustedError(std::uint32_t attempts_made, const std::string& last)
      : std::runtime_error("datanetd client: " +
                           std::to_string(attempts_made) +
                           " attempt(s) exhausted; last error: " + last),
        attempts(attempts_made),
        last_error(last) {}
  std::uint32_t attempts;
  std::string last_error;
};

// Pure backoff schedule: equal-jitter bounded exponential. For retry index k
// (0 = first retry), cap = min(max_backoff_ms, base_backoff_ms << k); the
// wait is cap/2 + (jitter_bits % (cap/2 + 1)) — always within (cap/2, cap].
// Free function so tests can pin the schedule without sleeping.
[[nodiscard]] std::uint32_t backoff_ms(const RetryPolicy& policy,
                                       std::uint32_t retry,
                                       std::uint64_t jitter_bits);

class ResilientClient {
 public:
  struct Stats {
    std::uint64_t attempts = 0;         // transport attempts made
    std::uint64_t reconnects = 0;       // fresh connections after a failure
    std::uint64_t timeouts = 0;         // attempts ended by SocketTimeoutError
    std::uint64_t protocol_errors = 0;  // attempts ended by ProtocolError
  };

  // Lazy-connecting: the first query/stats call dials. `port` is whatever
  // the client should talk to — the server itself, or a ChaosProxy in front
  // of it.
  explicit ResilientClient(std::uint16_t port, RetryPolicy policy = {});

  // Round-trip one idempotent query under the retry policy. Returns the
  // first typed result; throws RetriesExhaustedError when the transport
  // never yields one.
  [[nodiscard]] ClientResult query(const QueryRequest& request);
  [[nodiscard]] ServerStats stats();
  // Deliberately single-attempt: shutdown is not idempotent-observable — a
  // lost ACK after the server began draining would make every retry fail to
  // connect and misreport a successful shutdown as an error.
  void shutdown_server() { connected().shutdown_server(); }

  [[nodiscard]] const Stats& retry_stats() const noexcept { return stats_; }

 private:
  // Ensure a live connection exists (dial if needed; counts reconnects
  // after the first).
  Client& connected();
  void sleep_before_retry(std::uint32_t retry);
  // The one attempt/backoff/reconnect loop behind query() and stats():
  // runs `call` on a live connection until it returns a typed result or the
  // attempts run out (then throws RetriesExhaustedError).
  template <typename Call>
  std::invoke_result_t<Call, Client&> with_retries(Call call);

  std::uint16_t port_;
  RetryPolicy policy_;
  std::unique_ptr<Client> client_;
  bool ever_connected_ = false;
  common::SplitMix64 jitter_;
  Stats stats_;
};

}  // namespace datanet::server
