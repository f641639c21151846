#include "server/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace datanet::server {

std::uint32_t backoff_ms(const RetryPolicy& policy, std::uint32_t retry,
                         std::uint64_t jitter_bits) {
  // Shift with saturation: past 32 doublings everything is the cap.
  std::uint64_t exp = policy.base_backoff_ms;
  exp = retry >= 32 ? UINT64_MAX : exp << retry;
  const auto cap = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(policy.max_backoff_ms, exp));
  const std::uint32_t half = cap / 2;
  return half + static_cast<std::uint32_t>(jitter_bits % (half + 1));
}

ResilientClient::ResilientClient(std::uint16_t port, RetryPolicy policy)
    : port_(port), policy_(policy), jitter_(policy.seed) {}

Client& ResilientClient::connected() {
  if (client_ == nullptr) {
    client_ = std::make_unique<Client>(port_, policy_.timeout_ms);
    if (ever_connected_) ++stats_.reconnects;
    ever_connected_ = true;
  }
  return *client_;
}

void ResilientClient::sleep_before_retry(std::uint32_t retry) {
  const std::uint32_t ms = backoff_ms(policy_, retry, jitter_.next());
  if (ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

template <typename Call>
std::invoke_result_t<Call, Client&> ResilientClient::with_retries(Call call) {
  std::string last_error = "no attempts made";
  const std::uint32_t attempts = std::max(1u, policy_.max_attempts);
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt != 0) sleep_before_retry(attempt - 1);
    ++stats_.attempts;
    try {
      return call(connected());
    } catch (const SocketTimeoutError& e) {
      ++stats_.timeouts;
      last_error = e.what();
    } catch (const SocketError& e) {
      last_error = e.what();
    } catch (const ProtocolError& e) {
      // Corrupt/hostile reply bytes: the stream is unsynchronized, so the
      // connection is unusable even if the TCP session survives.
      ++stats_.protocol_errors;
      last_error = e.what();
    }
    client_.reset();  // retry on a FRESH connection
  }
  throw RetriesExhaustedError(attempts, last_error);
}

ClientResult ResilientClient::query(const QueryRequest& request) {
  return with_retries([&](Client& c) { return c.query(request); });
}

ServerStats ResilientClient::stats() {
  return with_retries([](Client& c) { return c.stats(); });
}

}  // namespace datanet::server
