#pragma once
// Blocking datanetd client: one loopback TCP connection, strict
// request-response framing. Used by `datanet query`, the end-to-end tests
// and perfbench's serve-small workload; thread-compatible (one Client per
// thread), not thread-safe.

#include <cstdint>
#include <string>

#include "server/protocol.hpp"
#include "server/socket_io.hpp"

namespace datanet::server {

// A decoded server response of any kind.
struct ClientResult {
  enum class Status : std::uint8_t { kOk, kRejected, kError };
  Status status = Status::kError;
  QueryReply reply;      // valid when kOk
  Rejection rejection;   // valid when kRejected
  std::string error;     // valid when kError
  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

class Client {
 public:
  // Connects immediately; throws SocketError when nothing listens.
  // io_timeout_ms bounds every socket wait of a round-trip (request write,
  // reply header, reply payload) as an IDLE timeout — a stalled server trips
  // SocketTimeoutError instead of hanging the caller forever. Unlike the
  // server handler, the wait for the FIRST reply byte is also bounded: the
  // client just sent a request, so silence IS the failure. 0 = block forever
  // (legacy behaviour).
  explicit Client(std::uint16_t port, std::uint32_t io_timeout_ms = 0);

  // Round-trip one query. Throws SocketError / ProtocolError on transport
  // failures; admission rejections and execution errors come back as a
  // ClientResult, not an exception — they are protocol results.
  [[nodiscard]] ClientResult query(const QueryRequest& request);

  // Fetch the server's metering snapshot (queries served, cache counters,
  // plane shard count, per-tenant meters). Throws on transport failures.
  [[nodiscard]] ServerStats stats();

  // Ask the server to drain and exit; returns once the ack arrives.
  void shutdown_server();

 private:
  [[nodiscard]] std::string round_trip(const std::string& payload);

  Fd fd_;
  std::uint32_t io_timeout_ms_ = 0;
};

}  // namespace datanet::server
