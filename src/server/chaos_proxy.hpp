#pragma once
// ChaosProxy — a deterministic in-process TCP relay for torturing the
// datanetd wire. It listens on its own loopback port, dials the real server
// for each accepted connection, and injects one seeded fault per connection:
//
//   kReset     close the client socket before reading a byte (ECONNRESET /
//              EOF-before-reply at the client)
//   kTruncate  relay the request, then forward only HALF the reply frame and
//              close (mid-message EOF — the client must not accept a partial
//              frame; CRC framing + read_exact make this a typed error)
//   kStall     relay the request, swallow the reply, go silent for stall_ms,
//              then close (the client's idle timeout — not a human — must
//              notice)
//   kSplit     relay faithfully but dribble the reply in split_bytes chunks
//              with delay_ms pauses (MUST still succeed end-to-end with the
//              golden digest: slow is not wrong)
//   kCorrupt   flip one seeded bit inside the first relayed request frame's
//              payload (mid-connection byte corruption — the frame header
//              stays intact so the stream stays framed). The server's CRC
//              check must surface this as a typed bad_request and drop the
//              connection; a wrong answer is the one forbidden outcome
//   kClean     relay faithfully
//
// Determinism: connection k's fault is drawn from mt19937_64(seed ^ k) over
// the plan's mode weights, so a drill run is replayable from its seed alone
// — mode_of(k) is a pure function the drill and tests can precompute. The
// proxy never parses payloads (only frame headers), so it exercises exactly
// the failure surface a flaky network would.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "server/socket_io.hpp"

namespace datanet::server {

enum class FaultMode : std::uint8_t {
  kClean = 0,
  kReset = 1,
  kTruncate = 2,
  kStall = 3,
  kSplit = 4,
  kCorrupt = 5,
};

[[nodiscard]] const char* fault_mode_name(FaultMode m) noexcept;

struct ChaosPlan {
  std::uint64_t seed = 0;
  // Per-connection mode weights (relative; all-zero degenerates to kClean).
  std::uint32_t weight_clean = 1;
  std::uint32_t weight_reset = 1;
  std::uint32_t weight_truncate = 1;
  std::uint32_t weight_stall = 1;
  std::uint32_t weight_split = 1;
  // Default 0 so pre-existing drill schedules (pure functions of the seed
  // over the five original weights) replay unchanged; opt in explicitly.
  std::uint32_t weight_corrupt = 0;
  std::uint32_t stall_ms = 400;   // silence injected by kStall
  std::uint32_t delay_ms = 1;     // pause between kSplit chunks
  std::uint32_t split_bytes = 7;  // kSplit chunk size (deliberately odd)
};

class ChaosProxy {
 public:
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t clean = 0;
    std::uint64_t resets = 0;
    std::uint64_t truncations = 0;
    std::uint64_t stalls = 0;
    std::uint64_t splits = 0;
    std::uint64_t corruptions = 0;
  };

  // Binds an ephemeral loopback listener; relaying starts in start().
  ChaosProxy(std::uint16_t upstream_port, ChaosPlan plan);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  void start();
  void stop();  // idempotent; joins every relay thread

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  // The fault connection `index` (0-based accept order) will suffer — pure
  // function of (plan.seed, weights, index).
  [[nodiscard]] FaultMode mode_of(std::uint64_t index) const;
  [[nodiscard]] Stats stats() const;

 private:
  void accept_loop();
  // `up` is already connected (invalid for kReset). The Relay entry shares
  // both Fds so stop() can shut them and unblock a relay wedged in a read.
  void relay(const Fd& client, const Fd& up, FaultMode mode,
             std::uint64_t index);

  ChaosPlan plan_;
  std::uint16_t upstream_port_;
  Fd listener_;
  std::uint16_t port_ = 0;

  std::thread accept_thread_;
  std::mutex relays_mu_;
  struct Relay {
    std::thread thread;
    std::shared_ptr<Fd> client;
    std::shared_ptr<Fd> upstream;
  };
  std::vector<Relay> relays_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::mutex stop_mu_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace datanet::server
