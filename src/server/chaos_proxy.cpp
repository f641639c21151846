#include "server/chaos_proxy.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "server/protocol.hpp"

namespace datanet::server {

namespace {

// Read one complete frame (header + payload) and return its raw bytes
// verbatim — the proxy relays, it does not re-encode. nullopt on clean EOF
// at a frame boundary; SocketError on mid-frame EOF (the relay then just
// closes both sides, which is exactly what a flaky middlebox would do).
std::optional<std::string> read_frame(const Fd& fd) {
  auto header_bytes = read_exact(fd, kFrameHeaderBytes);
  if (!header_bytes.has_value()) return std::nullopt;
  const FrameHeader header = decode_frame_header(*header_bytes);
  auto payload = read_exact(fd, header.payload_len);
  if (!payload.has_value()) {
    throw SocketError("chaos proxy: peer closed mid-frame");
  }
  return *header_bytes + *payload;
}

}  // namespace

const char* fault_mode_name(FaultMode m) noexcept {
  switch (m) {
    case FaultMode::kClean:
      return "clean";
    case FaultMode::kReset:
      return "reset";
    case FaultMode::kTruncate:
      return "truncate";
    case FaultMode::kStall:
      return "stall";
    case FaultMode::kSplit:
      return "split";
    case FaultMode::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

ChaosProxy::ChaosProxy(std::uint16_t upstream_port, ChaosPlan plan)
    : plan_(plan), upstream_port_(upstream_port) {
  auto [fd, port] = listen_loopback(0);
  listener_ = std::move(fd);
  port_ = port;
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (started_.exchange(true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  std::lock_guard stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Relay> relays;
  {
    std::lock_guard lock(relays_mu_);
    relays.swap(relays_);
  }
  for (Relay& r : relays) {
    if (r.client->valid()) ::shutdown(r.client->get(), SHUT_RDWR);
    if (r.upstream->valid()) ::shutdown(r.upstream->get(), SHUT_RDWR);
  }
  for (Relay& r : relays) {
    if (r.thread.joinable()) r.thread.join();
  }
  listener_.reset();
}

FaultMode ChaosProxy::mode_of(std::uint64_t index) const {
  const std::uint32_t weights[6] = {plan_.weight_clean,    plan_.weight_reset,
                                    plan_.weight_truncate, plan_.weight_stall,
                                    plan_.weight_split,    plan_.weight_corrupt};
  std::uint64_t total = 0;
  for (const std::uint32_t w : weights) total += w;
  if (total == 0) return FaultMode::kClean;
  // One generator per connection, seeded from (plan seed, index): the whole
  // fault schedule is a pure function of the seed, independent of timing.
  std::mt19937_64 rng(plan_.seed ^ (index * 0x9e3779b97f4a7c15ull + 1));
  std::uint64_t draw = rng() % total;
  for (std::uint8_t m = 0; m < 6; ++m) {
    if (draw < weights[m]) return static_cast<FaultMode>(m);
    draw -= weights[m];
  }
  return FaultMode::kClean;
}

void ChaosProxy::accept_loop() {
  std::uint64_t index = 0;
  for (;;) {
    auto client = accept_client(listener_);
    if (!client.has_value()) return;  // listener shut down
    const FaultMode mode = mode_of(index++);
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.connections;
      switch (mode) {
        case FaultMode::kClean:
          ++stats_.clean;
          break;
        case FaultMode::kReset:
          ++stats_.resets;
          break;
        case FaultMode::kTruncate:
          ++stats_.truncations;
          break;
        case FaultMode::kStall:
          ++stats_.stalls;
          break;
        case FaultMode::kSplit:
          ++stats_.splits;
          break;
        case FaultMode::kCorrupt:
          ++stats_.corruptions;
          break;
      }
    }
    // Dial upstream before the Relay is published: stop() reads both Fds
    // from another thread, so no relay thread may write them afterwards.
    // kReset never dials; a failed dial closes the client, as a torn relay
    // does.
    Fd upstream;
    if (mode != FaultMode::kReset) {
      try {
        upstream = connect_loopback(upstream_port_);
      } catch (const std::exception&) {
        continue;
      }
    }
    Relay r;
    r.client = std::make_shared<Fd>(std::move(*client));
    r.upstream = std::make_shared<Fd>(std::move(upstream));
    r.thread = std::thread([this, client_fd = r.client,
                            upstream_fd = r.upstream, mode,
                            conn = index - 1] {
      try {
        relay(*client_fd, *upstream_fd, mode, conn);
      } catch (const std::exception&) {
        // A torn connection is chaos working as intended, not a proxy bug.
      }
      if (client_fd->valid()) ::shutdown(client_fd->get(), SHUT_RDWR);
      if (upstream_fd->valid()) ::shutdown(upstream_fd->get(), SHUT_RDWR);
    });
    std::lock_guard lock(relays_mu_);
    relays_.push_back(std::move(r));
  }
}

void ChaosProxy::relay(const Fd& client, const Fd& up, FaultMode mode,
                       std::uint64_t index) {
  if (mode == FaultMode::kReset) return;  // slam the door unread

  bool corrupted = false;
  for (;;) {
    auto request = read_frame(client);
    if (!request.has_value()) return;  // client done
    if (mode == FaultMode::kCorrupt && !corrupted &&
        request->size() > kFrameHeaderBytes) {
      // Flip one seeded bit inside the request PAYLOAD (header untouched so
      // the upstream stream stays framed and the damage is the payload CRC's
      // problem, exactly the surface a flaky NIC would hit). Seeded from
      // (plan seed, connection index) like mode_of, so the drill replays.
      std::mt19937_64 rng(plan_.seed ^ (index * 0x9e3779b97f4a7c15ull + 2));
      const std::size_t payload_bits =
          (request->size() - kFrameHeaderBytes) * 8;
      const std::size_t bit = rng() % payload_bits;
      (*request)[kFrameHeaderBytes + bit / 8] ^=
          static_cast<char>(1u << (bit % 8));
      corrupted = true;
    }
    write_all(up, *request);
    auto reply = read_frame(up);
    if (!reply.has_value()) return;  // server went away

    switch (mode) {
      case FaultMode::kTruncate:
        // Half the frame, then EOF: the client's CRC framing must refuse
        // to treat this as a reply.
        write_all(client, std::string_view(*reply).substr(0, reply->size() / 2));
        return;
      case FaultMode::kStall: {
        // Swallow the reply and go silent; the client's idle deadline has
        // to be the thing that ends this. Sleep in slices so stop() isn't
        // held hostage by the stall.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(plan_.stall_ms);
        while (std::chrono::steady_clock::now() < deadline &&
               !stopping_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return;
      }
      case FaultMode::kSplit: {
        // Dribble the reply: correct bytes, pathological pacing. This MUST
        // still succeed end-to-end — slow is not wrong, and the client's
        // IDLE (not total) timeout is what makes that true.
        const std::size_t chunk = std::max<std::uint32_t>(1, plan_.split_bytes);
        std::string_view rest(*reply);
        while (!rest.empty()) {
          write_all(client, rest.substr(0, std::min(chunk, rest.size())));
          rest.remove_prefix(std::min(chunk, rest.size()));
          if (!rest.empty() && plan_.delay_ms != 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(plan_.delay_ms));
          }
        }
        break;  // keep relaying further exchanges
      }
      case FaultMode::kClean:
      case FaultMode::kCorrupt:
        // Corruption happened on the way UP; the server's typed rejection
        // (and its connection drop) comes back verbatim.
        write_all(client, *reply);
        break;
      case FaultMode::kReset:
        return;  // unreachable (handled above)
    }
  }
}

ChaosProxy::Stats ChaosProxy::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace datanet::server
