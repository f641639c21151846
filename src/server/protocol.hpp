#pragma once
// datanetd wire protocol: length-prefixed CRC32-checked frames carrying one
// message each, built on the same dfs::wire little-endian primitives as the
// EditLog / FsImage persistence plane. A frame is
//
//   [u32 magic "DNQ1"][u32 payload_len][u32 crc32(payload)][payload]
//
// and a payload is one tag byte (MsgType) followed by the message fields.
// Both sides validate magic, bound the length, and verify the CRC before
// touching the payload, so a torn or corrupted stream surfaces as a typed
// ProtocolError instead of a malformed parse or an attacker-sized
// allocation — the same discipline as dfs::wire::Cursor.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace datanet::server {

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr std::uint32_t kFrameMagic = 0x31514e44u;  // "DNQ1" little-endian
constexpr std::size_t kFrameHeaderBytes = 12;
// Queries and replies are small; anything bigger than this is a corrupt
// length field, not a legitimate message.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kQuery = 1,       // client -> server: run one selection
  kQueryOk = 2,     // server -> client: selection digest + counters
  kRejected = 3,    // server -> client: typed admission/parse rejection
  kError = 4,       // server -> client: internal failure executing the query
  kShutdown = 5,    // client -> server: drain and exit
  kShutdownOk = 6,  // server -> client: shutdown acknowledged
  kStats = 7,       // client -> server: per-tenant metering snapshot
  kStatsOk = 8,     // server -> client: the snapshot
};

enum class RejectReason : std::uint8_t {
  kBadRequest = 1,        // unparseable / unknown scheduler / empty key
  kQueueFull = 2,         // tenant's bounded queue is at capacity
  kTooManyInflight = 3,   // queueless tenant already at its in-flight cap
  kShuttingDown = 4,      // server is draining
  kDeadlineExceeded = 5,  // queued past the query's deadline budget; shed
  kCircuitOpen = 6,       // tenant's failure circuit breaker is open
  kShardUnavailable = 7,  // owning metadata shard down, no cached bundle
};

[[nodiscard]] std::string_view reject_reason_name(RejectReason r);

// One sub-dataset selection request, the wire-shaped subset of
// core::ExperimentConfig the server lets a tenant choose per query.
struct QueryRequest {
  std::string tenant;            // admission-control identity
  std::string key;               // sub-dataset key to select
  std::string scheduler = "datanet";  // datanet | locality | lpt | maxflow
  bool use_datanet_meta = true;  // false = content-blind baseline graph
  // Deadline budget in milliseconds, measured from admission (0 = no
  // deadline). A job granted its execution slot after the budget elapsed is
  // shed with a typed kDeadlineExceeded rejection instead of doing stale
  // work.
  std::uint32_t deadline_ms = 0;
};

struct QueryReply {
  std::uint64_t digest = 0;         // selection_digest over node-local data
  std::uint64_t matched_bytes = 0;  // total filtered bytes
  std::uint64_t blocks_scanned = 0;
  std::uint64_t service_micros = 0;  // execution time, excluding queue wait
  std::uint64_t queue_micros = 0;    // admission -> dispatch wait
  // True when the reply was computed in degraded mode — the owning
  // metadata shard was down and the server answered from its epoch-cached
  // bundle (last validated DataNet + last-known block placement).
  bool degraded = false;
  // The error bound of a DEGRADED reply: the bytes of the file's blocks
  // the answering bundle does not cover (ElasticMapArray::stale_bytes
  // against the shard snapshot). For every key, the bytes the reply missed
  // and the amount its Eq. 6 estimates sit below a fresh build's are each
  // at most this. Zero on non-degraded replies: those were validated on
  // this query.
  std::uint64_t stale_bytes = 0;
};

struct Rejection {
  RejectReason reason = RejectReason::kBadRequest;
  std::string detail;
};

// Per-tenant metering row in a stats snapshot — the wire shape of the
// dispatcher's TenantStats (kept field-flat here so the protocol stays free
// of dispatcher knowledge).
struct TenantMeter {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t queue_wait_micros = 0;  // total admission -> dispatch wait
};

// Server-wide snapshot answered to a kStats request.
struct ServerStats {
  std::uint64_t queries_served = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_revalidations = 0;
  std::uint64_t cache_rebuilds = 0;
  // Resilience counters: queries answered from the epoch-cached bundle
  // while the owning shard was down, queries shed past their deadline, and
  // submissions rejected by an open per-tenant circuit breaker.
  std::uint64_t degraded_served = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t circuit_rejected = 0;
  std::vector<TenantMeter> tenants;  // dispatcher registration order
  // Dataset-cache growth absorbed by delta-apply (incremental ElasticMap
  // extension) instead of a full rebuild.
  std::uint64_t cache_delta_applies = 0;
};

// ---- frame layer ----

// Wrap a payload into a single framed buffer ready to write to the socket.
[[nodiscard]] std::string frame(std::string_view payload);

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};

// Parse + validate the fixed 12-byte header (magic, bounded length).
[[nodiscard]] FrameHeader decode_frame_header(std::string_view header);

// Verify a received payload against its header CRC.
void check_frame_payload(const FrameHeader& header, std::string_view payload);

// ---- message layer ----

[[nodiscard]] std::string encode_query(const QueryRequest& q);
[[nodiscard]] std::string encode_query_ok(const QueryReply& r);
[[nodiscard]] std::string encode_rejected(const Rejection& r);
[[nodiscard]] std::string encode_error(std::string_view what);
[[nodiscard]] std::string encode_shutdown();
[[nodiscard]] std::string encode_shutdown_ok();
[[nodiscard]] std::string encode_stats();
[[nodiscard]] std::string encode_stats_ok(const ServerStats& s);

// First byte of a validated payload; throws ProtocolError on empty payloads
// or tags outside the MsgType range.
[[nodiscard]] MsgType peek_type(std::string_view payload);

// Each decoder checks the tag and reads every field of the one message
// layout: a short payload is a ProtocolError, and so are trailing bytes
// (same as FsImage::load).
[[nodiscard]] QueryRequest decode_query(std::string_view payload);
[[nodiscard]] QueryReply decode_query_ok(std::string_view payload);
[[nodiscard]] Rejection decode_rejected(std::string_view payload);
[[nodiscard]] std::string decode_error(std::string_view payload);
[[nodiscard]] ServerStats decode_stats_ok(std::string_view payload);

}  // namespace datanet::server
