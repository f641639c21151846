#include "server/protocol.hpp"

#include "common/hash.hpp"
#include "dfs/wire.hpp"

namespace datanet::server {

namespace wire = dfs::wire;

std::string_view reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kBadRequest: return "bad_request";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kTooManyInflight: return "too_many_inflight";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kDeadlineExceeded: return "deadline_exceeded";
    case RejectReason::kCircuitOpen: return "circuit_open";
    case RejectReason::kShardUnavailable: return "shard_unavailable";
  }
  return "unknown";
}

std::string frame(std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw ProtocolError("datanetd protocol: oversized payload");
  }
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  wire::put_u32(out, kFrameMagic);
  wire::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(out, common::crc32(payload));
  out.append(payload);
  return out;
}

FrameHeader decode_frame_header(std::string_view header) {
  if (header.size() != kFrameHeaderBytes) {
    throw ProtocolError("datanetd protocol: short frame header");
  }
  wire::Cursor c(header);
  if (c.u32() != kFrameMagic) {
    throw ProtocolError("datanetd protocol: bad frame magic");
  }
  FrameHeader h;
  h.payload_len = c.u32();
  h.crc = c.u32();
  if (h.payload_len > kMaxPayloadBytes) {
    throw ProtocolError("datanetd protocol: frame length out of bounds");
  }
  return h;
}

void check_frame_payload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_len) {
    throw ProtocolError("datanetd protocol: truncated frame payload");
  }
  if (common::crc32(payload) != header.crc) {
    throw ProtocolError("datanetd protocol: frame checksum mismatch");
  }
}

namespace {

std::string tagged(MsgType type) {
  std::string out;
  out.push_back(static_cast<char>(type));
  return out;
}

// Tag check + cursor for one decoder; the caller must drain the cursor.
wire::Cursor open(std::string_view payload, MsgType expect) {
  if (peek_type(payload) != expect) {
    throw ProtocolError("datanetd protocol: unexpected message type");
  }
  wire::Cursor c(payload);
  (void)c.u8();  // tag
  return c;
}

void expect_drained(const wire::Cursor& c) {
  if (!c.exhausted()) {
    throw ProtocolError("datanetd protocol: trailing bytes in message");
  }
}

}  // namespace

std::string encode_query(const QueryRequest& q) {
  std::string out = tagged(MsgType::kQuery);
  wire::put_bytes(out, q.tenant);
  wire::put_bytes(out, q.key);
  wire::put_bytes(out, q.scheduler);
  out.push_back(q.use_datanet_meta ? 1 : 0);
  wire::put_u32(out, q.deadline_ms);
  return out;
}

std::string encode_query_ok(const QueryReply& r) {
  std::string out = tagged(MsgType::kQueryOk);
  wire::put_u64(out, r.digest);
  wire::put_u64(out, r.matched_bytes);
  wire::put_u64(out, r.blocks_scanned);
  wire::put_u64(out, r.service_micros);
  wire::put_u64(out, r.queue_micros);
  out.push_back(r.degraded ? 1 : 0);
  wire::put_u64(out, r.staleness_micros);
  return out;
}

std::string encode_rejected(const Rejection& r) {
  std::string out = tagged(MsgType::kRejected);
  out.push_back(static_cast<char>(r.reason));
  wire::put_bytes(out, r.detail);
  return out;
}

std::string encode_error(std::string_view what) {
  std::string out = tagged(MsgType::kError);
  wire::put_bytes(out, what);
  return out;
}

std::string encode_shutdown() { return tagged(MsgType::kShutdown); }

std::string encode_shutdown_ok() { return tagged(MsgType::kShutdownOk); }

std::string encode_stats() { return tagged(MsgType::kStats); }

std::string encode_stats_ok(const ServerStats& s) {
  std::string out = tagged(MsgType::kStatsOk);
  wire::put_u64(out, s.queries_served);
  wire::put_u64(out, s.cache_hits);
  wire::put_u64(out, s.cache_revalidations);
  wire::put_u64(out, s.cache_rebuilds);
  wire::put_u64(out, s.degraded_served);
  wire::put_u64(out, s.deadline_shed);
  wire::put_u64(out, s.circuit_rejected);
  wire::put_u32(out, s.meta_shards);
  wire::put_u32(out, static_cast<std::uint32_t>(s.tenants.size()));
  for (const TenantMeter& t : s.tenants) {
    wire::put_bytes(out, t.tenant);
    wire::put_u64(out, t.submitted);
    wire::put_u64(out, t.accepted);
    wire::put_u64(out, t.rejected_queue_full);
    wire::put_u64(out, t.rejected_inflight);
    wire::put_u64(out, t.dispatched);
    wire::put_u64(out, t.completed);
    wire::put_u64(out, t.queue_wait_micros);
  }
  wire::put_u64(out, s.cache_delta_applies);
  return out;
}

MsgType peek_type(std::string_view payload) {
  if (payload.empty()) {
    throw ProtocolError("datanetd protocol: empty payload");
  }
  const auto tag = static_cast<std::uint8_t>(payload[0]);
  if (tag < static_cast<std::uint8_t>(MsgType::kQuery) ||
      tag > static_cast<std::uint8_t>(MsgType::kStatsOk)) {
    throw ProtocolError("datanetd protocol: unknown message tag");
  }
  return static_cast<MsgType>(tag);
}

QueryRequest decode_query(std::string_view payload) {
  try {
    wire::Cursor c = open(payload, MsgType::kQuery);
    QueryRequest q;
    q.tenant = c.bytes();
    q.key = c.bytes();
    q.scheduler = c.bytes();
    q.use_datanet_meta = c.u8() != 0;
    q.deadline_ms = c.u32();
    expect_drained(c);
    return q;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& e) {
    // Cursor bounds failures surface as the generic truncation error; rewrap
    // so callers get one typed error for any malformed message.
    throw ProtocolError(std::string("datanetd protocol: ") + e.what());
  }
}

QueryReply decode_query_ok(std::string_view payload) {
  try {
    wire::Cursor c = open(payload, MsgType::kQueryOk);
    QueryReply r;
    r.digest = c.u64();
    r.matched_bytes = c.u64();
    r.blocks_scanned = c.u64();
    r.service_micros = c.u64();
    r.queue_micros = c.u64();
    r.degraded = c.u8() != 0;
    r.staleness_micros = c.u64();
    expect_drained(c);
    return r;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ProtocolError(std::string("datanetd protocol: ") + e.what());
  }
}

Rejection decode_rejected(std::string_view payload) {
  try {
    wire::Cursor c = open(payload, MsgType::kRejected);
    Rejection r;
    const std::uint8_t reason = c.u8();
    if (reason < static_cast<std::uint8_t>(RejectReason::kBadRequest) ||
        reason > static_cast<std::uint8_t>(RejectReason::kShardUnavailable)) {
      throw ProtocolError("datanetd protocol: unknown reject reason");
    }
    r.reason = static_cast<RejectReason>(reason);
    r.detail = c.bytes();
    expect_drained(c);
    return r;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ProtocolError(std::string("datanetd protocol: ") + e.what());
  }
}

ServerStats decode_stats_ok(std::string_view payload) {
  try {
    wire::Cursor c = open(payload, MsgType::kStatsOk);
    ServerStats s;
    s.queries_served = c.u64();
    s.cache_hits = c.u64();
    s.cache_revalidations = c.u64();
    s.cache_rebuilds = c.u64();
    s.degraded_served = c.u64();
    s.deadline_shed = c.u64();
    s.circuit_rejected = c.u64();
    s.meta_shards = c.u32();
    const std::uint32_t n = c.u32();
    // Each row is at least 64 bytes (an 8-byte name length + 7 u64
    // counters); an n that cannot fit in the remaining payload is a corrupt
    // count, not a row list, and must not size an allocation.
    if (n > c.remaining() / 64) {
      throw ProtocolError("datanetd protocol: corrupt tenant count");
    }
    s.tenants.resize(n);
    for (TenantMeter& t : s.tenants) {
      t.tenant = c.bytes();
      t.submitted = c.u64();
      t.accepted = c.u64();
      t.rejected_queue_full = c.u64();
      t.rejected_inflight = c.u64();
      t.dispatched = c.u64();
      t.completed = c.u64();
      t.queue_wait_micros = c.u64();
    }
    s.cache_delta_applies = c.u64();
    expect_drained(c);
    return s;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ProtocolError(std::string("datanetd protocol: ") + e.what());
  }
}

std::string decode_error(std::string_view payload) {
  try {
    wire::Cursor c = open(payload, MsgType::kError);
    std::string what = c.bytes();
    expect_drained(c);
    return what;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ProtocolError(std::string("datanetd protocol: ") + e.what());
  }
}

}  // namespace datanet::server
