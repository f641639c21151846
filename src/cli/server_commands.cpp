// The datanetd serving pair: `serve` runs the always-on multi-tenant
// selection daemon over a deterministic hosted dataset, `query` is the
// client (with an in-process --local mode that recomputes the golden digest
// for the same dataset shape — the CI smoke test compares the two).

#include <fstream>
#include <iostream>

#include "cli/commands.hpp"
#include "server/client.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"

namespace datanet::cli {

namespace {

// Dataset-shape flags shared by serve and query --local; both sides must
// agree on these for the digest contract to hold.
server::ServerOptions shape_options(const Args& args) {
  server::ServerOptions opts;
  opts.cfg.num_nodes =
      static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
  opts.cfg.block_size = args.get_u64_or("block-size", 128 * 1024);
  opts.cfg.replication =
      static_cast<std::uint32_t>(args.get_u64_or("replication", 3));
  opts.cfg.seed = args.get_u64_or("seed", 42);
  opts.dataset_blocks = args.get_u64_or("blocks", 64);
  return opts;
}

void print_reply(std::ostream& out, const server::QueryReply& r, bool json) {
  if (json) {
    out << "{\"digest\": " << r.digest
        << ", \"matched_bytes\": " << r.matched_bytes
        << ", \"blocks_scanned\": " << r.blocks_scanned
        << ", \"service_micros\": " << r.service_micros
        << ", \"queue_micros\": " << r.queue_micros
        << ", \"degraded\": " << (r.degraded ? "true" : "false")
        << ", \"stale_bytes\": " << r.stale_bytes << "}\n";
  } else {
    out << "digest=" << r.digest << " matched_bytes=" << r.matched_bytes
        << " blocks_scanned=" << r.blocks_scanned
        << " service_us=" << r.service_micros
        << " queue_us=" << r.queue_micros;
    if (r.degraded) {
      out << " degraded=1 stale_bytes=" << r.stale_bytes;
    }
    out << "\n";
  }
}

void print_stats(std::ostream& out, const server::ServerStats& s, bool json) {
  if (json) {
    out << "{\"queries_served\": " << s.queries_served
        << ", \"degraded_served\": " << s.degraded_served
        << ", \"deadline_shed\": " << s.deadline_shed
        << ", \"circuit_rejected\": " << s.circuit_rejected
        << ", \"cache\": {\"hits\": " << s.cache_hits
        << ", \"revalidations\": " << s.cache_revalidations
        << ", \"rebuilds\": " << s.cache_rebuilds
        << ", \"delta_applies\": " << s.cache_delta_applies
        << "}, \"tenants\": [";
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
      const server::TenantMeter& t = s.tenants[i];
      out << (i > 0 ? ", " : "") << "{\"tenant\": \"" << t.tenant << "\""
          << ", \"submitted\": " << t.submitted
          << ", \"accepted\": " << t.accepted
          << ", \"rejected_queue_full\": " << t.rejected_queue_full
          << ", \"rejected_inflight\": " << t.rejected_inflight
          << ", \"dispatched\": " << t.dispatched
          << ", \"completed\": " << t.completed
          << ", \"queue_wait_micros\": " << t.queue_wait_micros << "}";
    }
    out << "]}\n";
  } else {
    out << "queries_served=" << s.queries_served
        << " degraded_served=" << s.degraded_served
        << " deadline_shed=" << s.deadline_shed
        << " circuit_rejected=" << s.circuit_rejected
        << " cache_hits=" << s.cache_hits
        << " cache_revalidations=" << s.cache_revalidations
        << " cache_rebuilds=" << s.cache_rebuilds
        << " cache_delta_applies=" << s.cache_delta_applies << "\n";
    for (const server::TenantMeter& t : s.tenants) {
      out << "tenant " << t.tenant << ": submitted=" << t.submitted
          << " accepted=" << t.accepted
          << " rejected_queue_full=" << t.rejected_queue_full
          << " rejected_inflight=" << t.rejected_inflight
          << " dispatched=" << t.dispatched << " completed=" << t.completed
          << " queue_wait_us=" << t.queue_wait_micros << "\n";
    }
  }
}

}  // namespace

int cmd_serve(const Args& args, std::ostream& out) {
  server::ServerOptions opts = shape_options(args);
  opts.port = static_cast<std::uint16_t>(args.get_u64_or("port", 0));
  opts.workers = static_cast<std::uint32_t>(args.get_u64_or("workers", 2));
  opts.max_connections =
      static_cast<std::uint32_t>(args.get_u64_or("max-connections", 64));
  opts.default_limits.max_queue = args.get_u64_or("max-queue", 64);
  opts.default_limits.max_inflight = args.get_u64_or("max-inflight", 4);
  opts.io_timeout_ms =
      static_cast<std::uint32_t>(args.get_u64_or("io-timeout-ms", 10'000));
  opts.breaker.failure_threshold = static_cast<std::uint32_t>(
      args.get_u64_or("breaker-threshold", 0));  // 0 = breaker off
  opts.breaker.probe_interval =
      static_cast<std::uint32_t>(args.get_u64_or("breaker-probe", 4));
  const std::string port_file = args.get_or("port-file", "");
  warn_unused(args, out);

  try {
    server::Server srv(opts);
    srv.start();
    out << "datanetd listening on 127.0.0.1:" << srv.port() << " ("
        << srv.plane().num_shards() << " metadata shard(s))\n";
    out.flush();
    if (!port_file.empty()) {
      // Written after the listener is live, so a script polling the file
      // can connect as soon as it appears.
      std::ofstream f(port_file, std::ios::trunc);
      f << srv.port() << "\n";
    }
    srv.wait();
    srv.stop();
    const auto cache = srv.cache().stats();
    out << "datanetd: served " << srv.queries_served()
        << " queries; metadata cache hits=" << cache.hits
        << " revalidations=" << cache.revalidations
        << " rebuilds=" << cache.rebuilds
        << " delta_applies=" << cache.delta_applies << "\n";
    return 0;
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
}

int cmd_query(const Args& args, std::ostream& out) {
  const server::ServerOptions shape = shape_options(args);
  server::QueryRequest request;
  request.tenant = args.get_or("tenant", "default");
  request.key = args.get_or("key", "");
  request.scheduler = args.get_or("scheduler", "datanet");
  request.use_datanet_meta = !args.has("baseline");
  request.deadline_ms =
      static_cast<std::uint32_t>(args.get_u64_or("deadline-ms", 0));
  server::RetryPolicy retry;
  retry.max_attempts =
      static_cast<std::uint32_t>(args.get_u64_or("retries", 3));
  retry.timeout_ms =
      static_cast<std::uint32_t>(args.get_u64_or("timeout-ms", 2'000));
  retry.seed = args.get_u64_or("retry-seed", 0);
  const bool local = args.has("local");
  const bool do_shutdown = args.has("shutdown");
  const bool do_stats = args.has("stats");
  const bool json = args.has("json");
  const std::uint64_t count = args.get_u64_or("count", 1);
  const auto port = args.get_u64("port");
  warn_unused(args, out);

  if (local) {
    if (request.key.empty()) return fail(out, "--key is required");
    for (std::uint64_t i = 0; i < count; ++i) {
      const server::QueryOutcome outcome = server::local_query(shape, request);
      if (!outcome.ok) return fail(out, outcome.error);
      print_reply(out, outcome.reply, json);
    }
    return 0;
  }
  if (!port.has_value()) {
    return fail(out, "--port is required (or use --local)");
  }
  if (request.key.empty() && !do_shutdown && !do_stats) {
    return fail(out, "--key is required (or --stats/--shutdown)");
  }
  try {
    // ResilientClient: transport failures (reset, truncation, stall, corrupt
    // frame) retry on a fresh connection under --retries/--timeout-ms;
    // typed server answers come back as results.
    server::ResilientClient client(static_cast<std::uint16_t>(*port), retry);
    if (!request.key.empty()) {
      for (std::uint64_t i = 0; i < count; ++i) {
        const server::ClientResult result = client.query(request);
        switch (result.status) {
          case server::ClientResult::Status::kOk:
            print_reply(out, result.reply, json);
            break;
          case server::ClientResult::Status::kRejected:
            out << "rejected: "
                << server::reject_reason_name(result.rejection.reason) << " ("
                << result.rejection.detail << ")\n";
            return 2;
          case server::ClientResult::Status::kError:
            return fail(out, "server error: " + result.error);
        }
      }
    }
    if (do_stats) {
      print_stats(out, client.stats(), json);
    }
    if (do_shutdown) {
      client.shutdown_server();
      out << "server shutdown acknowledged\n";
    }
    return 0;
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
}

}  // namespace datanet::cli
