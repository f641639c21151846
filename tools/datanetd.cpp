// datanetd process entry point: the always-on multi-tenant selection daemon.
// Equivalent to `datanet serve` — all logic lives in src/cli and src/server
// (tested); this binary exists so deployments and the CI smoke script have a
// dedicated daemon executable.

#include <iostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> tokens(argv + 1, argv + argc);
  if (!tokens.empty() && (tokens[0] == "--help" || tokens[0] == "help")) {
    std::cout << "datanetd — DataNet selection daemon\n"
              << "usage: datanetd [--port P] [--port-file FILE] [--workers W]\n"
              << "                [--max-queue Q] [--max-inflight I]\n"
              << "                [--max-connections C] [--nodes N]\n"
              << "                [--block-size BYTES] [--replication R]\n"
              << "                [--seed S] [--blocks B]\n"
              << "--workers W: queries executing at once across all tenants\n"
              << "             (default 2); each runs on its connection's\n"
              << "             handler thread\n"
              << "Stop it with: datanet query --port P --shutdown\n";
    return 0;
  }
  std::string error;
  const auto args = datanet::cli::Args::parse(tokens, &error);
  if (!args) {
    std::cout << "error: " << error << "\n";
    return 1;
  }
  return datanet::cli::cmd_serve(*args, std::cout);
}
