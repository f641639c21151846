#pragma once
// Minimal argument parsing for the datanet CLI. Flags are --name value or
// --name=value; anything else is positional. Typed getters validate and
// report errors without exceptions crossing the CLI boundary.

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace datanet::cli {

class Args {
 public:
  // Parse argv-style tokens (not including the program/command name).
  // Returns nullopt and sets `error` on malformed input (e.g. trailing
  // --flag without a value).
  static std::optional<Args> parse(const std::vector<std::string>& tokens,
                                   std::string* error);

  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& flag) const;
  [[nodiscard]] std::string get_or(const std::string& flag,
                                   std::string fallback) const;
  [[nodiscard]] std::optional<std::uint64_t> get_u64(const std::string& flag) const;
  [[nodiscard]] std::uint64_t get_u64_or(const std::string& flag,
                                         std::uint64_t fallback) const;
  [[nodiscard]] std::optional<double> get_double(const std::string& flag) const;
  [[nodiscard]] double get_double_or(const std::string& flag,
                                     double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  // Flags consumed by none of the getters so far — typo detection.
  [[nodiscard]] std::vector<std::string> unused_flags() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> touched_;
};

// Shared by the command implementations: print "error: <message>" and
// return exit code 1; warn about each flag no getter consumed.
int fail(std::ostream& out, const std::string& message);
void warn_unused(const Args& args, std::ostream& out);

}  // namespace datanet::cli
