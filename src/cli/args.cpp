#include "cli/args.hpp"

#include "common/string_util.hpp"

namespace datanet::cli {

std::optional<Args> Args::parse(const std::vector<std::string>& tokens,
                                std::string* error) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      args.positional_.push_back(tok);
      continue;
    }
    const std::string body = tok.substr(2);
    if (body.empty()) {
      if (error) *error = "bare '--' is not a valid flag";
      return std::nullopt;
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --flag value, or boolean --flag if the next token is another flag.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      args.flags_[body] = tokens[++i];
    } else {
      args.flags_[body] = "true";
    }
  }
  return args;
}

bool Args::has(const std::string& flag) const {
  touched_[flag] = true;
  return flags_.contains(flag);
}

std::optional<std::string> Args::get(const std::string& flag) const {
  touched_[flag] = true;
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& flag, std::string fallback) const {
  return get(flag).value_or(std::move(fallback));
}

std::optional<std::uint64_t> Args::get_u64(const std::string& flag) const {
  const auto s = get(flag);
  if (!s) return std::nullopt;
  return common::parse_u64(*s);
}

std::uint64_t Args::get_u64_or(const std::string& flag,
                               std::uint64_t fallback) const {
  return get_u64(flag).value_or(fallback);
}

std::optional<double> Args::get_double(const std::string& flag) const {
  const auto s = get(flag);
  if (!s) return std::nullopt;
  return common::parse_double(*s);
}

double Args::get_double_or(const std::string& flag, double fallback) const {
  return get_double(flag).value_or(fallback);
}

std::vector<std::string> Args::unused_flags() const {
  std::vector<std::string> unused;
  for (const auto& [name, _] : flags_) {
    if (!touched_.contains(name)) unused.push_back(name);
  }
  return unused;
}

int fail(std::ostream& out, const std::string& message) {
  out << "error: " << message << "\n";
  return 1;
}

void warn_unused(const Args& args, std::ostream& out) {
  for (const auto& flag : args.unused_flags()) {
    out << "warning: unknown flag --" << flag << " ignored\n";
  }
}

}  // namespace datanet::cli
