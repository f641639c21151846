#include "trace.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

std::map<std::string, LayerTotals> aggregate(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, LayerTotals> out;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
      LayerTotals& l = out[spans[i].name];
      l.total_ms += static_cast<double>(dur) / 1e6;
      l.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
      ++l.count;
    }
  }
  return out;
}

void write_spans(const std::vector<const Tracer*>& tracers,
                 const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "# op\tname\tstart_ns\tend_ns\tparent\n");
  for (const Tracer* t : tracers) {
    std::fprintf(f, "#tracer\n");
    for (const Span& s : t->spans()) {
      std::fprintf(f, "%u\t%s\t%lld\t%lld\t%d\n", s.op, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  std::fclose(f);
}

}  // namespace perfbench
