#pragma once
// In-memory span recorder for the traced benchmark run. A span is one call
// into a layer, timed from the benchmark's own code: name, start, end, the
// span that caused it, and the op it belongs to. One Tracer per caller
// thread (no locking); spans are aggregated and written out after the run.
//
// A disabled Tracer records nothing, so the untraced run takes the same code
// path as the traced one minus the clock reads.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // static string: one of the layer names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same Tracer; -1 = root
  std::uint32_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_op(std::uint32_t op) noexcept { op_ = op; }

  // RAII span nested under whatever span is open on this tracer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(&t), idx_(t.open(name)) {}
    ~Scope() { t_->close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t index() const noexcept { return idx_; }

   private:
    Tracer* t_;
    std::int32_t idx_;
  };

  // A span whose interval was measured elsewhere (reply fields, a replayed
  // call); parented explicitly. Returns its index (-1 when disabled).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, op_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  // Make `idx` the parent of the next opened span (for replays recorded
  // after the op's own span has closed). -1 restores root nesting.
  void reopen(std::int32_t idx) noexcept { open_ = idx; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, open_, op_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t op_ = 0;
};

// Per-name totals over every span of every tracer. A span's self time is
// its duration minus the durations of its direct children.
struct LayerTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t count = 0;
};

[[nodiscard]] std::map<std::string, LayerTotals> aggregate(
    const std::vector<const Tracer*>& tracers);

// One line per span: op, name, start_ns, end_ns, parent (tab-separated,
// parent indices local to the tracer, tracers separated by a "#tracer" line).
void write_spans(const std::vector<const Tracer*>& tracers,
                 const std::string& path);

}  // namespace perfbench
