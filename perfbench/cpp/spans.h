// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside the library is instrumented.
// A span's name is "<layer>.<what>" (e.g. "sched.alg2"), where the layer is
// the library module the call enters ("bench" marks the benchmark's own
// root spans). Each span records start, end, its parent (the innermost span
// open when it started) and a call id shared by every span of one
// benchmark operation. Virtual-time request spans from a serving trace are
// kept on a separate track, since their clock is the model's, not the wall.
//
// With recording disabled, Scope costs one branch: no clock is read.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  explicit Spans(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. `call` < 0 inherits the
  /// parent's call id. `name` must outlive the recorder (a literal).
  int open(const char* name, int64_t call);
  void close(int index);

  /// A finished virtual-time span (times in model ms). Returns its index
  /// on the virtual track, for use as a later span's parent.
  int add_virtual(const char* name, double start_ms, double end_ms, int64_t request,
                  int parent);

  std::size_t size() const { return wall_.size() + virtual_.size(); }

  /// Writes every span as Chrome trace-event JSON (Perfetto opens it).
  /// Wall spans are pid 1 (timestamps in µs since the recorder started);
  /// virtual spans are pid 2 (model ms written as µs).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    int64_t call;
  };

  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> wall_;
  std::vector<Span> virtual_;
  std::vector<int> open_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Spans& spans, const char* name, int64_t call = -1)
      : spans_(spans), index_(spans.enabled() ? spans.open(name, call) : -1) {}
  ~Scope() {
    if (index_ >= 0) spans_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int index_;
};

}  // namespace perfbench
