// Outside-in tracing: spans recorded by the benchmark around its calls into
// the public functions of each layer. Nothing inside the program is
// instrumented; a layer's time is the span of the call into it, and its
// self time is that span minus the spans of the calls it makes (or of the
// "shadow" call that replays the same request against the layer below).
//
// Spans live in one preallocated buffer and are written out once, at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: its name, when it started and ended, the span that
/// caused it (0 = none), and the request it served.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  // 1-based index into the buffer; 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// `names` is the fixed span-name table; a span's name is its index.
  Tracer(std::vector<std::string> names, size_t capacity);

  /// Opens a span and returns its 1-based id (for End and as a parent).
  uint32_t Begin(uint32_t name, uint64_t request, uint32_t parent = 0) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  /// Records a span whose times were taken elsewhere.
  uint32_t Record(uint32_t name, uint64_t request, int64_t start_ns,
                  int64_t end_ns, uint32_t parent = 0) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }

  /// Makes room for `more` spans, so recording them does not reallocate.
  void Reserve(size_t more) { spans_.reserve(spans_.size() + more); }
  size_t size() const { return spans_.size(); }
  const std::string& name(uint32_t id) const { return names_[id]; }

  /// Calls `fn(request, micros)` once per request id, in order of first
  /// appearance, where micros[name] is the summed duration in µs of that
  /// request's spans of each name (negative when it has none).
  void ForEachRequest(
      const std::function<void(uint64_t, const std::vector<double>&)>& fn)
      const;

  /// Writes every span as one tab-separated line:
  /// request, name, start_ns, end_ns, parent (start and end relative to the
  /// first span). Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
