#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer(std::vector<std::string> names, size_t capacity)
    : names_(std::move(names)) {
  spans_.reserve(capacity);
}

void Tracer::ForEachRequest(
    const std::function<void(uint64_t, const std::vector<double>&)>& fn)
    const {
  // Spans of one request are mostly contiguous, but pipelined wire requests
  // interleave, so group by id first and keep first-appearance order.
  std::unordered_map<uint64_t, size_t> slot;
  std::vector<uint64_t> order;
  std::vector<std::vector<double>> micros;
  for (const Span& span : spans_) {
    auto [it, inserted] = slot.try_emplace(span.request, order.size());
    if (inserted) {
      order.push_back(span.request);
      micros.emplace_back(names_.size(), -1.0);
    }
    double& total = micros[it->second][span.name];
    if (total < 0) total = 0;
    total += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  for (size_t i = 0; i < order.size(); ++i) fn(order[i], micros[i]);
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "request\tname\tstart_ns\tend_ns\tparent\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%llu\t%s\t%lld\t%lld\t%u\n",
                 static_cast<unsigned long long>(span.request),
                 names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns - epoch),
                 static_cast<long long>(span.end_ns - epoch), span.parent);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
