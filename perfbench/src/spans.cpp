#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::map<std::string, SpanRecorder::Total> SpanRecorder::totals(std::size_t first) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const std::uint64_t duration = span.end_ns - span.start_ns;
    auto& total = out[span.name];
    total.total_ns += duration;
    total.self_ns += duration - child_ns[i];
    ++total.count;
  }
  return out;
}

bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const SpanRecorder*>>& lanes) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& lane : lanes) {
    for (const auto& span : lane.second->spans()) origin = std::min(origin, span.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char line[384];
  bool first = true;
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid + 1, lanes[tid].first.c_str());
    out << line;
    first = false;
    const auto& spans = lanes[tid].second->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& span = spans[i];
      std::snprintf(line, sizeof line,
                    ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%d,\"batch\":%llu}}",
                    span.name, tid + 1, static_cast<double>(span.start_ns - origin) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                    static_cast<unsigned long long>(span.batch));
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
