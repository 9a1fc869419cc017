// In-memory spans for the traced mode, recorded by the benchmark's own
// code around calls into the program's layers.
//
// Every span has a name, a start, an end, the span that encloses it (its
// parent, or none) and a batch id shared by the spans of one batch. A
// layer's self time is its span minus the time its child spans cover.
// Spans are recorded from one thread; nesting is tracked with a stack.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder's spans, -1 = root
  std::uint64_t batch = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t begin(const char* name, std::uint64_t batch) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, batch});
    open_.push_back(index);
    return index;
  }
  /// Closes the innermost open span.
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_.clear();
  }

  /// Σ self time (ns), Σ duration and span count per name, over the
  /// spans recorded from index `first` on (whose parents are all at or
  /// after `first`, or roots).
  struct Total {
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Total> totals(std::size_t first = 0) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Writes each lane's spans as one thread of a Chrome trace-event JSON
/// file (Perfetto opens it). Returns false when the file cannot be written.
bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const SpanRecorder*>>& lanes);

/// Opens a span for the scope when a recorder is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t batch)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(name, batch);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
