// In-memory span recorder for the traced run (README.md, "Traced run").
//
// A span is (name, detail, start, end, parent, thread) recorded around one
// call into a layer from the benchmark's own code. Spans stay in memory
// and are written out once, at the end of the run. A layer's self time is
// its spans' durations minus the time their child spans cover; children
// run on the parent's thread, one after another inside its interval, so
// that is the plain sum of the children's durations (check() verifies it).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string detail;  // e.g. the program of a trace build
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the log, -1 for a root span
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open in this log.
  int open(std::string name, std::string detail = {});
  void close(int index);

  std::vector<SpanRecord> records() const;

  /// Self time per span name (seconds).
  std::map<std::string, double> self_times() const;
  /// Total duration per span name (seconds).
  std::map<std::string, double> totals() const;
  /// Total duration per detail of spans named `name`.
  std::map<std::string, double> totals_by_detail(const std::string& name) const;
  /// Checks that no time is counted twice: every span was closed after it
  /// opened, every child lies inside its parent's interval on its parent's
  /// thread, and the children of a span cover no more than its duration,
  /// so no self time is negative. Returns the first violation, or "".
  std::string check() const;
  /// The smallest self time of any span (seconds).
  double min_self_s() const;

  /// Writes one JSON object per span.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class Span {
 public:
  Span(SpanLog* log, std::string name, std::string detail = {})
      : log_(log), index_(log ? log->open(std::move(name), std::move(detail)) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
