// Shared helpers of the benchmark binary: clocks, peak memory, bit-exact
// result digests, v1 views of internal results, and the one-line JSON
// report every mode prints last on stdout (run.py parses it).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/study.hpp"
#include "repro/api.hpp"
#include "sample/sample.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CLOCK_MONOTONIC seconds: the same clock Python's time.monotonic() reads,
/// so run.py can time set-up from before the spawn to the child's "ready".
inline double mono_now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident memory of this process (MB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A 64-bit hash over the exact bytes of every value added (FNV-1a style,
/// eight bytes a step): two digests are equal only when every double
/// matches bit for bit, barring a hash collision.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, 8);
      hash_ = (hash_ ^ word) * 0x100000001b3ULL;
      hash_ ^= hash_ >> 29;
    }
    for (; i < size; ++i) hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_result(Digest& d, const repro::v1::MeasurementResult& r);
void add_sweep(Digest& d, const repro::v1::SweepResult& sweep);
void add_recommendation(Digest& d, const repro::v1::Recommendation& rec);
void add_trace(Digest& d, const repro::workloads::LaunchTrace& trace);
void add_trace_result(Digest& d, const repro::sim::TraceResult& trace);

/// Field-for-field v1 views, identical to the facade's conversions.
repro::v1::MeasurementResult to_v1(const repro::core::ExperimentResult& r);
repro::v1::MeasurementResult to_v1(const repro::sample::SampledResult& r);

/// True when every field of the two internal results matches bit for bit,
/// the per-repetition K20Power measurements included.
bool identical(const repro::core::ExperimentResult& a,
               const repro::core::ExperimentResult& b);

/// The report line of one benchmark process. `checks` holds a message per
/// failed correctness check; `metrics` and `info` are name -> value.
struct Report {
  double ready_mono = 0.0;  // CLOCK_MONOTONIC when set-up finished
  double wall_s = 0.0;
  double rss_mb = 0.0;
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> checks;
  std::vector<double> latencies_ms;  // one per user call, where observed
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;

  void fail(std::string message) { checks.push_back(std::move(message)); }
  /// Prints the report as one JSON line on stdout.
  void print() const;
};

}  // namespace perfbench
