// The traced routine of the benchmark (README.md, "Traced run"), applied to
// every experiment a workload computes:
//
//  1. `core::Study` measures the experiment through a `TracedWorkload`, a
//     forwarding wrapper whose `trace()` times each trace build (span
//     `suites.trace_build`) and, on the trace it just built, one
//     `sim::run_trace` (span `sim.run_trace`). Build counts therefore
//     follow whatever the Study actually asks for.
//  2. `recompose` replays Study's repetition loop stage by stage, in
//     Study's order, through the same public functions (`core::perturb`,
//     `sensor::synthesize_into`, `thermal::simulate`,
//     `Sensor::record_into`, `k20power::analyze`), one span per stage, and
//     checks the result bit-identical to the Study's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "sim/gpuconfig.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

/// Counts taken at the layer boundaries of the traced run.
class LayerTally {
 public:
  void trace_built(std::uint64_t trace_digest);
  void simulated(const std::string& key, std::uint64_t result_digest,
                 std::size_t phases);
  void repetition(std::size_t samples, bool usable);

  /// Digest of the wrapper's own run_trace result for `key`; false when
  /// the wrapper never built that experiment's trace.
  bool sim_digest(const std::string& key, std::uint64_t& out) const;

  std::uint64_t builds() const;
  double distinct_frac() const;
  std::uint64_t phases() const;
  std::uint64_t samples() const;
  double unusable_frac() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t builds_ = 0;
  std::set<std::uint64_t> trace_digests_;
  std::map<std::string, std::uint64_t> sim_digests_;
  std::uint64_t phases_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t repetitions_ = 0;
  std::uint64_t unusable_ = 0;
};

/// Forwarding wrapper of one registry workload; see the file comment.
class TracedWorkload final : public repro::workloads::Workload {
 public:
  TracedWorkload(const repro::workloads::Workload& inner, SpanLog& log,
                 LayerTally& tally,
                 const std::vector<repro::sim::GpuConfig>& configs)
      : inner_(inner), log_(log), tally_(tally), configs_(configs) {}

  std::string_view name() const override { return inner_.name(); }
  std::string_view suite() const override { return inner_.suite(); }
  int num_global_kernels() const override {
    return inner_.num_global_kernels();
  }
  repro::workloads::Boundedness boundedness() const override {
    return inner_.boundedness();
  }
  repro::workloads::Regularity regularity() const override {
    return inner_.regularity();
  }
  std::vector<repro::workloads::InputSpec> inputs() const override {
    return inner_.inputs();
  }
  std::string_view variant() const override { return inner_.variant(); }
  double ecc_power_adjustment() const override {
    return inner_.ecc_power_adjustment();
  }
  ItemCounts items(std::size_t input_index) const override {
    return inner_.items(input_index);
  }

  repro::workloads::LaunchTrace trace(
      std::size_t input_index,
      const repro::workloads::ExecContext& ctx) const override;

 private:
  const repro::workloads::Workload& inner_;
  SpanLog& log_;
  LayerTally& tally_;
  // Operating points the run measures; a trace context is matched to one
  // by (core MHz, memory MHz, ECC) to time its run_trace.
  const std::vector<repro::sim::GpuConfig>& configs_;
};

/// Wrappers for every registry program, keyed by name.
class TracedRegistry {
 public:
  TracedRegistry(SpanLog& log, LayerTally& tally,
                 std::vector<repro::sim::GpuConfig> configs);
  // The wrappers refer to configs_.
  TracedRegistry(const TracedRegistry&) = delete;
  TracedRegistry& operator=(const TracedRegistry&) = delete;

  const TracedWorkload& get(std::string_view program) const;

 private:
  std::vector<repro::sim::GpuConfig> configs_;
  std::map<std::string, std::unique_ptr<TracedWorkload>, std::less<>> byname_;
};

/// The per-layer metrics every traced run takes from its spans and tally:
/// suites, sim, core.variability, power, sensor, k20power, thermal and
/// sample. Fails the report when SpanLog::check finds time counted twice.
void add_layer_metrics(const SpanLog& log, const LayerTally& tally,
                       Report& report);

/// Step 2 of the traced routine for one experiment `study` has already
/// measured. Returns an empty string when the recomposed trace result and
/// measurement are bit-identical to the Study's, else what differed.
std::string recompose(repro::core::Study& study, const TracedWorkload& workload,
                      std::size_t input_index,
                      const repro::sim::GpuConfig& config, SpanLog& log,
                      LayerTally& tally);

}  // namespace perfbench
