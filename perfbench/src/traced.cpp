#include "traced.hpp"

#include <stdexcept>

#include "core/variability.hpp"
#include "k20power/analyze.hpp"
#include "power/model.hpp"
#include "sensor/sampler.hpp"
#include "sensor/waveform.hpp"
#include "sim/device.hpp"
#include "sim/engine.hpp"
#include "thermal/thermal.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace rp = repro;

void LayerTally::trace_built(std::uint64_t trace_digest) {
  std::lock_guard lock(mutex_);
  ++builds_;
  trace_digests_.insert(trace_digest);
}

void LayerTally::simulated(const std::string& key, std::uint64_t result_digest,
                           std::size_t phases) {
  std::lock_guard lock(mutex_);
  sim_digests_[key] = result_digest;
  phases_ += phases;
}

void LayerTally::repetition(std::size_t samples, bool usable) {
  std::lock_guard lock(mutex_);
  samples_ += samples;
  ++repetitions_;
  if (!usable) ++unusable_;
}

bool LayerTally::sim_digest(const std::string& key, std::uint64_t& out) const {
  std::lock_guard lock(mutex_);
  const auto it = sim_digests_.find(key);
  if (it == sim_digests_.end()) return false;
  out = it->second;
  return true;
}

std::uint64_t LayerTally::builds() const {
  std::lock_guard lock(mutex_);
  return builds_;
}

double LayerTally::distinct_frac() const {
  std::lock_guard lock(mutex_);
  return builds_ == 0 ? 0.0
                      : static_cast<double>(trace_digests_.size()) /
                            static_cast<double>(builds_);
}

std::uint64_t LayerTally::phases() const {
  std::lock_guard lock(mutex_);
  return phases_;
}

std::uint64_t LayerTally::samples() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

double LayerTally::unusable_frac() const {
  std::lock_guard lock(mutex_);
  return repetitions_ == 0 ? 0.0
                           : static_cast<double>(unusable_) /
                                 static_cast<double>(repetitions_);
}

rp::workloads::LaunchTrace TracedWorkload::trace(
    std::size_t input_index, const rp::workloads::ExecContext& ctx) const {
  rp::workloads::LaunchTrace trace;
  {
    Span span(&log_, "suites.trace_build", std::string(inner_.name()));
    trace = inner_.trace(input_index, ctx);
  }
  {
    Span span(&log_, "bench.trace_digest");
    Digest trace_digest;
    add_trace(trace_digest, trace);
    tally_.trace_built(trace_digest.value());
  }

  for (const rp::sim::GpuConfig& config : configs_) {
    if (config.core_mhz != ctx.core_mhz || config.mem_mhz != ctx.mem_mhz ||
        config.ecc != ctx.ecc) {
      continue;
    }
    rp::sim::TraceResult result;
    {
      Span span(&log_, "sim.run_trace", std::string(inner_.name()));
      result = rp::sim::run_trace(rp::sim::k20c(), config, trace);
    }
    Span span(&log_, "bench.trace_digest");
    Digest result_digest;
    add_trace_result(result_digest, result);
    tally_.simulated(rp::core::experiment_key(*this, input_index, config),
                     result_digest.value(), result.phases.size());
    break;
  }
  return trace;
}

TracedRegistry::TracedRegistry(SpanLog& log, LayerTally& tally,
                               std::vector<rp::sim::GpuConfig> configs)
    : configs_(std::move(configs)) {
  rp::suites::register_all_workloads();
  for (const rp::workloads::Workload* w :
       rp::workloads::Registry::instance().all()) {
    byname_.emplace(std::string(w->name()),
                    std::make_unique<TracedWorkload>(*w, log, tally, configs_));
  }
}

const TracedWorkload& TracedRegistry::get(std::string_view program) const {
  const auto it = byname_.find(program);
  if (it == byname_.end()) {
    throw std::invalid_argument("unknown program " + std::string(program));
  }
  return *it->second;
}

void add_layer_metrics(const SpanLog& log, const LayerTally& tally,
                       Report& report) {
  const std::map<std::string, double> self = log.self_times();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto& m = report.metrics;
  m["suites.trace_build_s"] = self_of("suites.trace_build");
  m["suites.trace_builds"] = static_cast<double>(tally.builds());
  m["suites.trace_distinct_frac"] = tally.distinct_frac();
  for (const auto& [program, seconds] :
       log.totals_by_detail("suites.trace_build")) {
    m["suites.trace_build_s." + program] = seconds;
  }
  const double sim_s = self_of("sim.run_trace");
  m["sim.run_trace_s"] = sim_s;
  m["sim.phases_per_s"] =
      sim_s > 0.0 ? static_cast<double>(tally.phases()) / sim_s : 0.0;
  m["core.variability_s"] = self_of("core.variability");
  m["power.synthesis_s"] = self_of("power.synthesis");
  m["sensor.record_s"] = self_of("sensor.record");
  m["sensor.samples"] = static_cast<double>(tally.samples());
  m["k20power.analyze_s"] = self_of("k20power.analyze");
  m["k20power.unusable_frac"] = tally.unusable_frac();
  m["thermal.simulate_s"] = self_of("thermal.simulate");
  m["sample.measure_s"] = self_of("sample.measure");

  double self_total = 0.0;
  for (const auto& [name, seconds] : self) self_total += seconds;
  report.info["span_self_total_s"] = self_total;
  report.info["span_self_min_s"] = log.min_self_s();
  const std::string problem = log.check();
  if (!problem.empty()) report.fail("spans: " + problem);
}

std::string recompose(rp::core::Study& study, const TracedWorkload& workload,
                      std::size_t input_index, const rp::sim::GpuConfig& config,
                      SpanLog& log, LayerTally& tally) {
  const std::string key =
      rp::core::experiment_key(workload, input_index, config);
  const rp::sim::TraceResult& ground_truth =
      study.trace_result(workload, input_index, config);
  const rp::core::ExperimentResult& expected =
      study.measure(workload, input_index, config);

  std::uint64_t simulated = 0;
  if (tally.sim_digest(key, simulated)) {
    Digest study_digest;
    add_trace_result(study_digest, ground_truth);
    if (study_digest.value() != simulated) {
      return key + ": sim::run_trace result differs from the Study's";
    }
  }

  // Study's repetition loop, stage by stage (src/core/study.cpp).
  const rp::core::Study::Options& options = study.options();
  rp::core::ExperimentResult result;
  result.true_active_s = ground_truth.active_time_s;
  rp::util::Rng stream{rp::util::mix64(
      options.measurement_seed ^
      rp::util::mix64(std::hash<std::string>{}(key)))};
  const rp::sensor::Sensor sensor;
  rp::power::PhasePowerMemo memo{
      study.power_model(), config,
      config.ecc ? workload.ecc_power_adjustment() : 1.0};
  const rp::k20power::AnalyzeOptions analyze_options =
      rp::k20power::options_for_tail(memo.tail_power_w());
  rp::sensor::Waveform waveform;
  std::vector<rp::sensor::Sample> samples;
  std::vector<double> times, energies, powers;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    rp::util::Rng rep_rng = stream.fork(static_cast<std::uint64_t>(rep) + 1);
    rp::sim::TraceResult perturbed;
    {
      Span span(&log, "core.variability");
      perturbed = rp::core::perturb(ground_truth, workload.regularity(),
                                    rep_rng);
    }
    {
      Span span(&log, "power.synthesis");
      rp::sensor::synthesize_into(waveform, perturbed, memo);
    }
    if (options.thermal.enabled) {
      Span span(&log, "thermal.simulate");
      const rp::thermal::ThermalResult th =
          rp::thermal::simulate(waveform, options.thermal, config,
                                memo.static_power_w(), memo.leakage_w());
      result.thermal = true;
      result.peak_temp_c = std::max(result.peak_temp_c, th.peak_die_c);
      result.throttled = result.throttled || th.throttled;
      result.throttle_events = std::max(result.throttle_events,
                                        static_cast<int>(th.events.size()));
    }
    {
      Span span(&log, "sensor.record");
      sensor.record_into(waveform, rep_rng, samples);
    }
    rp::k20power::Measurement m;
    {
      Span span(&log, "k20power.analyze");
      m = rp::k20power::analyze(samples, analyze_options);
    }
    tally.repetition(samples.size(), m.usable);
    result.repetitions.push_back(m);
    if (m.usable) {
      times.push_back(m.active_time_s);
      energies.push_back(m.energy_j);
      powers.push_back(m.avg_power_w);
    }
  }
  if (times.size() >= 2) {
    result.usable = true;
    result.time_s = rp::util::median(times);
    result.energy_j = rp::util::median(energies);
    result.power_w = rp::util::median(powers);
    result.time_spread = rp::util::relative_spread(times);
    result.energy_spread = rp::util::relative_spread(energies);
  }
  if (!identical(result, expected)) {
    return key + ": recomposed measurement differs from Study::measure";
  }
  return {};
}

}  // namespace perfbench
