// dvfs_sweep_cold: one cold pass of Session::recommend(min_edp) over the
// default grid (core 324-705 MHz in 50 MHz steps, memory 2600 MHz) with
// stratified sampling at 0.10, for QTC/0, SSSP/1 and BP/0, serially.
#include <algorithm>
#include <utility>
#include <vector>

#include "api/convert.hpp"
#include "dvfs/dvfs.hpp"
#include "modes.hpp"
#include "sample/sample.hpp"
#include "traced.hpp"

namespace perfbench {

namespace rp = repro;

namespace {

// QTC is regular (its traces are identical across clocks), SSSP reads the
// clocks (its traces differ per point), BP has the widest stated bounds.
const std::vector<std::pair<std::string, std::size_t>> kSweeps = {
    {"QTC", 0}, {"SSSP", 1}, {"BP", 0}};

double rel_halfwidth(const rp::v1::ConfidenceInterval& ci, double estimate) {
  return estimate > 0.0 ? (ci.high - ci.low) / 2.0 / estimate : 0.0;
}

// Digest, failure count and largest stated half-width of the three
// recommendations; identical for the untraced and the traced pass.
void finish_pass(const std::vector<rp::v1::Recommendation>& recs,
                 Report& report) {
  Digest digest;
  double widest = 0.0;
  for (const rp::v1::Recommendation& rec : recs) {
    add_recommendation(digest, rec);
    if (!rec.ok) report.fail(rec.sweep.program + ": no recommendation");
    for (const rp::v1::SweepPoint& p : rec.sweep.points) {
      ++report.attempted;
      if (p.degraded) ++report.failed;
      if (!p.measured) continue;
      const rp::v1::MeasurementResult& r = p.result;
      widest = std::max({widest, rel_halfwidth(r.time_ci, r.time_s),
                         rel_halfwidth(r.energy_ci, r.energy_j),
                         rel_halfwidth(r.power_ci, r.power_w)});
    }
  }
  report.digest = digest.hex();
  report.info["ci_halfwidth_max"] = widest;
}

int untraced(const Args&) {
  rp::Options options;
  options.threads = hardware_threads();
  rp::v1::Session session(options);
  Report report;
  report.ready_mono = mono_now_s();

  const Clock::time_point start = Clock::now();
  std::vector<rp::v1::Recommendation> recs;
  for (const auto& [program, input] : kSweeps) {
    const Clock::time_point call = Clock::now();
    recs.push_back(session.recommend(program, input, rp::v1::RecommendOptions{}));
    report.latencies_ms.push_back(seconds_since(call) * 1e3);
  }
  report.wall_s = seconds_since(start);
  report.rss_mb = peak_rss_mb();
  finish_pass(recs, report);
  report.print();
  return 0;
}

int traced(const Args& args) {
  const rp::v1::RecommendOptions defaults;
  const rp::dvfs::SweepSettings settings =
      rp::v1::detail::sweep_settings_to_internal(defaults.sweep);
  rp::sample::SampleOptions sampling;  // the facade's conversion
  sampling.mode = rp::sample::Mode::kStratified;
  sampling.fraction = defaults.sweep.sampling.fraction;
  sampling.target_rel_error = defaults.sweep.sampling.target_rel_error;
  sampling.seed = defaults.sweep.sampling.seed;
  const std::vector<rp::sim::GpuConfig> grid =
      rp::dvfs::make_grid(settings.grid);

  SpanLog log;
  LayerTally tally;
  const TracedRegistry registry(log, tally, grid);
  rp::core::Study study;
  Report report;
  report.ready_mono = mono_now_s();

  std::uint64_t measured = 0, pruned = 0, fallbacks = 0;
  double passes = 0.0, fraction = 0.0;
  const Clock::time_point start = Clock::now();
  std::vector<rp::v1::Recommendation> recs;
  for (const auto& [program, input] : kSweeps) {
    const TracedWorkload& w = registry.get(program);
    rp::dvfs::Sweep swept;
    {
      Span span(&log, "dvfs.run_sweep");
      swept = rp::dvfs::run_sweep(
          study, w, input, settings,
          [&](const rp::sim::GpuConfig& config, rp::dvfs::PointStatus&) {
            Span point(&log, "sample.measure");
            return rp::sample::measure_sampled(study, w, input, config,
                                               sampling);
          });
    }
    measured += swept.measured;
    pruned += swept.pruned;
    for (const rp::dvfs::Point& p : swept.points) {
      if (!p.measured) continue;
      passes += p.result.passes;
      fraction += p.result.fraction;
      if (!p.result.sampled) ++fallbacks;
    }
    recs.push_back(rp::v1::detail::recommend_over(
        defaults.objective, defaults.perf_cap_rel,
        rp::v1::detail::sweep_to_v1(program, input, swept),
        defaults.exclude_throttled));
  }
  report.wall_s = seconds_since(start);
  report.rss_mb = peak_rss_mb();
  finish_pass(recs, report);

  add_layer_metrics(log, tally, report);
  auto& m = report.metrics;
  m["sample.passes_mean"] = measured ? passes / static_cast<double>(measured) : 0.0;
  m["sample.fraction_mean"] =
      measured ? fraction / static_cast<double>(measured) : 0.0;
  m["sample.exact_fallbacks"] = static_cast<double>(fallbacks);
  m["sample.ci_halfwidth_max"] = report.info["ci_halfwidth_max"];
  // run_sweep's own time besides trace builds and point measurements: the
  // projections, the pruning, and the Study's run_trace of each point.
  m["dvfs.project_s"] = log.self_times()["dvfs.run_sweep"];
  m["dvfs.points_measured"] = static_cast<double>(measured);
  m["dvfs.points_pruned"] = static_cast<double>(pruned);
  m["core.trace_misses"] = static_cast<double>(study.cache_stats().trace_misses);
  if (!args.spans.empty() && !log.write(args.spans)) {
    report.fail("cannot write spans to " + args.spans);
  }
  report.print();
  return 0;
}

}  // namespace

int run_sweep(const Args& args) {
  return args.trace ? traced(args) : untraced(args);
}

}  // namespace perfbench
