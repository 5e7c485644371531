// matrix_cold: one cold pass of Session::run_matrix over every registry
// program x input x the paper's 4 configurations, variants included.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "modes.hpp"
#include "obs/trace.hpp"
#include "sim/gpuconfig.hpp"
#include "traced.hpp"

namespace perfbench {

namespace rp = repro;

namespace {

const std::vector<std::string> kConfigs = {"default", "614", "324", "ecc"};

std::string golden_row(const std::string& key,
                       const rp::v1::MeasurementResult& r) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "%s usable=%d time_s=%.17g energy_j=%.17g power_w=%.17g",
                key.c_str(), r.usable ? 1 : 0, r.time_s, r.energy_j,
                r.power_w);
  return buffer;
}

// Checks every row of tests/golden/experiments.txt whose experiment the
// pass computed (the file is only read).
void check_golden(const std::string& root,
                  const std::map<std::string, rp::v1::MeasurementResult>& results,
                  Report& report) {
  std::ifstream in(root + "/tests/golden/experiments.txt");
  if (!in) {
    report.fail("cannot read tests/golden/experiments.txt");
    return;
  }
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    const std::string key = line.substr(0, line.find(' '));
    const auto it = results.find(key);
    if (it == results.end()) continue;
    ++checked;
    if (golden_row(key, it->second) != line) {
      report.fail("golden row differs: " + key);
    }
  }
  report.info["golden_rows_checked"] = checked;
  if (checked == 0) report.fail("no golden row inside the matrix");
}

void finish_pass(const std::map<std::string, rp::v1::MeasurementResult>& results,
                 const Args& args, Report& report) {
  Digest digest;
  for (const auto& [key, result] : results) {
    digest.add(key);
    add_result(digest, result);
  }
  report.digest = digest.hex();
  report.attempted = results.size();
  check_golden(args.root, results, report);
}

int untraced(const Args& args) {
  rp::Options options;
  options.threads = hardware_threads();
  rp::v1::Session session(options);
  Report report;
  report.ready_mono = mono_now_s();

  const Clock::time_point start = Clock::now();
  const rp::v1::BatchSummary summary = session.run_matrix(kConfigs, true);
  report.wall_s = seconds_since(start);
  report.latencies_ms.push_back(report.wall_s * 1e3);  // one call per pass
  report.rss_mb = peak_rss_mb();

  std::map<std::string, rp::v1::MeasurementResult> results;
  for (const rp::v1::BatchEntry& e : summary.entries) results[e.key] = e.result;
  finish_pass(results, args, report);
  report.info["threads"] = summary.threads;
  report.info["scheduler_util"] =
      summary.busy_s / (summary.wall_s * summary.threads);
  report.print();
  return 0;
}

int traced(const Args& args) {
  if (args.obs_check) {
    rp::obs::Tracer::instance().set_capacity(1u << 16);
    rp::v1::set_observability(true);
  }
  SpanLog log;
  LayerTally tally;
  std::vector<rp::sim::GpuConfig> configs;
  for (const std::string& name : kConfigs) {
    configs.push_back(rp::sim::config_by_name(name));
  }
  const TracedRegistry registry(log, tally, configs);
  rp::core::Study study;
  const int threads = hardware_threads();
  Report report;
  report.ready_mono = mono_now_s();

  // The same jobs Session::run_matrix submits, over the wrappers.
  std::vector<rp::core::ExperimentJob> jobs;
  for (const rp::core::ExperimentJob& job :
       rp::core::registry_matrix(kConfigs, true)) {
    rp::core::ExperimentJob traced_job = job;
    traced_job.workload = &registry.get(job.workload->name());
    jobs.push_back(traced_job);
  }

  const Clock::time_point start = Clock::now();
  const rp::core::Scheduler scheduler{rp::core::Scheduler::Options{threads}};
  const rp::core::BatchReport batch = scheduler.run(study, jobs);
  const rp::core::Study::CacheStats stats = study.cache_stats();

  // Step 2 of the traced routine for every experiment, same thread count.
  std::atomic<std::size_t> next{0};
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs.size()) return;
        const rp::core::ExperimentJob& job = jobs[i];
        const std::string error = recompose(
            study, static_cast<const TracedWorkload&>(*job.workload),
            job.input_index, *job.config, log, tally);
        if (!error.empty()) {
          std::lock_guard lock(errors_mutex);
          errors.push_back(error);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  report.wall_s = seconds_since(start);
  report.rss_mb = peak_rss_mb();
  for (const std::string& e : errors) report.fail(e);

  std::map<std::string, rp::v1::MeasurementResult> results;
  for (const rp::core::BatchEntry& e : batch.results) {
    results[e.key] = to_v1(*e.result);
  }
  finish_pass(results, args, report);

  add_layer_metrics(log, tally, report);
  auto& m = report.metrics;
  m["core.trace_misses"] = static_cast<double>(stats.trace_misses);
  m["core.result_misses"] = static_cast<double>(stats.result_misses);
  m["core.scheduler_util"] =
      batch.busy_s() / (batch.wall_s * static_cast<double>(batch.threads));
  report.info["study_wall_s"] = batch.wall_s;
  report.info["threads"] = threads;

  if (args.obs_check) {
    double obs_total = 0.0;
    for (const rp::obs::TraceEvent& e :
         rp::obs::Tracer::instance().snapshot()) {
      if (e.name == "trace-build") obs_total += e.dur_us * 1e-6;
    }
    // The program's span wraps the whole wrapper call: the build, the
    // trace digest and the wrapper's run_trace.
    std::map<std::string, double> totals = log.totals();
    const double build = totals["suites.trace_build"];
    const double wrapped =
        build + totals["bench.trace_digest"] + totals["sim.run_trace"];
    report.info["obs_trace_build_s"] = obs_total;
    report.info["wrapper_trace_call_s"] = wrapped;
    report.info["obs_dropped"] =
        static_cast<double>(rp::obs::Tracer::instance().dropped_count());
    if (build <= 0.0 || obs_total < build ||
        std::abs(obs_total - wrapped) > 0.05 * wrapped + 0.01) {
      report.fail("suites.trace_build_s disagrees with the obs trace-build total");
    }
  }
  if (!args.spans.empty() && !log.write(args.spans)) {
    report.fail("cannot write spans to " + args.spans);
  }
  report.print();
  return 0;
}

}  // namespace

int run_matrix(const Args& args) {
  return args.trace ? traced(args) : untraced(args);
}

}  // namespace perfbench
