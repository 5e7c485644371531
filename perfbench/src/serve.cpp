// serve_zipf: an open-loop Poisson schedule at a fixed rate, sent by one
// generator thread over one connection to a 2-worker shard::Router tier
// (2 scheduler threads per serve::Service worker) whose Zipf head is warm.
// Keys follow Zipf(1.1) over the 292-key registry matrix in registry
// order; a fixed share of requests is sampled (each with its own seed, so
// it always misses) and a fixed share carries a thermal scenario. The
// rate, the shares and the warm head are synthetic, chosen so that the
// latency metrics are steady from seed to seed (README.md); they are not
// measured usage. Latency is timed from each request's scheduled send
// time, so a stall also delays every request due behind it.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/convert.hpp"
#include "modes.hpp"
#include "sample/sample.hpp"
#include "serve/service.hpp"
#include "serve/stream.hpp"
#include "serve/wire.hpp"
#include "shard/ring.hpp"
#include "shard/router.hpp"
#include "shard/worker.hpp"
#include "sim/gpuconfig.hpp"
#include "traced.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace rp = repro;

namespace {

constexpr int kWorkers = 2;
constexpr int kWorkerThreads = 2;
// Offered Poisson rate (req/s). load_gen's default of 50 req/s left
// tail_ms too unsteady from seed to seed (README.md).
constexpr double kRate = 60.0;
constexpr double kZipfAlpha = 1.1;
constexpr double kSampledShare = 0.01;
constexpr double kThermalShare = 0.01;
constexpr double kSloMs = 1000.0;

struct Planned {
  double at_s = 0.0;  // scheduled send time from the schedule start
  rp::v1::ExperimentRequest request;
  std::string line;
};

struct Plan {
  // One exact request for every key the schedule asks for at least once in
  // expectation (the Zipf head), sent before the schedule and untimed: the
  // schedule meets a tier that has served a while. Its misses are the
  // other keys' first requests, the sampled and the thermal requests.
  std::vector<Planned> warmup;
  std::vector<Planned> schedule;
};

Planned plan_request(std::uint64_t id, const std::string& program,
                     std::size_t input, const std::string& config) {
  Planned p;
  p.request.id = id;
  p.request.program = program;
  p.request.input_index = input;
  p.request.config = config;
  return p;
}

// The whole request plan, a pure function of the seed and the length.
Plan make_plan(std::uint64_t seed, double seconds) {
  rp::suites::register_all_workloads();
  struct Key {
    std::string program;
    std::size_t input;
    std::string config;
  };
  std::vector<Key> matrix;
  for (const rp::workloads::Workload* w :
       rp::workloads::Registry::instance().all()) {
    for (std::size_t input = 0; input < w->inputs().size(); ++input) {
      for (const rp::sim::GpuConfig& config : rp::sim::standard_configs()) {
        matrix.push_back({std::string(w->name()), input, config.name});
      }
    }
  }
  std::vector<double> cdf(matrix.size());
  double total = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfAlpha);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;

  rp::util::Rng rng(rp::util::mix64(seed ^ 0x5e7e5e7eULL));
  // A Poisson process on [0, seconds) conditioned on its expected count:
  // that many uniform arrival times, sorted.
  const std::size_t n = static_cast<std::size_t>(std::llround(kRate * seconds));
  std::vector<double> arrivals(n);
  for (double& t : arrivals) t = rng.uniform() * seconds;
  std::sort(arrivals.begin(), arrivals.end());

  // Quota Zipf draw: key k is requested its expected n * p_k times, rounded
  // by systematic sampling, in a random order that, like the positions of
  // the sampled and thermal requests, is fixed for a given n. Every seed
  // then meets the same cold misses in the same order, which keeps the
  // latency metrics steady; the seed moves their times.
  rp::util::Rng order(0x21bf5eedULL + n);
  std::vector<std::size_t> ranks;
  ranks.reserve(n);
  const double offset = order.uniform();
  double below = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    const double upto = std::floor(static_cast<double>(n) * cdf[k] + offset);
    for (double c = below; c < upto && ranks.size() < n; c += 1.0) {
      ranks.push_back(k);
    }
    below = upto;
  }
  while (ranks.size() < n) ranks.push_back(cdf.size() - 1);
  const auto shuffle = [&order](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[order.uniform_index(i)]);
    }
  };
  shuffle(ranks);
  // Fixed shares of sampled and thermal requests.
  std::vector<std::size_t> positions(n);
  for (std::size_t i = 0; i < n; ++i) positions[i] = i;
  shuffle(positions);
  const auto share = [n](double fraction) {
    return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(n)));
  };
  std::vector<char> kind(n, 0);
  const std::size_t sampled = share(kSampledShare);
  const std::size_t thermal = share(kThermalShare);
  for (std::size_t i = 0; i < sampled + thermal && i < n; ++i) {
    kind[positions[i]] = i < sampled ? 1 : 2;
  }

  Plan plan;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    const double expected =
        static_cast<double>(n) * (cdf[k] - (k == 0 ? 0.0 : cdf[k - 1]));
    if (expected < 1.0) continue;
    const Key& key = matrix[k];
    Planned p = plan_request(plan.warmup.size() + 1, key.program, key.input,
                             key.config);
    p.line = rp::serve::format_request_line(p.request);
    plan.warmup.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Key& key = matrix[ranks[i]];
    Planned p = plan_request(i + 1, key.program, key.input, key.config);
    p.at_s = arrivals[i];
    if (kind[i] == 1) {
      p.request.sampling.mode = rp::v1::SamplingMode::kStratified;
      p.request.sampling.fraction = 0.10;
      p.request.sampling.seed = seed * 1000003ULL + p.request.id;
    } else if (kind[i] == 2) {
      p.request.thermal.enabled = true;
    }
    p.line = rp::serve::format_request_line(p.request);
    plan.schedule.push_back(std::move(p));
  }
  return plan;
}

bool json_field(const std::string& line, const char* name, std::string& out) {
  std::string marker = "\"";
  marker += name;
  marker += "\":";
  std::size_t start = line.find(marker);
  if (start == std::string::npos) return false;
  start += marker.size();
  std::size_t end = 0;
  if (start < line.size() && line[start] == '"') {
    ++start;
    end = line.find('"', start);
  } else {
    end = line.find_first_of(",}", start);
  }
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

struct Served {
  std::string line;
  double at_s = -1.0;  // receive time from the schedule start
  bool cached = false;
  bool ok = false;
};

// Drives the schedule through `router` over one socketpair connection.
struct Drive {
  std::vector<Served> served;
  double wall_s = 0.0;     // schedule start -> last response
  double lag_max_ms = 0.0; // how late the generator sent, worst request
  double lag_p99_ms = 0.0;
};

Drive drive(rp::shard::Router& router, const std::vector<Planned>& schedule) {
  Drive out;
  out.served.resize(schedule.size());
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const int client = sv[0];
  const int server = sv[1];
  std::thread tier([&] { router.route_fd(server); });
  const Clock::time_point start = Clock::now();
  std::thread reader([&] {
    rp::serve::FdLineReader lines(client);
    std::string line;
    while (lines.next(line)) {
      const double at = seconds_since(start);
      std::string field;
      if (!json_field(line, "id", field)) continue;
      const std::uint64_t id = std::strtoull(field.c_str(), nullptr, 10);
      if (id == 0 || id > out.served.size()) continue;
      Served& s = out.served[id - 1];
      s.at_s = at;
      s.cached = json_field(line, "cached", field) && field == "true";
      s.ok = json_field(line, "status", field) && field == "ok" &&
             json_field(line, "degradation", field) && field == "ok";
      s.line = std::move(line);
    }
  });

  std::vector<double> lag_ms;
  lag_ms.reserve(schedule.size());
  for (const Planned& p : schedule) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.at_s));
    std::this_thread::sleep_until(due);
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    const std::string line = p.line + "\n";
    if (!rp::serve::fd_write_all(client, line.data(), line.size())) break;
  }
  ::shutdown(client, SHUT_WR);
  tier.join();  // every response is written once route_fd returns
  ::shutdown(server, SHUT_WR);
  reader.join();
  ::close(client);
  ::close(server);
  for (const Served& s : out.served) out.wall_s = std::max(out.wall_s, s.at_s);
  std::sort(lag_ms.begin(), lag_ms.end());
  if (!lag_ms.empty()) {
    out.lag_max_ms = lag_ms.back();
    out.lag_p99_ms = lag_ms[static_cast<std::size_t>(
        0.99 * static_cast<double>(lag_ms.size() - 1))];
  }
  return out;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The response line a tier must send for `p`, given the direct result.
std::string expected_line(const Planned& p, bool cached,
                          const rp::v1::MeasurementResult& result) {
  rp::serve::Response r;
  r.id = p.request.id;
  r.status = rp::serve::Status::kOk;
  r.cached = cached;
  r.key = rp::core::experiment_key(p.request.program, p.request.input_index,
                                   p.request.config);
  r.result = result;
  return rp::serve::format_response_line(r);
}

// One distinct request: everything but the id.
std::string request_identity(const Planned& p) {
  rp::v1::ExperimentRequest r = p.request;
  r.id = 0;
  return rp::serve::format_request_line(r);
}

// Runs `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

// The end-to-end metrics and the output checks of one driven schedule.
// `direct` maps each distinct request to the result a direct measurement
// gives; every response must equal it byte for byte (cached flag aside).
void score(const Plan& plan, const std::vector<Served>& warmed,
           const Drive& d,
           const std::map<std::string, rp::v1::MeasurementResult>& direct,
           Report& report) {
  for (std::size_t i = 0; i < plan.warmup.size(); ++i) {
    const Planned& p = plan.warmup[i];
    const Served& s = warmed[i];
    ++report.attempted;
    const auto it = direct.find(request_identity(p));
    if (!s.ok || it == direct.end() ||
        s.line != expected_line(p, s.cached, it->second)) {
      ++report.failed;
      report.fail("warm-up response differs from a direct Session::measure: " +
                  s.line.substr(0, 160));
    }
  }
  const std::vector<Planned>& schedule = plan.schedule;
  std::vector<double> all, misses;
  std::uint64_t good = 0;
  Digest digest;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Planned& p = schedule[i];
    const Served& s = d.served[i];
    ++report.attempted;
    if (s.at_s < 0.0) {
      ++report.failed;
      std::string message = "no response to request ";
      message += std::to_string(p.request.id);
      report.fail(std::move(message));
      continue;
    }
    const double latency_ms = (s.at_s - p.at_s) * 1e3;
    all.push_back(latency_ms);
    if (!s.cached) misses.push_back(latency_ms);
    const auto it = direct.find(request_identity(p));
    const bool matches = it != direct.end() &&
                         s.line == expected_line(p, s.cached, it->second);
    if (!s.ok || !matches) {
      ++report.failed;
      if (!matches && report.checks.size() < 8) {
        report.fail("response differs from a direct Session::measure: " +
                    s.line.substr(0, 160));
      }
      continue;
    }
    if (latency_ms <= kSloMs) ++good;
    // The cached flag depends on timing, so it is left out of the digest.
    digest.add(expected_line(p, false, it->second));
  }
  report.digest = digest.hex();
  std::sort(all.begin(), all.end());
  const std::size_t n = all.size();
  auto& m = report.metrics;
  // The median and the miss median are per-layer metrics: their spread
  // from seed to seed is too wide for a bound (README.md).
  report.info["p50_ms"] = median_of(all);
  if (n > 10) {
    // The highest percentile with at least ten samples beyond it.
    m["tail_ms"] = all[n - 11];
    report.info["tail_percentile"] =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    m["tail_ms"] = n ? all.back() : 0.0;
    report.info["tail_percentile"] = 100.0;
  }
  report.info["tail_samples_beyond"] = n > 10 ? 10.0 : 0.0;
  report.info["miss_p50_ms"] = median_of(misses);
  // Per second of wall, from the first scheduled send to the last
  // response, so a backlog that outlives the schedule lowers it.
  m["goodput_rps"] = static_cast<double>(good) / d.wall_s;
  report.info["requests"] = static_cast<double>(schedule.size());
  report.info["misses"] = static_cast<double>(misses.size());
  report.info["generator_lag_max_ms"] = d.lag_max_ms;
  report.info["generator_lag_p99_ms"] = d.lag_p99_ms;
}

std::map<std::string, const Planned*> distinct_requests(const Plan& plan) {
  std::map<std::string, const Planned*> distinct;
  for (const auto* part : {&plan.warmup, &plan.schedule}) {
    for (const Planned& p : *part) distinct.emplace(request_identity(p), &p);
  }
  return distinct;
}

// Direct answers through the public facade, one per distinct request.
std::map<std::string, rp::v1::MeasurementResult> direct_answers(
    const Plan& plan, int threads) {
  const std::map<std::string, const Planned*> distinct =
      distinct_requests(plan);
  std::vector<std::pair<std::string, const Planned*>> work(distinct.begin(),
                                                           distinct.end());
  std::vector<rp::v1::MeasurementResult> results(work.size());
  rp::Options options;
  options.threads = threads;
  rp::v1::Session session(options);
  parallel_for(work.size(), threads, [&](std::size_t i) {
    results[i] = session.measure(work[i].second->request);
  });
  std::map<std::string, rp::v1::MeasurementResult> out;
  for (std::size_t i = 0; i < work.size(); ++i) {
    out.emplace(work[i].first, results[i]);
  }
  return out;
}

double reap_rss_mb(const std::vector<rp::shard::WorkerProcess>& processes) {
  double total = 0.0;
  for (const rp::shard::WorkerProcess& process : processes) {
    int status = 0;
    rusage usage{};
    if (::wait4(process.pid, &status, 0, &usage) == process.pid) {
      total += static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  return total;
}

// The names shard::spawn_worker_processes gives its workers.
std::string worker_name(int index) {
  std::string name = "w";
  name += std::to_string(index);
  return name;
}

rp::serve::Service::Options worker_options() {
  rp::serve::Service::Options options;
  options.threads = kWorkerThreads;
  return options;
}

std::vector<rp::shard::WorkerProcess> spawn_tier() {
  // Every worker forks before this process starts any thread.
  std::vector<rp::shard::WorkerProcess> processes =
      rp::shard::spawn_worker_processes(kWorkers, worker_options());
  if (static_cast<int>(processes.size()) != kWorkers) {
    throw std::runtime_error("worker spawn failed");
  }
  return processes;
}

std::vector<rp::shard::WorkerEndpoint> endpoints_of(
    const std::vector<rp::shard::WorkerProcess>& processes) {
  std::vector<rp::shard::WorkerEndpoint> endpoints;
  for (const rp::shard::WorkerProcess& p : processes) {
    endpoints.push_back(rp::shard::endpoint_for(p));
  }
  return endpoints;
}

int untraced(const Args& args) {
  const Plan plan = make_plan(args.seed, args.seconds);
  const std::vector<rp::shard::WorkerProcess> processes = spawn_tier();
  Report report;
  std::vector<Served> warmed;
  Drive d;
  {
    rp::shard::Router router(rp::shard::Router::Options{},
                             endpoints_of(processes));
    report.ready_mono = mono_now_s();
    warmed = drive(router, plan.warmup).served;  // all at once, untimed
    d = drive(router, plan.schedule);
    report.info["reroutes"] = static_cast<double>(router.health().rerouted);
  }
  // Router gone: workers see EOF, drain and exit.
  const double own_rss = peak_rss_mb();
  report.rss_mb = own_rss + reap_rss_mb(processes);
  report.wall_s = d.wall_s;
  report.metrics["peak_rss_mb"] = report.rss_mb;
  score(plan, warmed, d, direct_answers(plan, hardware_threads()),
        report);
  report.print();
  return 0;
}

// The traced run: the same plan against the same tier shape, with the
// two Services in this process (over socketpairs, behind the same Router)
// so their health can be polled; then the traced routine for every
// distinct request the tier computed.
int traced(const Args& args) {
  const Plan plan = make_plan(args.seed, args.seconds);
  const std::vector<Planned>& schedule = plan.schedule;
  const int threads = hardware_threads();
  std::vector<std::unique_ptr<rp::serve::Service>> services;
  std::vector<std::thread> loops;
  std::vector<rp::shard::WorkerEndpoint> endpoints;
  for (int w = 0; w < kWorkers; ++w) {
    rp::serve::Service::Options options = worker_options();
    options.cache_namespace = worker_name(w);
    services.push_back(std::make_unique<rp::serve::Service>(options));
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    rp::serve::Service* service = services.back().get();
    const int fd = sv[1];
    loops.emplace_back([service, fd] {
      rp::serve::serve_fd(*service, fd);
      ::close(fd);
    });
    const int router_fd = sv[0];
    endpoints.push_back({options.cache_namespace, router_fd,
                         [router_fd] { ::shutdown(router_fd, SHUT_RDWR); }});
  }

  Report report;
  std::vector<Served> warmed;
  Drive d;
  double hop_us = 0.0;
  std::uint64_t reroutes = 0;
  std::size_t queue_max = 0;
  {
    rp::shard::Router router(rp::shard::Router::Options{},
                             std::move(endpoints));
    report.ready_mono = mono_now_s();
    std::atomic<bool> polling{true};
    std::thread poller([&] {
      while (polling.load()) {
        for (const auto& s : services) {
          queue_max = std::max(queue_max, s->health().queue_depth);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    warmed = drive(router, plan.warmup).served;
    d = drive(router, schedule);
    polling = false;
    poller.join();

    // Router hop: the same cache hit through the router and from its
    // owning Service directly, 400 times each.
    const Planned& hot = plan.warmup.front();  // cached by now
    const std::string owner =
        router.owner_of(rp::core::experiment_key(hot.request.program,
                                                 hot.request.input_index,
                                                 hot.request.config));
    rp::serve::Service& direct = *services[owner == worker_name(0) ? 0 : 1];
    std::vector<double> routed_us, direct_us;
    for (int i = 0; i < 400; ++i) {
      Clock::time_point t0 = Clock::now();
      router.route_line(hot.line, hot.request.id);
      routed_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      t0 = Clock::now();
      direct.submit(hot.request).wait();
      direct_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    hop_us = median_of(routed_us) - median_of(direct_us);
    reroutes = router.health().rerouted;
  }
  for (std::thread& t : loops) t.join();

  // Service-side counters after the run.
  std::uint64_t retried = 0, shed_expired = 0;
  for (const auto& s : services) {
    const rp::serve::Service::Stats stats = s->stats();
    retried += stats.retried;
    shed_expired += stats.shed + stats.expired;
  }

  // The traced routine for every distinct request the tier computed.
  SpanLog log;
  LayerTally tally;
  std::vector<rp::sim::GpuConfig> configs(rp::sim::standard_configs().begin(),
                                          rp::sim::standard_configs().end());
  const TracedRegistry registry(log, tally, configs);
  rp::core::Study study;
  const std::map<std::string, const Planned*> distinct =
      distinct_requests(plan);
  std::vector<std::pair<std::string, const Planned*>> work(distinct.begin(),
                                                           distinct.end());
  std::vector<rp::v1::MeasurementResult> results(work.size());
  std::vector<std::string> errors(work.size());
  const Clock::time_point recompose_start = Clock::now();
  parallel_for(work.size(), threads, [&](std::size_t i) {
    const rp::v1::ExperimentRequest& r = work[i].second->request;
    const TracedWorkload& w = registry.get(r.program);
    const rp::sim::GpuConfig& config = rp::sim::config_by_name(r.config);
    if (r.sampling.mode != rp::v1::SamplingMode::kExact) {
      rp::sample::SampleOptions sampling;
      sampling.mode = rp::sample::Mode::kStratified;
      sampling.fraction = r.sampling.fraction;
      sampling.target_rel_error = r.sampling.target_rel_error;
      sampling.seed = r.sampling.seed;
      Span span(&log, "sample.measure");
      results[i] = to_v1(rp::sample::measure_sampled(study, w, r.input_index,
                                                     config, sampling));
    } else if (r.thermal.enabled) {
      rp::core::Study::Options options = study.options();
      options.thermal = rp::v1::detail::thermal_to_internal(r.thermal, configs);
      rp::core::Study thermal_study(options);
      results[i] = to_v1(thermal_study.measure(w, r.input_index, config));
      errors[i] = recompose(thermal_study, w, r.input_index, config, log, tally);
    } else {
      results[i] = to_v1(study.measure(w, r.input_index, config));
      errors[i] = recompose(study, w, r.input_index, config, log, tally);
    }
  });
  const double recompose_s = seconds_since(recompose_start);
  for (const std::string& e : errors) {
    if (!e.empty()) report.fail(e);
  }
  std::map<std::string, rp::v1::MeasurementResult> direct;
  for (std::size_t i = 0; i < work.size(); ++i) {
    direct.emplace(work[i].first, results[i]);
  }

  report.wall_s = d.wall_s;
  report.rss_mb = peak_rss_mb();
  score(plan, warmed, d, direct, report);

  std::vector<double> hits;
  std::uint64_t hit_count = 0;
  std::map<std::string, std::uint64_t> miss_owner;
  rp::shard::HashRing ring;
  for (int w = 0; w < kWorkers; ++w) ring.add(worker_name(w));
  std::uint64_t miss_count = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Served& s = d.served[i];
    if (s.at_s < 0.0) continue;
    const rp::v1::ExperimentRequest& r = schedule[i].request;
    if (s.cached) {
      ++hit_count;
      hits.push_back((s.at_s - schedule[i].at_s) * 1e3);
    } else {
      ++miss_count;
      ++miss_owner[std::string(ring.owner(rp::core::experiment_key(
          r.program, r.input_index, r.config)))];
    }
  }
  std::uint64_t busiest = 0;
  for (const auto& [name, count] : miss_owner) busiest = std::max(busiest, count);

  auto& m = report.metrics;
  m.clear();  // per-layer metrics replace the end-to-end ones
  add_layer_metrics(log, tally, report);
  m["core.trace_misses"] = static_cast<double>(study.cache_stats().trace_misses);
  m["core.result_misses"] =
      static_cast<double>(study.cache_stats().result_misses);
  m["serve.p50_ms"] = report.info["p50_ms"];
  m["serve.hit_p50_ms"] = median_of(hits);
  m["serve.miss_p50_ms"] = report.info["miss_p50_ms"];
  m["serve.cache_hit_frac"] =
      static_cast<double>(hit_count) / static_cast<double>(schedule.size());
  m["serve.queue_depth_max"] = static_cast<double>(queue_max);
  m["serve.retried"] = static_cast<double>(retried);
  m["serve.shed_expired"] = static_cast<double>(shed_expired);
  m["shard.hop_us"] = hop_us;
  m["shard.worker_load_max_share"] =
      miss_count ? static_cast<double>(busiest) / static_cast<double>(miss_count)
                 : 0.0;
  m["shard.reroutes"] = static_cast<double>(reroutes);
  report.info["recompose_s"] = recompose_s;
  if (!args.spans.empty() && !log.write(args.spans)) {
    report.fail("cannot write spans to " + args.spans);
  }
  report.print();
  return 0;
}

}  // namespace

int run_serve(const Args& args) {
  return args.trace ? traced(args) : untraced(args);
}

int setup_serve(const Args&) {
  rp::suites::register_all_workloads();
  const std::vector<rp::shard::WorkerProcess> processes = spawn_tier();
  Report report;
  {
    rp::shard::Router router(rp::shard::Router::Options{},
                             endpoints_of(processes));
    report.ready_mono = mono_now_s();
  }
  report.rss_mb = peak_rss_mb() + reap_rss_mb(processes);
  report.attempted = 1;
  report.print();
  return 0;
}

}  // namespace perfbench
