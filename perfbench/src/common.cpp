#include "common.hpp"

#include <cmath>

namespace perfbench {

namespace rp = repro;

void add_result(Digest& d, const rp::v1::MeasurementResult& r) {
  d.add(r.usable);
  d.add(r.time_s);
  d.add(r.energy_j);
  d.add(r.power_w);
  d.add(r.true_active_s);
  d.add(r.time_spread);
  d.add(r.energy_spread);
  d.add(r.sampled);
  d.add(r.sample_fraction);
  for (const rp::v1::ConfidenceInterval* ci :
       {&r.time_ci, &r.energy_ci, &r.power_ci}) {
    d.add(ci->low);
    d.add(ci->high);
  }
  d.add(r.thermal);
  d.add(r.throttled);
  d.add(r.peak_temp_c);
  d.add(r.throttle_events);
}

namespace {

void add_config(Digest& d, const rp::v1::GpuConfigSpec& c) {
  d.add(c.name);
  d.add(c.core_mhz);
  d.add(c.mem_mhz);
  d.add(c.core_voltage);
  d.add(c.mem_voltage);
  d.add(c.ecc);
}

void add_activity(Digest& d, const rp::sim::Activity& a) {
  for (const double v :
       {a.warp_instructions, a.fp32_ops, a.fp64_ops, a.int_ops, a.sfu_ops,
        a.shared_accesses, a.l2_transactions, a.dram_transactions,
        a.dram_bus_bytes, a.atomic_ops}) {
    d.add(v);
  }
}

}  // namespace

void add_sweep(Digest& d, const rp::v1::SweepResult& sweep) {
  d.add(sweep.program);
  d.add(static_cast<std::uint64_t>(sweep.input_index));
  d.add(static_cast<std::uint64_t>(sweep.grid_points));
  d.add(static_cast<std::uint64_t>(sweep.pruned));
  d.add(static_cast<std::uint64_t>(sweep.measured));
  for (const rp::v1::SweepPoint& p : sweep.points) {
    add_config(d, p.config);
    d.add(p.analytic_time_s);
    d.add(p.analytic_energy_j);
    d.add(p.analytic_power_w);
    d.add(p.pruned);
    d.add(p.measured);
    d.add(p.pareto);
    d.add(p.cached);
    d.add(p.retries);
    d.add(p.degraded);
    add_result(d, p.result);
  }
}

void add_recommendation(Digest& d, const rp::v1::Recommendation& rec) {
  d.add(rec.ok);
  d.add(rec.error);
  d.add(static_cast<int>(rec.objective));
  add_config(d, rec.config);
  d.add(rec.objective_value);
  d.add(rec.time_s);
  d.add(rec.energy_j);
  d.add(rec.power_w);
  add_sweep(d, rec.sweep);
}

void add_trace(Digest& d, const rp::workloads::LaunchTrace& trace) {
  d.add(static_cast<std::uint64_t>(trace.size()));
  for (const rp::workloads::KernelLaunch& k : trace) {
    d.add(k.name);
    d.add(k.blocks);
    d.add(k.threads_per_block);
    d.add(k.regs_per_thread);
    d.add(k.shared_bytes_per_block);
    // InstructionMix is all doubles: its bytes are its values.
    d.bytes(&k.mix, sizeof k.mix);
    d.add(k.imbalance);
    d.add(k.host_gap_before_s);
  }
}

void add_trace_result(Digest& d, const rp::sim::TraceResult& trace) {
  d.add(static_cast<std::uint64_t>(trace.phases.size()));
  for (const rp::sim::Phase& p : trace.phases) {
    d.add(p.kernel_name);
    d.add(p.host_gap_before_s);
    d.add(p.duration_s);
    add_activity(d, p.activity);
    d.add(p.memory_bound);
  }
  d.add(trace.active_time_s);
  d.add(trace.total_span_s);
  add_activity(d, trace.total_activity);
}

rp::v1::MeasurementResult to_v1(const rp::core::ExperimentResult& r) {
  rp::v1::MeasurementResult out;
  out.usable = r.usable;
  out.time_s = r.time_s;
  out.energy_j = r.energy_j;
  out.power_w = r.power_w;
  out.true_active_s = r.true_active_s;
  out.time_spread = r.time_spread;
  out.energy_spread = r.energy_spread;
  out.thermal = r.thermal;
  out.throttled = r.throttled;
  out.peak_temp_c = r.peak_temp_c;
  out.throttle_events = r.throttle_events;
  return out;
}

rp::v1::MeasurementResult to_v1(const rp::sample::SampledResult& r) {
  rp::v1::MeasurementResult out = to_v1(r.base);
  out.sampled = r.sampled;
  out.sample_fraction = r.fraction;
  out.time_ci = {r.time_ci.low, r.time_ci.high};
  out.energy_ci = {r.energy_ci.low, r.energy_ci.high};
  out.power_ci = {r.power_ci.low, r.power_ci.high};
  return out;
}

bool identical(const rp::core::ExperimentResult& a,
               const rp::core::ExperimentResult& b) {
  const auto digest = [](const rp::core::ExperimentResult& r) {
    Digest d;
    add_result(d, to_v1(r));
    for (const rp::k20power::Measurement& m : r.repetitions) {
      d.add(m.usable);
      d.add(m.active_time_s);
      d.add(m.energy_j);
      d.add(m.avg_power_w);
      d.add(m.idle_w);
      d.add(m.threshold_w);
      d.add(m.peak_w);
      d.add(m.active_samples);
    }
    return d.value();
  };
  return a.repetitions.size() == b.repetitions.size() &&
         digest(a) == digest(b);
}

namespace {

void append_number(std::string& out, double v) {
  char buffer[40];
  if (std::isfinite(v)) {
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
  } else {
    std::snprintf(buffer, sizeof buffer, "null");
  }
  out += buffer;
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_map(std::string& out, const std::map<std::string, double>& map) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ':';
    append_number(out, value);
  }
  out += '}';
}

}  // namespace

void Report::print() const {
  std::string line = "{\"ready_mono\":";
  append_number(line, ready_mono);
  line += ",\"wall_s\":";
  append_number(line, wall_s);
  line += ",\"rss_mb\":";
  append_number(line, rss_mb);
  line += ",\"digest\":";
  append_string(line, digest);
  line += ",\"attempted\":";
  line += std::to_string(attempted);
  line += ",\"failed\":";
  line += std::to_string(failed);
  line += ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) line += ',';
    append_string(line, checks[i]);
  }
  line += "],\"latencies_ms\":[";
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    if (i > 0) line += ',';
    append_number(line, latencies_ms[i]);
  }
  line += "],\"metrics\":";
  append_map(line, metrics);
  line += ",\"info\":";
  append_map(line, info);
  line += "}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
