#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <thread>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

// Open spans of this thread, innermost last: (log, index) pairs so several
// logs never see each other's spans as parents.
thread_local std::vector<std::pair<const SpanLog*, int>> t_open;

// Self time of every span, in log order.
std::vector<double> self_of(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].start_s;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

// Clock readings are exact; the tolerance only absorbs the rounding of
// the subtractions.
constexpr double kRoundingS = 1e-9;

}  // namespace

int SpanLog::open(std::string name, std::string detail) {
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  SpanRecord record;
  record.name = std::move(name);
  record.detail = std::move(detail);
  record.parent = parent;
  record.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  record.start_s = seconds_since(origin_);
  int index = 0;
  {
    std::lock_guard lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(record));
  }
  t_open.emplace_back(this, index);
  return index;
}

void SpanLog::close(int index) {
  const double end = seconds_since(origin_);
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_s = end;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == index) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanLog::self_times() const {
  const std::vector<SpanRecord> spans = records();
  const std::vector<double> self = self_of(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::map<std::string, double> SpanLog::totals() const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : records()) out[s.name] += s.end_s - s.start_s;
  return out;
}

std::map<std::string, double> SpanLog::totals_by_detail(
    const std::string& name) const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : records()) {
    if (s.name == name) out[s.detail] += s.end_s - s.start_s;
  }
  return out;
}

std::string SpanLog::check() const {
  const std::vector<SpanRecord> spans = records();
  for (const SpanRecord& s : spans) {
    if (s.end_s < s.start_s) return "span " + s.name + " ends before it starts";
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<std::size_t>(s.parent)];
    if (p.thread != s.thread || s.start_s < p.start_s || s.end_s > p.end_s) {
      return "span " + s.name + " lies outside its parent " + p.name;
    }
  }
  const std::vector<double> self = self_of(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < -kRoundingS) {
      return "the children of span " + spans[i].name +
             " cover more than its duration";
    }
  }
  return {};
}

double SpanLog::min_self_s() const {
  const std::vector<double> self = self_of(records());
  return self.empty() ? 0.0 : *std::min_element(self.begin(), self.end());
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const SpanRecord& s : records()) {
    std::string line = "{\"name\":\"";
    repro::obs::append_json_escaped(line, s.name);
    line += "\",\"detail\":\"";
    repro::obs::append_json_escaped(line, s.detail);
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                  "\"thread\":%u}\n",
                  s.start_s, s.end_s, s.parent, s.thread);
    line += buffer;
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
