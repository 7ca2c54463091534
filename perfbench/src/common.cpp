#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples (the epsilon keeps
/// 99.9% of 10000 at 9990 despite binary rounding).
std::size_t rank_of(double pct, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = std::clamp<std::size_t>(rank_of(pct, sorted.size()),
                                                   1, sorted.size());
  return sorted[rank - 1];
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n >= rank_of(pct, n) + 10) best = pct;
  }
  return best;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  for (const double v : samples) s.sum += v;
  if (s.n > 0) {
    s.median = s.n % 2 == 1
                   ? samples[s.n / 2]
                   : 0.5 * (samples[s.n / 2 - 1] + samples[s.n / 2]);
  }
  s.tail_pct = tail_percentile(s.n);
  if (s.tail_pct > 0.0) s.tail = nearest_rank(samples, s.tail_pct);
  s.sorted = std::move(samples);
  return s;
}

double Summary::at_or_tail(double pct) const {
  if (tail_percentile(n) >= pct) return nearest_rank(sorted, pct);
  return tail_pct > 0.0 ? tail : median;
}

std::string Summary::describe(double scale) const {
  std::ostringstream os;
  os << "n=" << n;
  if (tail_pct > 0.0) {
    os << " p" << tail_pct << "=" << tail * scale;
  } else {
    os << " (under 20 samples: no tail percentile)";
  }
  return os.str();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const int c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(child.start_ns, parent.start_ns);
      const std::int64_t b = std::min(child.end_ns, parent.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = (parent.end_ns - parent.start_ns) - covered;
  }
  return self;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::int64_t request)
    : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.begin(name, request);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.end(index_);
}

int Tracer::begin(std::string_view name, std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.request =
      request >= 0 || open_ < 0 ? request
                                : spans_[static_cast<std::size_t>(open_)].request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  open_ = static_cast<int>(spans_.size() - 1);
  return open_;
}

void Tracer::end(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  open_ = span.parent;
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::int64_t Tracer::count(std::string_view name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [name](const Span& s) { return s.name == name; });
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i]
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::map<std::string, std::string> host_stamp() {
  std::map<std::string, std::string> out;
  out["nproc"] = std::to_string(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  out["cpu"] = cpu_model();
  out["compiler"] = compiler();
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  const char* rev = std::getenv("PERFBENCH_SOURCE_REV");
  out["source_rev"] = rev != nullptr ? rev : "unknown";
  return out;
}

std::int64_t proc_status_field(int pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      std::int64_t value = -1;
      fields >> value;
      return value;
    }
  }
  return -1;
}

void add_process_memory(Outcome& outcome, int pid, const std::string& who) {
  outcome.add("peak_rss_mb",
              static_cast<double>(proc_status_field(pid, "VmHWM")) / 1024.0,
              "MiB", who + " VmHWM");
  outcome.add("server_vmsize_mb",
              static_cast<double>(proc_status_field(pid, "VmSize")) / 1024.0,
              "MiB", who + " VmSize at the end of the workload");
}

}  // namespace perfbench
