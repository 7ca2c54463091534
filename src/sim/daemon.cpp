#include "sim/daemon.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "util/parse_number.hpp"

namespace specstab {

namespace {

/// Appends the positions of an i.i.d. Bernoulli(p) sample over
/// `enabled` to `out` by drawing geometric skip lengths: the gap between
/// consecutive successes of a Bernoulli(p) sequence is Geometric(p), so
/// the sampled subset has exactly the per-vertex coin-flip distribution
/// while consuming ~p draws per enabled vertex instead of one.  Requires
/// 0 < p < 1 (p = 1 is the deterministic select-all case).
void geometric_skip_sample(const EnabledView& enabled, double p,
                           std::mt19937_64& rng, std::vector<VertexId>& out) {
  out.reserve(enabled.size());  // no-op once the buffer is warm
  std::geometric_distribution<std::int64_t> skip(p);
  const std::vector<VertexId>& list = enabled.vertices();
  const auto size = static_cast<std::int64_t>(list.size());
  for (std::int64_t pos = skip(rng); pos < size; pos += 1 + skip(rng)) {
    out.push_back(list[static_cast<std::size_t>(pos)]);
  }
}

/// A daemon must choose a non-empty action: when the Bernoulli sample
/// came up empty, activate one uniformly random enabled vertex.
void ensure_nonempty(const EnabledView& enabled, std::mt19937_64& rng,
                     std::vector<VertexId>& out) {
  if (!out.empty()) return;
  std::uniform_int_distribution<std::size_t> pick(0, enabled.size() - 1);
  out.push_back(enabled[pick(rng)]);
}

}  // namespace

std::vector<VertexId> Daemon::select(const Graph& g,
                                     const std::vector<VertexId>& enabled,
                                     StepIndex step) {
  ActionBuffer buf;
  select_into(g, EnabledView(enabled), step, buf);
  return std::move(buf.active);
}

void SynchronousDaemon::select_into(const Graph&, const EnabledView& enabled,
                                    StepIndex, ActionBuffer& out) {
  out.active.assign(enabled.vertices().begin(), enabled.vertices().end());
}

void CentralRoundRobinDaemon::select_into(const Graph& g,
                                          const EnabledView& enabled,
                                          StepIndex, ActionBuffer& out) {
  // First enabled vertex with id >= cursor, wrapping around.  The cursor
  // itself is still enabled in the common case (few guards flip per
  // action under a central schedule), which contains() answers in O(1)
  // on the engine's mask words; otherwise fall back to the successor
  // search.
  VertexId chosen;
  if (cursor_ < g.n() && enabled.contains(cursor_)) {
    chosen = cursor_;
  } else {
    const auto& v = enabled.vertices();
    auto it = std::lower_bound(v.begin(), v.end(), cursor_);
    chosen = (it != v.end()) ? *it : v.front();
  }
  cursor_ = (chosen + 1) % g.n();
  out.active.assign(1, chosen);
}

void CentralRandomDaemon::select_into(const Graph&, const EnabledView& enabled,
                                      StepIndex, ActionBuffer& out) {
  std::uniform_int_distribution<std::size_t> pick(0, enabled.size() - 1);
  out.active.assign(1, enabled[pick(rng_)]);
}

void CentralMinIdDaemon::select_into(const Graph&, const EnabledView& enabled,
                                     StepIndex, ActionBuffer& out) {
  out.active.assign(1, enabled.front());
}

void CentralMaxIdDaemon::select_into(const Graph&, const EnabledView& enabled,
                                     StepIndex, ActionBuffer& out) {
  out.active.assign(1, enabled.back());
}

DistributedBernoulliDaemon::DistributedBernoulliDaemon(double p,
                                                       std::uint64_t seed)
    : p_(p), seed_(seed), rng_(seed) {
  // NaN fails both comparisons.  A p at or below 2^-54 leaves 1 - p == 1,
  // where the geometric skip draw divides by log(1) = 0.
  if (!(p > 0.0 && p <= 1.0) || 1.0 - p == 1.0) {
    throw std::invalid_argument(
        "bernoulli probability must be in (0, 1] with 1 - p < 1");
  }
}

void DistributedBernoulliDaemon::select_into(const Graph&,
                                             const EnabledView& enabled,
                                             StepIndex, ActionBuffer& out) {
  out.active.clear();
  if (p_ >= 1.0) {  // sd degenerate case: all enabled, no draws
    out.active.assign(enabled.vertices().begin(), enabled.vertices().end());
    return;
  }
  geometric_skip_sample(enabled, p_, rng_, out.active);
  ensure_nonempty(enabled, rng_, out.active);
}

std::string DistributedBernoulliDaemon::name() const {
  std::ostringstream os;
  os << "distributed-bernoulli(p=" << p_ << ")";
  return os.str();
}

void RandomSubsetDaemon::select_into(const Graph&, const EnabledView& enabled,
                                     StepIndex, ActionBuffer& out) {
  out.active.clear();
  geometric_skip_sample(enabled, 0.5, rng_, out.active);
  ensure_nonempty(enabled, rng_, out.active);
}

void LocallyCentralDaemon::select_into(const Graph& g,
                                       const EnabledView& enabled, StepIndex,
                                       ActionBuffer& out) {
  // Greedy maximal independent subset of `enabled`, scanning from a
  // random rotation so every enabled vertex is served with positive
  // probability per action.
  std::uniform_int_distribution<std::size_t> rot(0, enabled.size() - 1);
  const std::size_t start = rot(rng_);
  out.marks.begin(g.n());  // blocked = marked
  out.active.clear();
  out.active.reserve(enabled.size());  // no-op once the buffer is warm
  const std::vector<VertexId>& list = enabled.vertices();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const VertexId v = list[(start + i) % list.size()];
    if (out.marks.marked(v)) continue;
    out.active.push_back(v);
    for (VertexId u : g.neighbors(v)) out.marks.mark(u);
  }
  std::sort(out.active.begin(), out.active.end());
}

KFairCentralDaemon::KFairCentralDaemon(StepIndex k, std::uint64_t seed)
    : k_(k), seed_(seed), rng_(seed) {
  if (k < 1) throw std::invalid_argument("KFairCentralDaemon: need k >= 1");
}

void KFairCentralDaemon::select_into(const Graph& g, const EnabledView& enabled,
                                     StepIndex step, ActionBuffer& out) {
  if (enabled_since_.size() != static_cast<std::size_t>(g.n())) {
    enabled_since_.assign(static_cast<std::size_t>(g.n()), -1);
  }
  // Age bookkeeping: vertices enabled now keep (or get) their first
  // continuously-enabled step; others are cleared.
  out.marks.begin(g.n());  // enabled-now = marked
  for (VertexId v : enabled.vertices()) out.marks.mark(v);
  VertexId overdue = -1;
  StepIndex oldest = step + 1;
  for (VertexId v = 0; v < g.n(); ++v) {
    auto& since = enabled_since_[static_cast<std::size_t>(v)];
    if (!out.marks.marked(v)) {
      since = -1;
      continue;
    }
    if (since < 0) since = step;
    if (step - since >= k_ - 1 && since < oldest) {
      oldest = since;
      overdue = v;
    }
  }
  VertexId chosen;
  if (overdue >= 0) {
    chosen = overdue;
  } else {
    std::uniform_int_distribution<std::size_t> pick(0, enabled.size() - 1);
    chosen = enabled[pick(rng_)];
  }
  enabled_since_[static_cast<std::size_t>(chosen)] = -1;
  out.active.assign(1, chosen);
}

std::string KFairCentralDaemon::name() const {
  std::ostringstream os;
  os << "k-fair-central(k=" << k_ << ")";
  return os.str();
}

void KFairCentralDaemon::reset() {
  rng_.seed(seed_);
  enabled_since_.clear();
}

void StarvationDaemon::select_into(const Graph&, const EnabledView& enabled,
                                   StepIndex, ActionBuffer& out) {
  for (VertexId v : enabled.vertices()) {
    if (v != victim_) {
      out.active.assign(1, v);
      return;
    }
  }
  out.active.assign(1, enabled.front());  // only the victim: must serve it
}

std::string StarvationDaemon::name() const {
  std::ostringstream os;
  os << "starvation(victim=" << victim_ << ")";
  return os.str();
}

PriorityCentralDaemon::PriorityCentralDaemon(std::vector<VertexId> priority)
    : priority_(std::move(priority)) {}

void PriorityCentralDaemon::select_into(const Graph&,
                                        const EnabledView& enabled, StepIndex,
                                        ActionBuffer& out) {
  for (VertexId v : priority_) {
    if (enabled.contains(v)) {
      out.active.assign(1, v);
      return;
    }
  }
  out.active.assign(1, enabled.front());
}

ScheduledDaemon::ScheduledDaemon(std::vector<std::vector<VertexId>> schedule,
                                 std::unique_ptr<Daemon> fallback)
    : schedule_(std::move(schedule)), fallback_(std::move(fallback)) {
  if (!fallback_) fallback_ = std::make_unique<SynchronousDaemon>();
}

void ScheduledDaemon::select_into(const Graph& g, const EnabledView& enabled,
                                  StepIndex step, ActionBuffer& out) {
  while (next_ < schedule_.size()) {
    const auto& want = schedule_[next_++];
    out.active.clear();
    for (VertexId v : want) {
      if (enabled.contains(v)) out.active.push_back(v);
    }
    if (!out.active.empty()) {
      std::sort(out.active.begin(), out.active.end());
      return;
    }
    // Scheduled set entirely disabled: skip the entry and try the next.
  }
  fallback_->select_into(g, enabled, step, out);
}

void ScheduledDaemon::reset() {
  next_ = 0;
  fallback_->reset();
}

namespace {

/// Catalog row plus the machinery the public accessors strip off: how a
/// request matches the row (exact name or the bernoulli-<p> pattern) and
/// how to construct the daemon from the matched request.
struct DaemonSpec {
  DaemonInfo info;
  bool (*matches)(const std::string& name);
  std::unique_ptr<Daemon> (*make)(const std::string& name,
                                  std::uint64_t seed);
};

std::unique_ptr<Daemon> make_bernoulli(const std::string& name,
                                       std::uint64_t seed) {
  double p = 0.0;
  if (parse_number(std::string_view(name).substr(10), p) != std::errc()) {
    throw std::invalid_argument("bad bernoulli activation probability in '" +
                                name + "'");
  }
  return std::make_unique<DistributedBernoulliDaemon>(p, seed);
}

const std::vector<DaemonSpec>& daemon_table() {
  static const std::vector<DaemonSpec> table = {
      {{"synchronous", "sd: activates every enabled vertex", false},
       [](const std::string& n) { return n == "synchronous"; },
       [](const std::string&, std::uint64_t) -> std::unique_ptr<Daemon> {
         return std::make_unique<SynchronousDaemon>();
       }},
      {{"central-rr", "fair central schedule, id order", false},
       [](const std::string& n) { return n == "central-rr"; },
       [](const std::string&, std::uint64_t) -> std::unique_ptr<Daemon> {
         return std::make_unique<CentralRoundRobinDaemon>();
       }},
      {{"central-random", "one uniformly random enabled vertex", true},
       [](const std::string& n) { return n == "central-random"; },
       [](const std::string&, std::uint64_t seed) -> std::unique_ptr<Daemon> {
         return std::make_unique<CentralRandomDaemon>(seed);
       }},
      {{"central-min-id", "unfair: always the smallest enabled id", false},
       [](const std::string& n) { return n == "central-min-id"; },
       [](const std::string&, std::uint64_t) -> std::unique_ptr<Daemon> {
         return std::make_unique<CentralMinIdDaemon>();
       }},
      {{"central-max-id", "unfair: always the largest enabled id", false},
       [](const std::string& n) { return n == "central-max-id"; },
       [](const std::string&, std::uint64_t) -> std::unique_ptr<Daemon> {
         return std::make_unique<CentralMaxIdDaemon>();
       }},
      {{"random-subset", "uniform non-empty subset of the enabled set",
        true},
       [](const std::string& n) { return n == "random-subset"; },
       [](const std::string&, std::uint64_t seed) -> std::unique_ptr<Daemon> {
         return std::make_unique<RandomSubsetDaemon>(seed);
       }},
      {{"locally-central", "maximal independent subset per action", true},
       [](const std::string& n) { return n == "locally-central"; },
       [](const std::string&, std::uint64_t seed) -> std::unique_ptr<Daemon> {
         return std::make_unique<LocallyCentralDaemon>(seed);
       }},
      {{"bernoulli-<p>", "each enabled vertex independently with prob. p",
        true},
       [](const std::string& n) { return n.starts_with("bernoulli-"); },
       make_bernoulli},
  };
  return table;
}

}  // namespace

const std::vector<DaemonInfo>& daemon_catalog() {
  static const std::vector<DaemonInfo> catalog = [] {
    std::vector<DaemonInfo> out;
    out.reserve(daemon_table().size());
    for (const auto& spec : daemon_table()) out.push_back(spec.info);
    return out;
  }();
  return catalog;
}

std::unique_ptr<Daemon> make_daemon(const std::string& name,
                                    std::uint64_t seed) {
  for (const auto& spec : daemon_table()) {
    if (spec.matches(name)) return spec.make(name, seed);
  }
  throw std::invalid_argument("unknown daemon '" + name +
                              "' (see `specstab daemons`)");
}

std::vector<std::string> known_daemon_names() {
  std::vector<std::string> out;
  out.reserve(daemon_catalog().size());
  for (const auto& info : daemon_catalog()) out.push_back(info.name);
  return out;
}

bool daemon_name_is_randomized(const std::string& name) {
  for (const auto& spec : daemon_table()) {
    if (spec.matches(name)) return spec.info.randomized;
  }
  return false;
}

}  // namespace specstab
