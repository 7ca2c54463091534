#include "sim/protocol_registry.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/properties.hpp"
#include "sim/any_protocol.hpp"
#include "sim/fault_plan.hpp"

namespace specstab {

std::string SessionSpec::to_canonical_string() const {
  std::string out;
  out += "daemon=" + daemon;
  out += ",engine=" + std::string(engine_name(engine));
  out += ",init=" + init;
  out += ",max_steps=" + std::to_string(max_steps);
  out += ",perturb=" + FaultSpec::parse(perturb).format();
  out += ",seed=" + std::to_string(seed);
  out += ",threads=" + std::to_string(threads);
  return out;
}

SessionSpec SessionSpec::parse(const std::string& text) {
  SessionSpec spec;
  const auto fail = [&text](const std::string& why) -> SessionSpec {
    throw std::invalid_argument("bad session spec '" + text + "': " + why);
  };
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string field = text.substr(pos, end - pos);
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) return fail("field '" + field + "' has no =");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    const auto as_int = [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t parsed = 0;
      try {
        std::size_t used = 0;
        parsed = std::stoll(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        fail("non-integer value '" + value + "' for '" + key + "'");
      }
      if (parsed < lo || parsed > hi) {
        fail("out-of-range value '" + value + "' for '" + key + "'");
      }
      return parsed;
    };
    if (key == "daemon") {
      spec.daemon = value;
    } else if (key == "engine") {
      spec.engine = engine_by_name(value);
    } else if (key == "init") {
      spec.init = value;
    } else if (key == "max_steps") {
      spec.max_steps =
          static_cast<StepIndex>(as_int(0, std::numeric_limits<StepIndex>::max()));
    } else if (key == "perturb") {
      // Canonicalizes and validates in one go; "none" stays "none".
      spec.perturb = FaultSpec::parse(value).format();
    } else if (key == "seed") {
      if (value.empty() || value[0] == '-') {
        return fail("seed must be non-negative: '" + value + "'");
      }
      try {
        std::size_t used = 0;
        spec.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        return fail("non-integer value '" + value + "' for 'seed'");
      }
    } else if (key == "threads") {
      spec.threads = static_cast<unsigned>(as_int(1, 4096));
    } else {
      return fail("unknown key '" + key + "'");
    }
    pos = end + 1;
  }
  return spec;
}

std::uint64_t session_cache_key(const std::string& protocol,
                                const std::string& topology,
                                const SessionSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;
  const auto eat = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0x1f;  // unit separator between components
    h *= 1099511628211ull;
  };
  eat(protocol);
  eat(topology);
  eat(spec.to_canonical_string());
  return h;
}

bool ProtocolInfo::supports_init(const std::string& init) const {
  return std::find(inits.begin(), inits.end(), init) != inits.end();
}

bool ProtocolInfo::init_is_seeded(const std::string& init) const {
  return std::find(seeded_inits.begin(), seeded_inits.end(), init) !=
         seeded_inits.end();
}

std::string ProtocolInfo::inits_joined() const {
  std::string out;
  for (const auto& init : inits) out += out.empty() ? init : ", " + init;
  return out;
}

bool is_ring_topology(const Graph& g) {
  // The *index* ring specifically: ring protocols address their
  // predecessor by index arithmetic (v-1 mod n), so a structurally-ring
  // cycle over permuted ids would silently mismatch graph adjacency and
  // break the engine's dirty-set locality.  Every v adjacent
  // to (v+1) mod n accounts for n distinct edges; m == n leaves no
  // others, which implies all degrees 2 and connectivity.
  if (g.n() < 3 || g.m() != static_cast<std::int64_t>(g.n())) return false;
  for (VertexId v = 0; v < g.n(); ++v) {
    if (!g.has_edge(v, (v + 1) % g.n())) return false;
  }
  return true;
}

SessionResult ProtocolEntry::run(const Graph& g,
                                 const SessionSpec& spec) const {
  return run_on(g, needs_diameter ? diameter(g) : 0, spec);
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

ProtocolRegistry::ProtocolRegistry() {
  for_each_builtin_protocol(
      [this](auto tag) { add(make_protocol_entry<typename decltype(tag)::Traits>()); });
}

void ProtocolRegistry::add(ProtocolEntry entry) {
  if (entry.info.name.empty() || entry.info.inits.empty() || !entry.run_on ||
      !entry.default_step_cap) {
    throw std::invalid_argument(
        "ProtocolRegistry::add: entry needs a name, at least one init "
        "family, a run function and a step-cap function");
  }
  if (find(entry.info.name) != nullptr) {
    throw std::invalid_argument("ProtocolRegistry::add: duplicate protocol '" +
                                entry.info.name + "'");
  }
  entries_.push_back(std::move(entry));
}

const ProtocolEntry& ProtocolRegistry::at(const std::string& name) const {
  if (const ProtocolEntry* entry = find(name)) return *entry;
  std::string known;
  for (const auto& e : entries_) {
    known += known.empty() ? e.info.name : ", " + e.info.name;
  }
  throw std::invalid_argument("unknown protocol '" + name + "' (known: " +
                              known + ")");
}

const ProtocolEntry* ProtocolRegistry::find(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.info.name);
  return out;
}

}  // namespace specstab
