#include "sim/protocol_registry.hpp"

#include <algorithm>
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
