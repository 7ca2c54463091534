// Shared simulation vocabulary (paper, Section 2).
//
// A *configuration* assigns a state to every vertex.  An *action* moves the
// system from one configuration to the next by activating a subset of
// enabled vertices, each of which atomically reads all neighbours'
// pre-action states (Dijkstra's composite-atomicity state model).
#ifndef SPECSTAB_SIM_TYPES_HPP
#define SPECSTAB_SIM_TYPES_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace specstab {

/// Index of a daemon-chosen action within an execution; configuration
/// gamma_i is the one reached after i actions.
using StepIndex = std::int64_t;

/// A configuration *materialized* as one vector of states, indexed by
/// VertexId.  This is the boundary type — initial configurations, final
/// configurations, trace snapshots — and the reference engine's live
/// configuration.  The production engine stores the live configuration
/// in a ConfigStore; both hand consumers a ConfigView proxy (see
/// sim/config_store.hpp).
template <class State>
using Config = std::vector<State>;

}  // namespace specstab

#endif  // SPECSTAB_SIM_TYPES_HPP
