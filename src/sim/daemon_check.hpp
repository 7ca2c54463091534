// Daemon contract checking — the executable face of the daemon taxonomy
// (paper Definitions 1-2; Dubois & Tixeuil's taxonomy, the paper's
// reference [10]).
//
// A daemon class is a *promise* about the activation sets it may choose:
// the synchronous daemon activates every enabled vertex, central daemons
// exactly one, locally central daemons an independent set, k-fair
// daemons bound how often a continuously enabled vertex is bypassed.
// DaemonAudit wraps any daemon, forwards its choices unchanged, and
// records everything needed to verify those promises over real
// executions:
//
//   - every selection is a non-empty subset of the enabled set (the
//     base Daemon contract),
//   - min/max activation-set sizes,
//   - whether two adjacent vertices were ever activated together
//     (violates local centrality),
//   - the worst bypass streak: the longest run of consecutive actions in
//     which some continuously enabled vertex was never activated
//     (fairness evidence; bounded by k for a k-fair daemon).
//
// Tests drive every concrete daemon through the audit and assert the
// class promises; users can audit custom daemons the same way.
#ifndef SPECSTAB_SIM_DAEMON_CHECK_HPP
#define SPECSTAB_SIM_DAEMON_CHECK_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Everything observed about a daemon's choices during one execution.
struct DaemonAuditReport {
  StepIndex actions = 0;
  std::size_t min_activation = 0;   ///< smallest activation set chosen
  std::size_t max_activation = 0;   ///< largest activation set chosen
  bool subset_of_enabled = true;    ///< every choice within the enabled set
  bool nonempty = true;             ///< never chose the empty set
  bool sorted = true;               ///< every choice in ascending id order
  bool always_all_enabled = true;   ///< chose the full enabled set each time
  bool always_singleton = true;     ///< chose exactly one vertex each time
  bool adjacent_coactivation = false;  ///< two neighbours activated together
  /// Longest streak of consecutive actions during which some vertex was
  /// enabled throughout yet never activated.
  StepIndex worst_bypass_streak = 0;

  [[nodiscard]] bool contract_holds() const {
    return subset_of_enabled && nonempty && sorted;
  }
};

/// Forwards to `inner`, auditing every selection.  An action costs
/// O(|enabled| + |choice| + the chosen vertices' degrees): the chosen
/// vertices are stamped with the action's number once, and every check
/// reads the stamps.
class DaemonAudit final : public Daemon {
 public:
  explicit DaemonAudit(Daemon& inner, VertexId n)
      : inner_(&inner),
        chosen_at_(static_cast<std::size_t>(n), 0),
        bypassed_at_(static_cast<std::size_t>(n), 0),
        streak_(static_cast<std::size_t>(n), 0) {}

  void select_into(const Graph& g, const EnabledView& enabled, StepIndex step,
                   ActionBuffer& out) override {
    inner_->select_into(g, enabled, step, out);
    audit(g, enabled.vertices(), out.active);
  }

  [[nodiscard]] std::string name() const override {
    return "audit(" + inner_->name() + ")";
  }

  void reset() override { inner_->reset(); }

  [[nodiscard]] const DaemonAuditReport& report() const noexcept {
    return report_;
  }

 private:
  void audit(const Graph& g, const std::vector<VertexId>& enabled,
             const std::vector<VertexId>& choice) {
    const StepIndex action = ++report_.actions;
    if (choice.empty()) report_.nonempty = false;
    if (!std::ranges::is_sorted(choice)) report_.sorted = false;
    if (action == 1) {
      report_.min_activation = choice.size();
      report_.max_activation = choice.size();
    } else {
      report_.min_activation = std::min(report_.min_activation, choice.size());
      report_.max_activation = std::max(report_.max_activation, choice.size());
    }
    if (choice.size() != enabled.size()) report_.always_all_enabled = false;
    if (choice.size() != 1) report_.always_singleton = false;

    // Stamp the chosen vertices; an id outside the graph is outside the
    // enabled set.
    const auto n = static_cast<VertexId>(chosen_at_.size());
    std::size_t distinct = 0;
    for (VertexId v : choice) {
      if (v < 0 || v >= n) {
        report_.subset_of_enabled = false;
        continue;
      }
      StepIndex& stamp = chosen_at_[static_cast<std::size_t>(v)];
      if (stamp != action) {
        stamp = action;
        ++distinct;
      }
    }

    // One sweep of the enabled set: the choice is a subset iff every
    // distinct chosen vertex is enabled.  An enabled vertex left out
    // extends its bypass streak when the previous action also bypassed
    // it and starts one otherwise; activation or disablement ends a
    // streak, which the bypassed_at_ stamps record without a pass over
    // every vertex.
    std::size_t chosen_enabled = 0;
    for (VertexId v : enabled) {
      const auto vi = static_cast<std::size_t>(v);
      if (chosen_at_[vi] == action) {
        ++chosen_enabled;
        continue;
      }
      streak_[vi] = bypassed_at_[vi] == action - 1 ? streak_[vi] + 1 : 1;
      bypassed_at_[vi] = action;
      report_.worst_bypass_streak =
          std::max(report_.worst_bypass_streak, streak_[vi]);
    }
    if (chosen_enabled != distinct) report_.subset_of_enabled = false;

    // Adjacent co-activation: a chosen vertex with a chosen neighbour.
    for (VertexId v : choice) {
      if (report_.adjacent_coactivation) break;
      if (v < 0 || v >= n) continue;
      for (VertexId u : g.neighbors(v)) {
        if (chosen_at_[static_cast<std::size_t>(u)] == action) {
          report_.adjacent_coactivation = true;
          break;
        }
      }
    }
  }

  Daemon* inner_;
  DaemonAuditReport report_;
  std::vector<StepIndex> chosen_at_;    ///< action that last chose v
  std::vector<StepIndex> bypassed_at_;  ///< action that last bypassed v
  std::vector<StepIndex> streak_;       ///< v's streak as of bypassed_at_
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_DAEMON_CHECK_HPP
