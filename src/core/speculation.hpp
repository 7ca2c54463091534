// Speculative stabilization (paper, Section 3, Definition 4).
//
// The stabilization time is treated as a *function of the daemon*:
// conv_time(pi, d) is the worst number of actions, over the executions d
// allows, before the execution enters the specification for good.  A
// protocol is (d, d', f, f')-speculatively stabilizing when it
// self-stabilizes under d and conv_time under the weaker d' is
// Theta(f') << Theta(f).
//
// The unfair distributed daemon quantifies over *all* executions, which no
// finite experiment enumerates.  Following DESIGN.md, worst cases under ud
// are approximated by an AdversaryPortfolio (a spread of deterministic,
// random-central, and random-distributed schedules) crossed with caller-
// supplied initial configurations (random plus crafted worst cases); the
// measured maximum is a certified lower bound on the true sup and tracks
// its growth shape.
#ifndef SPECSTAB_CORE_SPECULATION_HPP
#define SPECSTAB_CORE_SPECULATION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental_legitimacy.hpp"
#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Worst-case measurement of one daemon across many initial
/// configurations.
struct ConvergenceMeasurement {
  std::string daemon_name;
  StepIndex worst_steps = 0;       ///< max over runs of (last violation + 1)
  std::int64_t worst_moves = 0;    ///< moves before the stabilization point
  StepIndex worst_rounds = 0;      ///< rounds before the stabilization point
  bool all_converged = true;       ///< every run ended legitimate
  std::size_t runs = 0;
};

/// Measures conv_time of `proto` under `daemon` as the max over
/// `initial_configs`, with an incremental legitimacy checker; the engine
/// is selected by opt.engine.  The checker's init() must fully reset its
/// state (true for all checkers in incremental_legitimacy.hpp), so one
/// instance serves every run.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
ConvergenceMeasurement measure_convergence(
    const Graph& g, const P& proto, Daemon& daemon,
    const std::vector<Config<typename P::State>>& initial_configs, C& checker,
    const RunOptions& opt) {
  ConvergenceMeasurement m;
  m.daemon_name = daemon.name();
  for (const auto& init : initial_configs) {
    daemon.reset();
    const auto res =
        run_with_engine(g, proto, daemon, init, opt, checker);
    ++m.runs;
    if (!res.converged()) {
      m.all_converged = false;
      continue;
    }
    m.worst_steps = std::max(m.worst_steps, res.convergence_steps());
    m.worst_moves = std::max(m.worst_moves, res.moves_to_convergence);
    m.worst_rounds = std::max(m.worst_rounds, res.rounds_to_convergence);
  }
  return m;
}

/// Predicate overload: wraps `legitimate` in a from-scratch RescanChecker
/// (the enabled-set maintenance still follows opt.engine).
template <ProtocolConcept P>
ConvergenceMeasurement measure_convergence(
    const Graph& g, const P& proto, Daemon& daemon,
    const std::vector<Config<typename P::State>>& initial_configs,
    const LegitimacyPredicate<typename P::State>& legitimate,
    const RunOptions& opt) {
  RescanChecker<typename P::State> checker(legitimate);
  return measure_convergence(g, proto, daemon, initial_configs, checker, opt);
}

/// A set of daemons standing in for the unfair distributed daemon's
/// schedule choices.
class AdversaryPortfolio {
 public:
  /// The standard portfolio: synchronous, central round-robin, central
  /// random, central min-id, central max-id, distributed Bernoulli
  /// (p = 0.75, 0.5, 0.25), random subset.
  [[nodiscard]] static AdversaryPortfolio standard(std::uint64_t seed);

  /// A portfolio with only the synchronous daemon (the sd measurements).
  [[nodiscard]] static AdversaryPortfolio synchronous_only();

  void add(std::unique_ptr<Daemon> d) { daemons_.push_back(std::move(d)); }

  [[nodiscard]] std::size_t size() const noexcept { return daemons_.size(); }
  [[nodiscard]] Daemon& daemon(std::size_t i) { return *daemons_[i]; }

 private:
  std::vector<std::unique_ptr<Daemon>> daemons_;
};

/// Per-daemon rows plus the portfolio maximum.
struct PortfolioMeasurement {
  std::vector<ConvergenceMeasurement> rows;
  StepIndex worst_steps = 0;
  std::int64_t worst_moves = 0;
  StepIndex worst_rounds = 0;
  bool all_converged = true;
};

template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
PortfolioMeasurement measure_portfolio(
    const Graph& g, const P& proto, AdversaryPortfolio& portfolio,
    const std::vector<Config<typename P::State>>& initial_configs, C& checker,
    const RunOptions& opt) {
  PortfolioMeasurement pm;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    auto row = measure_convergence(g, proto, portfolio.daemon(i),
                                   initial_configs, checker, opt);
    pm.worst_steps = std::max(pm.worst_steps, row.worst_steps);
    pm.worst_moves = std::max(pm.worst_moves, row.worst_moves);
    pm.worst_rounds = std::max(pm.worst_rounds, row.worst_rounds);
    pm.all_converged = pm.all_converged && row.all_converged;
    pm.rows.push_back(std::move(row));
  }
  return pm;
}

template <ProtocolConcept P>
PortfolioMeasurement measure_portfolio(
    const Graph& g, const P& proto, AdversaryPortfolio& portfolio,
    const std::vector<Config<typename P::State>>& initial_configs,
    const LegitimacyPredicate<typename P::State>& legitimate,
    const RunOptions& opt) {
  RescanChecker<typename P::State> checker(legitimate);
  return measure_portfolio(g, proto, portfolio, initial_configs, checker, opt);
}

/// A Definition-4 style verdict comparing the strong-daemon portfolio
/// against a weak daemon (typically sd) on one instance.
struct SpeculationVerdict {
  std::string weak_daemon;
  StepIndex weak_steps = 0;          ///< conv_time under the weak daemon
  StepIndex strong_steps = 0;        ///< portfolio worst conv_time
  double strong_bound = 0.0;         ///< f(g): bound claimed under d
  double weak_bound = 0.0;           ///< f'(g): bound claimed under d'
  bool weak_within_bound = false;    ///< weak_steps <= f'(g)
  bool strong_within_bound = false;  ///< strong_steps <= f(g)

  /// Speculative separation actually observed (>= 1 when speculation
  /// pays off on this instance).
  [[nodiscard]] double observed_speedup() const {
    return weak_steps == 0 ? static_cast<double>(strong_steps)
                           : static_cast<double>(strong_steps) /
                                 static_cast<double>(weak_steps);
  }
};

}  // namespace specstab

#endif  // SPECSTAB_CORE_SPECULATION_HPP
