// Speculation study — Definition 4 in action.
//
// Measures conv_time(SSME, d) as a FUNCTION of the daemon d on one
// topology: the synchronous daemon (the speculated common case) against
// the asynchronous adversary portfolio (stand-in for the unfair
// distributed daemon).  Prints the Definition-4 verdict: SSME is
// (ud, sd, Theta(diam n^3), Theta(diam))-speculatively stabilizing.
#include <functional>
#include <iomanip>
#include <iostream>

#include "core/adversarial_configs.hpp"
#include "core/speculation.hpp"
#include "core/ssme.hpp"
#include "core/theory.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace specstab;

  const Graph g = make_torus(4, 4);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  std::cout << "topology: 4x4 torus, n = " << g.n()
            << ", diam = " << proto.params().diam << "\n\n";

  // Shared workload: random corrupted states plus the crafted witness.
  auto inits = random_configs(g, proto.clock(), 5, 2718);
  inits.push_back(two_gradient_config(g, proto));

  const std::function<bool(const Graph&, const Config<ClockValue>&)> gamma1 =
      [&proto](const Graph& gg, const Config<ClockValue>& c) {
        return proto.legitimate(gg, c);
      };
  const std::function<bool(const Graph&, const Config<ClockValue>&)> safe =
      [&proto](const Graph& gg, const Config<ClockValue>& c) {
        return proto.mutex_safe(gg, c);
      };

  RunOptions opt;
  opt.max_steps = ssme_ud_step_cap(proto.params().n, proto.params().diam);
  opt.steps_after_convergence = 0;

  // conv_time under the weak (speculated) daemon, spec_ME safety.
  SynchronousDaemon sd;
  const auto weak = measure_convergence(g, proto, sd, inits, safe, opt);

  // conv_time under the adversary portfolio, Gamma_1 (the ud target).
  auto portfolio = AdversaryPortfolio::standard(42);
  const auto strong = measure_portfolio(g, proto, portfolio, inits, gamma1, opt);

  std::cout << std::left << std::setw(28) << "daemon" << std::right
            << std::setw(14) << "worst-steps" << std::setw(14)
            << "worst-moves" << "\n"
            << std::string(56, '-') << "\n";
  std::cout << std::left << std::setw(28) << "synchronous (spec_ME)"
            << std::right << std::setw(14) << weak.worst_steps
            << std::setw(14) << weak.worst_moves << "\n";
  for (const auto& row : strong.rows) {
    std::cout << std::left << std::setw(28) << row.daemon_name << std::right
              << std::setw(14) << row.worst_steps << std::setw(14)
              << row.worst_moves << "\n";
  }

  SpeculationVerdict verdict;
  verdict.weak_daemon = "synchronous";
  verdict.weak_steps = weak.worst_steps;
  verdict.strong_steps = strong.worst_steps;
  verdict.weak_bound = static_cast<double>(ssme_sync_bound(proto.params().diam));
  verdict.strong_bound =
      static_cast<double>(ssme_ud_bound(proto.params().n, proto.params().diam));
  verdict.weak_within_bound = verdict.weak_steps <= verdict.weak_bound;
  verdict.strong_within_bound = verdict.strong_steps <= verdict.strong_bound;

  std::cout << "\nDefinition 4 verdict:\n";
  std::cout << "  f'(g) = ceil(diam/2) = " << verdict.weak_bound
            << ", measured " << verdict.weak_steps << " => "
            << (verdict.weak_within_bound ? "within" : "VIOLATED") << "\n";
  std::cout << "  f(g)  = O(diam n^3)  = " << verdict.strong_bound
            << ", measured " << verdict.strong_steps << " => "
            << (verdict.strong_within_bound ? "within" : "VIOLATED") << "\n";
  std::cout << "  observed separation: " << std::fixed << std::setprecision(1)
            << verdict.observed_speedup() << "x\n";
  std::cout << "SSME is (ud, sd, Theta(diam n^3), Theta(diam))-speculatively "
               "stabilizing for spec_ME.\n";
  return 0;
}
