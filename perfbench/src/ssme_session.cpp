#include <optional>

#include "perfbench.hpp"
#include "sim/any_protocol.hpp"

namespace perfbench {

SessionOutput run_typed_ssme(Tracer& tracer, const specstab::Graph& g,
                             specstab::VertexId diam,
                             const SsmeSessionInput& in, StepStats* steps) {
  using Traits = specstab::SsmeGamma1Traits;
  using State = specstab::ClockValue;

  std::optional<Traits::Protocol> proto;
  std::unique_ptr<specstab::Daemon> daemon;
  specstab::Config<State> init;
  {
    const auto span = tracer.span("sim.make");
    proto.emplace(Traits::make(g, diam));
    daemon = specstab::make_daemon(in.daemon, in.seed);
    init = Traits::make_init(g, *proto, in.init, in.seed);
  }
  specstab::RunOptions run_opt;
  run_opt.engine = in.parallel_engine ? specstab::EngineKind::kParallel
                                      : specstab::EngineKind::kIncremental;
  run_opt.threads = in.threads;
  run_opt.max_steps = Traits::step_cap(g, diam);
  run_opt.steps_after_convergence = 0;
  specstab::ClosureCounting checker(Traits::make_checker(g, *proto));

  specstab::StepObserver<State> observer;
  Clock::time_point last = Clock::now();
  if (steps != nullptr) {
    observer = [steps, &last](specstab::StepIndex, specstab::ConfigView<State>,
                              const std::vector<specstab::VertexId>& active) {
      const Clock::time_point now = Clock::now();
      steps->gaps_us.push_back(
          std::chrono::duration<double, std::micro>(now - last).count());
      steps->activated += static_cast<std::int64_t>(active.size());
      last = now;
    };
  }
  specstab::RunResult<State> res;
  {
    const auto span = tracer.span("sim.engine");
    last = Clock::now();
    res = specstab::run_with_engine(g, *proto, *daemon, std::move(init),
                                    run_opt, checker, observer);
  }
  SessionOutput out;
  if (in.render) {
    const auto span = tracer.span("sim.render");
    std::vector<std::string> states;
    states.reserve(res.final_config.size());
    for (const auto& s : res.final_config) {
      states.push_back(Traits::print_state(s));
    }
    out.digest = specstab::detail::digest_states(states);
    std::vector<std::string> notes;
    Traits::annotate(g, diam, *proto, res, notes);
  }
  out.converged = res.converged();
  out.steps = res.steps;
  out.moves = res.moves;
  out.rounds = res.rounds;
  out.convergence = res.converged() ? res.convergence_steps() : -1;
  out.closure_violations = checker.violations();
  return out;
}

}  // namespace perfbench
