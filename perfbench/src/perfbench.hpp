// Shared pieces of the repository benchmark: run options, the result a
// workload reports, the timing summary rule and the span tracer.
//
// The benchmark reaches every layer from outside, through the public
// functions the CLI, the campaign runner and the server already call.
// A traced run wraps each of those calls in a span (name, start, end,
// parent, request id); spans stay in memory and are written out when the
// run ends.  Untraced runs record no spans at all.
#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Workload size: kFull is what the benchmark measures; kSmall is the
/// seconds-scale variant the self-test runs (same code paths, same
/// checks, smaller inputs).
enum class Scale { kFull, kSmall };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string specstab_path;  ///< the `specstab` binary (serve child)
  /// Span files and serve sockets go here (relative to the checkout).
  std::string out_dir = ".bench_out";
};

/// One reported number.  `detail` carries the sample count and the tail
/// percentile where the value summarizes a sample set.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;
};

/// What one workload run reports.  `metrics` holds the end-to-end
/// metrics of an untraced run or the per-layer metrics of a traced run;
/// `extra` holds workload-specific numbers printed by name in the
/// report but not part of the fixed metric set.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::map<std::string, std::string> config;  ///< connections, threads, ...

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void add(std::string name, double value, std::string unit,
           std::string detail = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(detail)});
  }
  void add_extra(std::string name, double value, std::string unit,
                 std::string detail = "") {
    extra.push_back({std::move(name), value, std::move(unit),
                     std::move(detail)});
  }
};

// --- timing summaries ---------------------------------------------------

/// Nearest-rank percentile of an ascending sample vector (pct in (0, 100]).
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted,
                                  double pct);

/// The highest of {50, 90, 95, 99, 99.9} that leaves at least ten samples
/// strictly above its nearest rank among `n` samples; 0 when even the
/// median does not (fewer than 20 samples).
[[nodiscard]] double tail_percentile(std::size_t n);

/// Median plus the tail percentile above, with the sample count.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_pct = 0.0;  ///< 0: no percentile has ten samples beyond it
  double tail = 0.0;
  double sum = 0.0;
  std::vector<double> sorted;

  /// "n=1234 p99=5.1" or "n=4 (under 20 samples: no tail percentile)",
  /// with values multiplied by `scale`.
  [[nodiscard]] std::string describe(double scale = 1.0) const;
  /// The value at `pct` when the sample count supports it, else the
  /// highest supported percentile (the median when none is).
  [[nodiscard]] double at_or_tail(double pct) const;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

// --- tracing ------------------------------------------------------------

struct Span {
  std::string_view name;  ///< a string literal: spans never own their names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index into the span list; -1 for a root
  std::int64_t request = -1;  ///< spans of one request share this id
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Single-threaded span recorder.  A disabled tracer records nothing and
/// its scopes cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(std::string_view name, std::int64_t request = -1) {
    return Scope(*this, name, request);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total duration and count of the spans called `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::int64_t count(std::string_view name) const;
  /// Durations of the spans called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const;

  /// Writes one JSON object per span (name, start_ns, end_ns, self_ns,
  /// parent, request) to `path`.  Returns false on an I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  int begin(std::string_view name, std::int64_t request);
  void end(int index);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

// --- host and process ---------------------------------------------------

/// nproc, CPU model, compiler, build type and source revision, as
/// key/value pairs for the result stamp.
[[nodiscard]] std::map<std::string, std::string> host_stamp();

/// A field of /proc/<pid>/status in KiB (VmSize, VmHWM, ...) or the
/// Threads count; -1 when unreadable.
[[nodiscard]] std::int64_t proc_status_field(int pid, const std::string& key);

/// Adds peak_rss_mb (VmHWM) and server_vmsize_mb (VmSize now) of
/// process `pid` to the outcome; `who` names the process in the detail.
void add_process_memory(Outcome& outcome, int pid, const std::string& who);

/// FNV-1a, for digests of rendered outputs.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- the typed SSME session ---------------------------------------------

/// What an SSME session produced, as far as the output checks compare it.
struct SessionOutput {
  bool converged = false;
  std::int64_t steps = -1;
  std::int64_t moves = -1;
  std::int64_t rounds = -1;
  std::int64_t convergence = -1;
  std::int64_t closure_violations = 0;
  std::uint64_t digest = 0;  ///< 0 when the final states were not rendered
};

/// Per-step gaps and activated-set sizes, from a StepObserver.
struct StepStats {
  std::vector<double> gaps_us;
  std::int64_t activated = 0;
};

/// The inputs of one SSME (Gamma_1) session besides its topology.
struct SsmeSessionInput {
  std::string daemon = "synchronous";
  std::string init = "random";
  std::uint64_t seed = 1;
  bool parallel_engine = false;  ///< else the default (incremental) engine
  unsigned threads = 1;
  bool render = true;  ///< print the final states, digest and annotate
};

/// One `ssme` session through the public functions the registry's
/// session runner calls, spans "sim.make", "sim.engine" and
/// "sim.render" around protocol + init construction, run_with_engine and
/// rendering.  Same options as a registry session with the same inputs,
/// so its counters and digest equal the registry's.  With `steps` set, a
/// StepObserver timestamps every step.
[[nodiscard]] SessionOutput run_typed_ssme(Tracer& tracer,
                                           const specstab::Graph& g,
                                           specstab::VertexId diam,
                                           const SsmeSessionInput& in,
                                           StepStats* steps);

// --- serve-mixed request mix ----------------------------------------------

/// One planned serve request.  Kinds: a `run` with a unique seed (a
/// cache miss), a `run` from the hot pool (a hit once warm), a `trace`
/// stream, and a `run` sent on a fresh connection that closes after its
/// reply (connection churn).
struct PlannedRequest {
  enum class Kind { kMiss, kHot, kTrace, kChurn };
  Kind kind = Kind::kMiss;
  int hot = -1;         ///< hot-pool index of kHot (and hot kChurn) requests
  std::int64_t id = 0;  ///< JSON-RPC id, unique per run
  std::string line;     ///< the request line, without the newline
};

/// The seeded request sequence of one client: 40% unique-seed runs, 40%
/// runs from a 32-entry hot pool, 15% traces, and a churned run as every
/// 20th request (5%).  The same (seed, client) always yields the same
/// sequence.
class ServeMix {
 public:
  ServeMix(std::uint64_t seed, unsigned client);
  [[nodiscard]] PlannedRequest next();

 private:
  std::uint64_t seed_;
  unsigned client_;
  std::uint64_t state_;
  std::int64_t count_ = 0;
};

/// The expanded scenario list of async-thm3-campaign for a workload seed.
[[nodiscard]] std::vector<std::string> campaign_item_labels(Scale scale,
                                                            std::uint64_t seed);

// --- workloads ----------------------------------------------------------

[[nodiscard]] Outcome run_sync_ring(const Options& opt);
[[nodiscard]] Outcome run_campaign_thm3(const Options& opt);
[[nodiscard]] Outcome run_serve_mixed(const Options& opt);

/// Print the pinned outputs of every pinned seed at `scale`, in the
/// syntax of pins.hpp (to regenerate it after an intended change).
void print_sync_pins(Scale scale);
void print_campaign_pins(Scale scale);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_HPP
