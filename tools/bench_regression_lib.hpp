// Argument parsing, snapshot parsing and comparison logic of
// check_bench_regression, factored out so tests/bench_regression_test.cpp
// can unit-test the gate without spawning the tool.  The tool's main()
// is a thin wrapper: parse its arguments, read the two files, call
// compare(), print the report, map `regressed` to exit 2.
//
// Each snapshot is parsed once, as strict JSON, with the repo's codec
// (serve/json.hpp, header-only: the tool needs `src` on its include
// path and links nothing); the gate then reads typed members of the
// parsed document.  Errors are thrown as std::invalid_argument (the
// tool converts them to its exit-1 die()); the comparison itself never
// throws — every comparable row contributes a report line and a
// verdict.
#ifndef SPECSTAB_TOOLS_BENCH_REGRESSION_LIB_HPP
#define SPECSTAB_TOOLS_BENCH_REGRESSION_LIB_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "serve/json.hpp"
#include "util/parse_number.hpp"

namespace specstab::benchgate {

struct Row {
  std::string name;
  long long steps = 0;
  double reference_ms = 0.0;
  double speedup = 0.0;
};

struct BenchFile {
  std::string mode;
  double campaign_speedup = 0.0;
  std::size_t campaign_scenarios = 0;
  std::vector<Row> micro;
};

namespace detail {

using serve::JsonValue;

[[noreturn]] inline void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

/// `text` parsed as one strict JSON object; a syntax error names `where`.
inline JsonValue parse_object(const std::string& text,
                              const std::string& where) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const std::invalid_argument& e) {
    fail(where + ": " + e.what());
  }
  if (!doc.is_object()) fail("not a JSON object: " + where);
  return doc;
}

inline const JsonValue& member(const JsonValue& obj, const std::string& key,
                               const std::string& where) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr) fail("missing key '" + key + "' in " + where);
  return *value;
}

inline const std::string& string_member(const JsonValue& obj,
                                        const std::string& key,
                                        const std::string& where) {
  const JsonValue& value = member(obj, key, where);
  if (!value.is_string()) fail("non-string '" + key + "' in " + where);
  return value.as_string();
}

inline double number_member(const JsonValue& obj, const std::string& key,
                            const std::string& where) {
  const JsonValue& value = member(obj, key, where);
  if (!value.is_number()) fail("non-numeric '" + key + "' in " + where);
  return value.as_double();
}

/// A count: a JSON integer, never negative.
inline std::int64_t count_member(const JsonValue& obj, const std::string& key,
                                 const std::string& where) {
  const JsonValue& value = member(obj, key, where);
  if (!value.is_int() || value.as_int() < 0) {
    fail("'" + key + "' is not a count in " + where);
  }
  return value.as_int();
}

/// A non-empty array of the rows the gate compares: an empty one would
/// make the gate pass vacuously.
inline const JsonValue::Array& rows_member(const JsonValue& obj,
                                           const std::string& key,
                                           const std::string& where) {
  const JsonValue& value = member(obj, key, where);
  if (!value.is_array()) fail("no " + key + " array in " + where);
  if (value.as_array().empty()) fail("empty " + key + " array in " + where);
  return value.as_array();
}

/// Speedup metrics are ratios of two wall-clock timings, so a true
/// measurement can never be exactly zero — a present zero means an
/// unmeasured column was serialized as data, and the gate would compare
/// garbage.  Fails loudly instead.
inline void reject_zero_measurement(const std::string& key, double value,
                                    const std::string& where) {
  if (value == 0.0) {
    fail("zero '" + key + "' in " + where +
         " claims to be a measurement — omit unmeasured metrics");
  }
}

}  // namespace detail

/// Parses the JSON bench_engine writes (a "campaign" object and a
/// non-empty "micro" array of row objects) as strict JSON; a syntax
/// error, a missing key or a mistyped value throws, so format drift
/// cannot silently disable the gate.  `where` labels error messages
/// (typically the file path).
inline BenchFile parse_bench_json(const std::string& text,
                                  const std::string& where) {
  using namespace detail;
  const JsonValue doc = parse_object(text, where);
  BenchFile out;
  out.mode = string_member(doc, "mode", where);

  const JsonValue& campaign = member(doc, "campaign", where);
  if (!campaign.is_object()) fail("no campaign object in " + where);
  const std::string campaign_where = where + " campaign";
  out.campaign_speedup = number_member(campaign, "speedup", campaign_where);
  out.campaign_scenarios = static_cast<std::size_t>(
      count_member(campaign, "scenarios", campaign_where));

  const JsonValue::Array& micro = rows_member(doc, "micro", where);
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const std::string row_where = where + " micro[" + std::to_string(i) + "]";
    Row row;
    row.name = string_member(micro[i], "name", row_where);
    row.steps = count_member(micro[i], "steps", row_where);
    row.reference_ms = number_member(micro[i], "reference_ms", row_where);
    row.speedup = number_member(micro[i], "speedup", row_where);
    reject_zero_measurement("speedup", row.speedup, row_where);
    out.micro.push_back(std::move(row));
  }
  return out;
}

[[nodiscard]] inline std::optional<Row> find_row(const BenchFile& file,
                                                 const std::string& name) {
  for (const auto& row : file.micro) {
    if (row.name == name) return row;
  }
  return std::nullopt;
}

struct GateOptions {
  double tolerance = 0.30;  ///< relative speedup drop allowed
  /// Micro rows below either floor are setup-dominated timer noise and
  /// skipped rather than gated.
  long long min_steps = 500;
  double min_ms = 0.25;
};

struct GateOutcome {
  bool regressed = false;
  std::vector<std::string> lines;  ///< one report line per decision
};

/// check_bench_regression's command line.
struct GateArgs {
  std::string baseline;  ///< BASELINE.json path
  std::string current;   ///< CURRENT.json path
  bool serve = false;    ///< gate a BENCH_serve.json pair
  GateOptions options;
};

namespace detail {

/// `text` as a T when the whole token parses and `in_range` accepts it.
template <typename T, typename InRange>
T parse_option(const std::string& flag, const std::string& text,
               InRange in_range, const char* range) {
  T value{};
  if (parse_number(text, value) != std::errc() || !in_range(value)) {
    fail(flag + " needs " + range + ", got '" + text + "'");
  }
  return value;
}

}  // namespace detail

/// Parses check_bench_regression's arguments (argv without the program
/// name).  Each option value must be the whole token, finite and in
/// range: a tolerance in [0, 1), non-negative floors.  A bad value, an
/// unknown option or a path count other than two throws
/// std::invalid_argument (the tool prints it with its usage line and
/// exits 1) instead of gating at a tolerance nobody meant.
inline GateArgs parse_gate_args(const std::vector<std::string>& args) {
  using detail::parse_option;
  GateArgs out;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--tolerance" && has_value) {
      out.options.tolerance = parse_option<double>(
          arg, args[++i], [](double t) { return t >= 0.0 && t < 1.0; },
          "a fraction in [0, 1)");
    } else if (arg == "--min-steps" && has_value) {
      out.options.min_steps = parse_option<long long>(
          arg, args[++i], [](long long n) { return n >= 0; },
          "a non-negative integer");
    } else if (arg == "--min-ms" && has_value) {
      out.options.min_ms = parse_option<double>(
          arg, args[++i],
          [](double ms) { return ms >= 0.0; },
          "a finite non-negative number");
    } else if (arg == "--serve") {
      out.serve = true;
    } else if (!arg.empty() && arg[0] != '-') {
      paths.push_back(arg);
    } else {
      detail::fail("unknown option or missing value: '" + arg + "'");
    }
  }
  if (paths.size() != 2) {
    detail::fail("need exactly BASELINE.json and CURRENT.json");
  }
  out.baseline = paths[0];
  out.current = paths[1];
  return out;
}

/// The gate itself.  Throws std::invalid_argument on a mode mismatch
/// (smoke vs full snapshots are not comparable); otherwise every verdict
/// — including a baseline row missing from the current run and a
/// campaign scenario-count change (a stale snapshot, not a skip) — is a
/// FAIL line with `regressed` set.
inline GateOutcome compare(const BenchFile& baseline, const BenchFile& current,
                           const GateOptions& opt) {
  if (baseline.mode != current.mode) {
    detail::fail("mode mismatch: baseline is '" + baseline.mode +
                 "', current is '" + current.mode +
                 "' — compare like with like");
  }

  GateOutcome out;
  const auto check = [&](const std::string& name, double base, double cur) {
    const double floor = base * (1.0 - opt.tolerance);
    const bool bad = cur < floor;
    std::ostringstream os;
    os << (bad ? "FAIL " : "ok   ") << name << ": speedup " << cur
       << " vs baseline " << base << " (floor " << floor << ")";
    out.lines.push_back(os.str());
    out.regressed = out.regressed || bad;
  };

  if (baseline.campaign_scenarios == current.campaign_scenarios) {
    check("campaign/thm3-preset", baseline.campaign_speedup,
          current.campaign_speedup);
  } else {
    // A changed scenario count means the committed snapshot no longer
    // matches the preset the fresh run executed: the snapshot must be
    // regenerated, and silently skipping would leave the campaign
    // speedup ungated forever.
    out.lines.push_back(
        "FAIL campaign/thm3-preset: scenario count changed (" +
        std::to_string(baseline.campaign_scenarios) + " -> " +
        std::to_string(current.campaign_scenarios) +
        ") — regenerate the committed snapshot");
    out.regressed = true;
  }

  for (const auto& base_row : baseline.micro) {
    const auto cur_row = find_row(current, base_row.name);
    if (!cur_row) {
      out.lines.push_back("FAIL " + base_row.name +
                          ": row missing from current");
      out.regressed = true;
      continue;
    }
    if (base_row.steps < opt.min_steps ||
        base_row.reference_ms < opt.min_ms) {
      std::ostringstream os;
      os << "skip " << base_row.name << ": noise-dominated (steps "
         << base_row.steps << ", ref " << base_row.reference_ms << " ms)";
      out.lines.push_back(os.str());
      continue;
    }
    check(base_row.name, base_row.speedup, cur_row->speedup);
  }
  return out;
}

// --- serve snapshots (BENCH_serve.json) ---------------------------------
//
// The serve bench gates on `warm_speedup` — warm-cache over cold-cache
// sessions/sec at the same worker-thread count.  Like the engine gate's
// speedup keys, the ratio of two runs of the same binary on the same
// host transfers across CI machines where absolute sessions/sec cannot.

struct ServeRow {
  std::string name;
  std::size_t sessions = 0;
  double warm_speedup = 0.0;
};

struct ServeBenchFile {
  std::string mode;
  std::size_t sessions_per_phase = 0;
  std::vector<ServeRow> rows;
};

/// Parses the JSON bench_serve writes (a non-empty "rows" array of row
/// objects) as strict JSON; rejects snapshots of any other bench (the
/// "bench" tag) so the two gates cannot be cross-fed.
inline ServeBenchFile parse_serve_bench_json(const std::string& text,
                                             const std::string& where) {
  using namespace detail;
  const JsonValue doc = parse_object(text, where);
  const std::string& bench = string_member(doc, "bench", where);
  if (bench != "serve") {
    fail("not a serve snapshot (bench '" + bench + "') in " + where);
  }
  ServeBenchFile out;
  out.mode = string_member(doc, "mode", where);
  out.sessions_per_phase = static_cast<std::size_t>(
      count_member(doc, "sessions_per_phase", where));

  const JsonValue::Array& rows = rows_member(doc, "rows", where);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string row_where = where + " rows[" + std::to_string(i) + "]";
    ServeRow row;
    row.name = string_member(rows[i], "name", row_where);
    row.sessions =
        static_cast<std::size_t>(count_member(rows[i], "sessions", row_where));
    row.warm_speedup = number_member(rows[i], "warm_speedup", row_where);
    out.rows.push_back(std::move(row));
  }
  return out;
}

[[nodiscard]] inline std::optional<ServeRow> find_serve_row(
    const ServeBenchFile& file, const std::string& name) {
  for (const auto& row : file.rows) {
    if (row.name == name) return row;
  }
  return std::nullopt;
}

/// Serve-snapshot gate: every baseline row's warm_speedup must hold
/// within the tolerance.  Mode mismatches throw; a missing row or a
/// changed per-phase session count (the workload itself moved) FAILs —
/// the committed snapshot is stale and must be regenerated, the gate
/// never quietly narrows.
inline GateOutcome compare_serve(const ServeBenchFile& baseline,
                                 const ServeBenchFile& current,
                                 const GateOptions& opt) {
  if (baseline.mode != current.mode) {
    detail::fail("mode mismatch: baseline is '" + baseline.mode +
                 "', current is '" + current.mode +
                 "' — compare like with like");
  }
  GateOutcome out;
  if (baseline.sessions_per_phase != current.sessions_per_phase) {
    out.lines.push_back(
        "FAIL serve: sessions_per_phase changed (" +
        std::to_string(baseline.sessions_per_phase) + " -> " +
        std::to_string(current.sessions_per_phase) +
        ") — regenerate the committed snapshot");
    out.regressed = true;
  }
  for (const auto& base_row : baseline.rows) {
    const auto cur_row = find_serve_row(current, base_row.name);
    if (!cur_row) {
      out.lines.push_back("FAIL " + base_row.name +
                          ": row missing from current");
      out.regressed = true;
      continue;
    }
    const double floor = base_row.warm_speedup * (1.0 - opt.tolerance);
    const bool bad = cur_row->warm_speedup < floor;
    std::ostringstream os;
    os << (bad ? "FAIL " : "ok   ") << base_row.name << ": warm_speedup "
       << cur_row->warm_speedup << " vs baseline " << base_row.warm_speedup
       << " (floor " << floor << ")";
    out.lines.push_back(os.str());
    out.regressed = out.regressed || bad;
  }
  return out;
}

}  // namespace specstab::benchgate

#endif  // SPECSTAB_TOOLS_BENCH_REGRESSION_LIB_HPP
