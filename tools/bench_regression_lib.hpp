// Parsing and comparison logic of check_bench_regression, factored out
// so tests/bench_regression_test.cpp can unit-test the gate without
// spawning the tool.  The tool's main() is a thin wrapper: read the two
// files, call compare(), print the report, map `regressed` to exit 2.
//
// Errors are thrown as std::invalid_argument (the tool converts them to
// its exit-1 die()); the comparison itself never throws — every
// comparable row contributes a report line and a verdict.
#ifndef SPECSTAB_TOOLS_BENCH_REGRESSION_LIB_HPP
#define SPECSTAB_TOOLS_BENCH_REGRESSION_LIB_HPP

#include <cctype>
#include <cstddef>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

[[noreturn]] inline void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Value of `"key": <token>` inside `text`, starting at `from`.  Returns
/// the raw token (number) or the quoted content (string).
inline std::string raw_value(const std::string& text, const std::string& key,
                             std::size_t from, const std::string& where) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) fail("missing key '" + key + "' in " + where);
  std::size_t pos = at + needle.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos >= text.size()) fail("truncated value for '" + key + "'");
  if (text[pos] == '"') {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) {
      fail("unterminated string for '" + key + "'");
    }
    return text.substr(pos + 1, end - pos - 1);
  }
  std::size_t end = pos;
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) ||
          text[end] == '-' || text[end] == '+' || text[end] == '.' ||
          text[end] == 'e' || text[end] == 'E')) {
    ++end;
  }
  if (end == pos) fail("bad value for '" + key + "' in " + where);
  return text.substr(pos, end - pos);
}

inline double num_value(const std::string& text, const std::string& key,
                        std::size_t from, const std::string& where) {
  const std::string raw = raw_value(text, key, from, where);
  try {
    std::size_t used = 0;
    const double value = std::stod(raw, &used);
    if (used != raw.size()) throw std::invalid_argument(raw);
    return value;
  } catch (const std::exception&) {
    fail("non-numeric '" + key + "' in " + where + ": " + raw);
  }
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

/// Parses the flat JSON bench_engine writes (one "campaign" object, one
/// "micro" array of flat objects); anything else throws so format drift
/// cannot silently disable the gate.  `where` labels error messages
/// (typically the file path).
inline BenchFile parse_bench_json(const std::string& text,
                                  const std::string& where) {
  using detail::fail;
  BenchFile out;
  out.mode = detail::raw_value(text, "mode", 0, where);

  // Every object is sliced out before key extraction so a key missing
  // from one object fails loudly instead of silently matching the next
  // object's value.
  const std::size_t campaign_at = text.find("\"campaign\":");
  if (campaign_at == std::string::npos) fail("no campaign object in " + where);
  const std::size_t campaign_end = text.find('}', campaign_at);
  if (campaign_end == std::string::npos) {
    fail("unbalanced campaign object in " + where);
  }
  const std::string campaign =
      text.substr(campaign_at, campaign_end - campaign_at + 1);
  out.campaign_speedup = detail::num_value(campaign, "speedup", 0, where);
  out.campaign_scenarios = static_cast<std::size_t>(
      detail::num_value(campaign, "scenarios", 0, where));

  const std::size_t micro_at = text.find("\"micro\":");
  if (micro_at == std::string::npos) fail("no micro array in " + where);
  std::size_t pos = micro_at;
  for (;;) {
    const std::size_t open = text.find('{', pos + 1);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) fail("unbalanced micro object in " + where);
    const std::string obj_where =
        where + " micro[" + std::to_string(out.micro.size()) + "]";
    const std::string obj = text.substr(open, close - open + 1);
    Row row;
    row.name = detail::raw_value(obj, "name", 0, obj_where);
    row.steps =
        static_cast<long long>(detail::num_value(obj, "steps", 0, obj_where));
    row.reference_ms = detail::num_value(obj, "reference_ms", 0, obj_where);
    row.speedup = detail::num_value(obj, "speedup", 0, obj_where);
    detail::reject_zero_measurement("speedup", row.speedup, obj_where);
    out.micro.push_back(std::move(row));
    pos = close;
  }
  if (out.micro.empty()) fail("empty micro array in " + where);
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

/// Parses the flat JSON bench_serve writes; rejects snapshots of any
/// other bench (the "bench" tag) so the two gates cannot be cross-fed.
inline ServeBenchFile parse_serve_bench_json(const std::string& text,
                                             const std::string& where) {
  using detail::fail;
  const std::string bench = detail::raw_value(text, "bench", 0, where);
  if (bench != "serve") {
    fail("not a serve snapshot (bench '" + bench + "') in " + where);
  }
  ServeBenchFile out;
  out.mode = detail::raw_value(text, "mode", 0, where);
  out.sessions_per_phase = static_cast<std::size_t>(
      detail::num_value(text, "sessions_per_phase", 0, where));

  const std::size_t rows_at = text.find("\"rows\":");
  if (rows_at == std::string::npos) fail("no rows array in " + where);
  std::size_t pos = rows_at;
  for (;;) {
    const std::size_t open = text.find('{', pos + 1);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) fail("unbalanced row object in " + where);
    const std::string obj_where =
        where + " rows[" + std::to_string(out.rows.size()) + "]";
    const std::string obj = text.substr(open, close - open + 1);
    ServeRow row;
    row.name = detail::raw_value(obj, "name", 0, obj_where);
    row.sessions = static_cast<std::size_t>(
        detail::num_value(obj, "sessions", 0, obj_where));
    row.warm_speedup = detail::num_value(obj, "warm_speedup", 0, obj_where);
    out.rows.push_back(std::move(row));
    pos = close;
  }
  if (out.rows.empty()) fail("empty rows array in " + where);
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
