#include "campaign/artifacts.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "serve/json.hpp"
#include "util/parse_number.hpp"

namespace specstab::campaign {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

// --- deterministic formatting -----------------------------------------

/// Shortest round-trippable decimal form of a double ("%.17g" is exact
/// but noisy; try increasing precision until the value survives).
std::string format_double(double value) {
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double back = 0.0;
    if (parse_number(buf, back) == std::errc() && back == value) break;
  }
  return buf;
}

/// `field` as a T, strictly: the whole field ("8junk" fails), in T's
/// range (overflow fails, and so does a sign on a count), throwing the
/// documented std::invalid_argument otherwise.
template <typename T>
T parse_field(const std::string& field) {
  T value{};
  if (parse_number(field, value) != std::errc()) {
    fail("bad number field: '" + field + "'");
  }
  return value;
}

/// CSV fields here never need quoting; enforce that rather than support
/// a quoting dialect nothing produces.
const std::string& csv_field(const std::string& s) {
  if (s.find_first_of(",\n\"") != std::string::npos) {
    fail("CSV field contains a delimiter: '" + s + "'");
  }
  return s;
}

// --- writers -----------------------------------------------------------

/// Per-epoch step lists as a ';'-joined CSV-safe scalar ("" when empty).
std::string join_steps(const std::vector<StepIndex>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ';';
    out += std::to_string(v[i]);
  }
  return out;
}

void steps_to_json(std::ostream& os, const std::vector<StepIndex>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

/// `"protocol":...,"perturb":...`: the five identity strings a cell and
/// a run both carry, each through the one JSON string escaper.
template <typename Identity>
void identity_to_json(std::ostream& os, const Identity& x) {
  std::string out = "\"protocol\":";
  serve::append_json_string(out, x.protocol);
  out += ",\"topology\":";
  serve::append_json_string(out, x.topology);
  out += ",\"daemon\":";
  serve::append_json_string(out, x.daemon);
  out += ",\"init\":";
  serve::append_json_string(out, x.init);
  out += ",\"perturb\":";
  serve::append_json_string(out, x.perturb);
  os << out;
}

void cell_to_json(std::ostream& os, const CellSummary& c) {
  os << '{';
  identity_to_json(os, c);
  os << ",\"n\":" << c.n
     << ",\"diam\":" << c.diam << ",\"runs\":" << c.runs
     << ",\"converged_runs\":" << c.converged_runs
     << ",\"step_cap_hits\":" << c.step_cap_hits
     << ",\"min_steps\":" << c.min_steps << ",\"max_steps\":" << c.max_steps
     << ",\"mean_steps\":" << format_double(c.mean_steps)
     << ",\"p95_steps\":" << c.p95_steps
     << ",\"worst_moves\":" << c.worst_moves
     << ",\"worst_rounds\":" << c.worst_rounds
     << ",\"closure_violations\":" << c.closure_violations
     << ",\"perturb_epochs\":" << c.perturb_epochs
     << ",\"perturb_unrecovered\":" << c.perturb_unrecovered
     << ",\"recovery_min\":" << c.recovery_min
     << ",\"recovery_max\":" << c.recovery_max
     << ",\"recovery_mean\":" << format_double(c.recovery_mean)
     << ",\"recovery_p95\":" << c.recovery_p95 << "}";
}

void run_to_json(std::ostream& os, const ScenarioResult& r) {
  os << "{\"index\":" << r.index << ',';
  identity_to_json(os, r);
  os << ",\"rep\":" << r.rep << ",\"seed\":" << r.seed
     << ",\"n\":" << r.n << ",\"diam\":" << r.diam << ",\"steps\":" << r.steps
     << ",\"moves\":" << r.moves << ",\"rounds\":" << r.rounds
     << ",\"converged\":" << (r.converged ? "true" : "false")
     << ",\"hit_step_cap\":" << (r.hit_step_cap ? "true" : "false")
     << ",\"convergence_steps\":" << r.convergence_steps
     << ",\"moves_to_convergence\":" << r.moves_to_convergence
     << ",\"rounds_to_convergence\":" << r.rounds_to_convergence
     << ",\"closure_violations\":" << r.closure_violations
     << ",\"perturb_epochs\":" << r.perturb_epochs
     << ",\"perturb_unrecovered\":" << r.perturb_unrecovered
     << ",\"recovery_steps\":";
  steps_to_json(os, r.recovery_steps);
  os << ",\"service_stalls\":";
  steps_to_json(os, r.service_stalls);
  os << "}";
}

constexpr const char* kCellsCsvHeader =
    "protocol,topology,daemon,init,perturb,n,diam,runs,converged_runs,"
    "step_cap_hits,min_steps,max_steps,mean_steps,p95_steps,worst_moves,"
    "worst_rounds,closure_violations,perturb_epochs,perturb_unrecovered,"
    "recovery_min,recovery_max,recovery_mean,recovery_p95";

constexpr std::size_t kCellsCsvFields = 23;

}  // namespace

std::string to_json(const CampaignResult& result,
                    const std::vector<CellSummary>& cells) {
  // Deliberately no thread count, host, or timestamp: the artifact is a
  // pure function of the grid, so runs at any parallelism diff clean.
  std::ostringstream os;
  os << "{\"campaign\":{\"runs\":" << result.rows.size()
     << ",\"converged_runs\":" << result.converged_count()
     << ",\"cells\":" << cells.size() << "},\n\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i ? ",\n " : "\n ");
    cell_to_json(os, cells[i]);
  }
  os << "\n],\n\"runs\":[";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    os << (i ? ",\n " : "\n ");
    run_to_json(os, result.rows[i]);
  }
  os << "\n]}\n";
  return os.str();
}

std::string runs_to_csv(const CampaignResult& result) {
  std::ostringstream os;
  os << "index,protocol,topology,daemon,init,perturb,rep,seed,n,diam,steps,"
        "moves,rounds,converged,hit_step_cap,convergence_steps,"
        "moves_to_convergence,rounds_to_convergence,closure_violations,"
        "perturb_epochs,perturb_unrecovered,recovery_steps,service_stalls\n";
  for (const auto& r : result.rows) {
    os << r.index << ',' << csv_field(r.protocol) << ','
       << csv_field(r.topology) << ',' << csv_field(r.daemon) << ','
       << csv_field(r.init) << ',' << csv_field(r.perturb) << ',' << r.rep
       << ',' << r.seed << ',' << r.n
       << ',' << r.diam << ',' << r.steps << ',' << r.moves << ','
       << r.rounds << ',' << (r.converged ? 1 : 0) << ','
       << (r.hit_step_cap ? 1 : 0) << ',' << r.convergence_steps << ','
       << r.moves_to_convergence << ',' << r.rounds_to_convergence << ','
       << r.closure_violations << ',' << r.perturb_epochs << ','
       << r.perturb_unrecovered << ',' << join_steps(r.recovery_steps) << ','
       << join_steps(r.service_stalls) << '\n';
  }
  return os.str();
}

std::string cells_to_csv(const std::vector<CellSummary>& cells) {
  std::ostringstream os;
  os << kCellsCsvHeader << '\n';
  for (const auto& c : cells) {
    os << csv_field(c.protocol) << ',' << csv_field(c.topology) << ','
       << csv_field(c.daemon) << ',' << csv_field(c.init) << ','
       << csv_field(c.perturb) << ',' << c.n << ','
       << c.diam << ',' << c.runs << ',' << c.converged_runs << ','
       << c.step_cap_hits << ',' << c.min_steps << ',' << c.max_steps << ','
       << format_double(c.mean_steps) << ',' << c.p95_steps << ','
       << c.worst_moves << ',' << c.worst_rounds << ','
       << c.closure_violations << ',' << c.perturb_epochs << ','
       << c.perturb_unrecovered << ',' << c.recovery_min << ','
       << c.recovery_max << ',' << format_double(c.recovery_mean) << ','
       << c.recovery_p95 << '\n';
  }
  return os.str();
}

std::vector<CellSummary> cells_from_csv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line) || line != kCellsCsvHeader) {
    fail("bad cells CSV header");
  }
  std::vector<CellSummary> cells;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::istringstream ls(line);
    std::string field;
    while (std::getline(ls, field, ',')) fields.push_back(field);
    if (fields.size() != kCellsCsvFields) {
      fail("bad cells CSV row (want " + std::to_string(kCellsCsvFields) +
           " fields): " + line);
    }
    CellSummary c;
    c.protocol = fields[0];
    c.topology = fields[1];
    c.daemon = fields[2];
    c.init = fields[3];
    c.perturb = fields[4];
    c.n = parse_field<VertexId>(fields[5]);
    c.diam = parse_field<VertexId>(fields[6]);
    c.runs = parse_field<std::size_t>(fields[7]);
    c.converged_runs = parse_field<std::size_t>(fields[8]);
    c.step_cap_hits = parse_field<std::size_t>(fields[9]);
    c.min_steps = parse_field<std::int64_t>(fields[10]);
    c.max_steps = parse_field<std::int64_t>(fields[11]);
    c.mean_steps = parse_field<double>(fields[12]);
    c.p95_steps = parse_field<std::int64_t>(fields[13]);
    c.worst_moves = parse_field<std::int64_t>(fields[14]);
    c.worst_rounds = parse_field<std::int64_t>(fields[15]);
    c.closure_violations = parse_field<std::int64_t>(fields[16]);
    c.perturb_epochs = parse_field<std::int64_t>(fields[17]);
    c.perturb_unrecovered = parse_field<std::int64_t>(fields[18]);
    c.recovery_min = parse_field<std::int64_t>(fields[19]);
    c.recovery_max = parse_field<std::int64_t>(fields[20]);
    c.recovery_mean = parse_field<double>(fields[21]);
    c.recovery_p95 = parse_field<std::int64_t>(fields[22]);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<CellSummary> cells_from_json(const std::string& json) {
  const serve::JsonValue doc = serve::JsonValue::parse(json);
  const serve::JsonValue* cells_json = doc.find("cells");
  if (cells_json == nullptr) fail("missing JSON key 'cells'");
  const serve::JsonValue::Array& entries = cells_json->as_array();
  std::vector<CellSummary> cells;
  cells.reserve(entries.size());
  for (const serve::JsonValue& e : entries) {
    if (!e.is_object()) fail("cell entry is not an object");
    const auto at = [&e](const char* key) -> const serve::JsonValue& {
      const serve::JsonValue* v = e.find(key);
      if (v == nullptr) fail(std::string("missing JSON key '") + key + "'");
      return *v;
    };
    const auto count = [&at](const char* key) {
      const std::int64_t v = at(key).as_int();
      if (v < 0) fail(std::string("negative count field '") + key + "'");
      return static_cast<std::size_t>(v);
    };
    const auto vertex_id = [&at](const char* key) {
      const std::int64_t v = at(key).as_int();
      if (v < std::numeric_limits<VertexId>::min() ||
          v > std::numeric_limits<VertexId>::max()) {
        fail(std::string("out-of-range field '") + key + "'");
      }
      return static_cast<VertexId>(v);
    };
    CellSummary c;
    c.protocol = at("protocol").as_string();
    c.topology = at("topology").as_string();
    c.daemon = at("daemon").as_string();
    c.init = at("init").as_string();
    c.perturb = at("perturb").as_string();
    c.n = vertex_id("n");
    c.diam = vertex_id("diam");
    c.runs = count("runs");
    c.converged_runs = count("converged_runs");
    c.step_cap_hits = count("step_cap_hits");
    c.min_steps = at("min_steps").as_int();
    c.max_steps = at("max_steps").as_int();
    c.mean_steps = at("mean_steps").as_double();
    c.p95_steps = at("p95_steps").as_int();
    c.worst_moves = at("worst_moves").as_int();
    c.worst_rounds = at("worst_rounds").as_int();
    c.closure_violations = at("closure_violations").as_int();
    c.perturb_epochs = at("perturb_epochs").as_int();
    c.perturb_unrecovered = at("perturb_unrecovered").as_int();
    c.recovery_min = at("recovery_min").as_int();
    c.recovery_max = at("recovery_max").as_int();
    c.recovery_mean = at("recovery_mean").as_double();
    c.recovery_p95 = at("recovery_p95").as_int();
    cells.push_back(std::move(c));
  }
  return cells;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << content;
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace specstab::campaign
