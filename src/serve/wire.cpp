#include "serve/wire.hpp"

#include <cctype>
#include <limits>
#include <utility>

#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"

namespace specstab::serve {

namespace {

[[nodiscard]] std::int64_t require_int(const JsonValue& v,
                                       const std::string& key,
                                       std::int64_t lo, std::int64_t hi) {
  if (v.kind() != JsonValue::Kind::kInt) {
    throw RpcError(kErrInvalid, "param '" + key + "' must be an integer");
  }
  const std::int64_t n = v.as_int();
  if (n < lo || n > hi) {
    throw RpcError(kErrInvalid, "param '" + key + "' out of range");
  }
  return n;
}

[[nodiscard]] const std::string& require_string(const JsonValue& v,
                                                const std::string& key) {
  if (v.kind() != JsonValue::Kind::kString) {
    throw RpcError(kErrInvalid, "param '" + key + "' must be a string");
  }
  return v.as_string();
}

}  // namespace

Request parse_request(const std::string& line) {
  JsonValue value;
  try {
    value = JsonValue::parse(line);
  } catch (const std::exception& e) {
    throw RpcError(kErrParse, std::string("bad JSON: ") + e.what());
  }
  if (value.kind() != JsonValue::Kind::kObject) {
    throw RpcError(kErrInvalid, "request must be a JSON object");
  }
  Request req;
  if (const JsonValue* id = value.find("id")) req.id = *id;
  const JsonValue* method = value.find("method");
  if (method == nullptr || method->kind() != JsonValue::Kind::kString) {
    throw RpcError(kErrInvalid, "request needs a string 'method'", req.id);
  }
  req.method = method->as_string();
  if (const JsonValue* params = value.find("params")) {
    if (params->kind() != JsonValue::Kind::kObject) {
      throw RpcError(kErrInvalid, "'params' must be an object", req.id);
    }
    req.params = *params;
  }
  for (const auto& [key, unused] : value.as_object()) {
    (void)unused;
    if (key != "id" && key != "method" && key != "params") {
      throw RpcError(kErrInvalid, "unknown request field '" + key + "'",
                     req.id);
    }
  }
  return req;
}

std::string canonical_topology(const std::string& text) {
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
    }
    if (i == start) break;
    if (!out.empty()) out += ' ';
    out.append(text, start, i - start);
  }
  if (out.empty()) {
    throw RpcError(kErrInvalid, "param 'topology' must be non-empty");
  }
  return out;
}

SessionRequest decode_session_params(const JsonValue& params) {
  SessionRequest req;
  bool have_protocol = false;
  bool have_topology = false;
  for (const auto& [key, value] : params.as_object()) {
    if (key == "protocol") {
      req.protocol = require_string(value, key);
      have_protocol = true;
    } else if (key == "topology") {
      req.topology = canonical_topology(require_string(value, key));
      have_topology = true;
    } else if (key == "daemon") {
      req.spec.daemon = require_string(value, key);
    } else if (key == "init") {
      req.spec.init = require_string(value, key);
    } else if (key == "seed") {
      req.spec.seed = static_cast<std::uint64_t>(
          require_int(value, key, 0, std::numeric_limits<std::int64_t>::max()));
    } else if (key == "steps") {
      req.spec.max_steps = static_cast<StepIndex>(
          require_int(value, key, 0, std::numeric_limits<StepIndex>::max()));
    } else if (key == "engine") {
      try {
        req.spec.engine = engine_by_name(require_string(value, key));
      } catch (const std::invalid_argument& e) {
        throw RpcError(kErrInvalid, e.what());
      }
    } else if (key == "threads") {
      req.spec.threads =
          static_cast<unsigned>(require_int(value, key, 1, 4096));
    } else if (key == "perturb") {
      try {
        req.spec.perturb = FaultSpec::parse(require_string(value, key)).format();
      } catch (const std::invalid_argument& e) {
        throw RpcError(kErrInvalid, e.what());
      }
    } else {
      throw RpcError(kErrInvalid, "unknown param '" + key + "'");
    }
  }
  if (!have_protocol) throw RpcError(kErrInvalid, "param 'protocol' required");
  if (!have_topology) throw RpcError(kErrInvalid, "param 'topology' required");
  if (req.protocol.empty()) {
    throw RpcError(kErrInvalid, "param 'protocol' must be non-empty");
  }
  return req;
}

std::string canonical_session_string(const SessionRequest& req) {
  return req.protocol + '\x1f' + req.topology + '\x1f' +
         req.spec.to_canonical_string();
}

JsonValue session_result_to_json(const SessionRequest& req,
                                 const SessionResult& res,
                                 bool include_trace_header) {
  const auto step_array = [](const std::vector<StepIndex>& steps) {
    JsonValue arr = JsonValue::array();
    for (const StepIndex s : steps) {
      arr.as_array().push_back(static_cast<std::int64_t>(s));
    }
    return arr;
  };
  JsonValue out = JsonValue::object();
  auto& fields = out.as_object();
  fields.emplace_back("protocol", req.protocol);
  fields.emplace_back("topology", req.topology);
  fields.emplace_back("spec", req.spec.to_canonical_string());
  fields.emplace_back("steps", static_cast<std::int64_t>(res.steps));
  fields.emplace_back("moves", res.moves);
  fields.emplace_back("rounds", static_cast<std::int64_t>(res.rounds));
  fields.emplace_back("terminated", res.terminated);
  fields.emplace_back("hit_step_cap", res.hit_step_cap);
  fields.emplace_back("converged", res.converged);
  fields.emplace_back("convergence_steps",
                      static_cast<std::int64_t>(res.convergence_steps));
  fields.emplace_back("moves_to_convergence", res.moves_to_convergence);
  fields.emplace_back("rounds_to_convergence",
                      static_cast<std::int64_t>(res.rounds_to_convergence));
  fields.emplace_back("closure_violations", res.closure_violations);
  fields.emplace_back("perturb", res.perturb);
  fields.emplace_back("perturb_epochs", res.perturb_epochs);
  fields.emplace_back("perturb_unrecovered", res.perturb_unrecovered);
  fields.emplace_back("perturb_fire_steps", step_array(res.perturb_fire_steps));
  fields.emplace_back("recovery_steps", step_array(res.recovery_steps));
  fields.emplace_back("service_stalls", step_array(res.service_stalls));
  JsonValue final_state = JsonValue::array();
  for (const auto& s : res.final_state) final_state.as_array().push_back(s);
  fields.emplace_back("final_state", std::move(final_state));
  fields.emplace_back("final_digest", std::to_string(res.final_digest));
  JsonValue notes = JsonValue::array();
  for (const auto& n : res.notes) notes.as_array().push_back(n);
  fields.emplace_back("notes", std::move(notes));
  if (include_trace_header) {
    fields.emplace_back("trace_length",
                        static_cast<std::int64_t>(res.trace_length));
    // One delta record between each pair of adjacent configurations.
    fields.emplace_back(
        "trace_records",
        static_cast<std::int64_t>(res.trace_length > 0 ? res.trace_length - 1
                                                       : 0));
  }
  return out;
}

std::string render_result_line(const JsonValue& id, const JsonValue& result) {
  return render_result_line_raw(id, result.dump());
}

std::string render_result_line_raw(const JsonValue& id,
                                   const std::string& payload) {
  return "{\"id\":" + id.dump() + ",\"result\":" + payload + "}\n";
}

std::string render_error_line(const JsonValue& id, std::string_view code,
                              const std::string& message) {
  JsonValue err = JsonValue::object();
  err.as_object().emplace_back("code", std::string(code));
  err.as_object().emplace_back("message", message);
  return "{\"id\":" + id.dump() + ",\"error\":" + err.dump() + "}\n";
}

namespace {

/// A trace line up to its type: {"id":<id>,"trace":{"type":"<type>"
void open_trace_line(std::string& out, const JsonValue& id,
                     std::string_view type) {
  out += "{\"id\":";
  id.dump_into(out);
  out += ",\"trace\":{\"type\":\"";
  out += type;
  out += '"';
}

}  // namespace

void append_trace_init_line(std::string& out, const JsonValue& id,
                            const std::vector<std::string>& config) {
  open_trace_line(out, id, "init");
  out += ",\"config\":[";
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, config[i]);
  }
  out += "]}}\n";
}

void append_trace_delta_line(std::string& out, const JsonValue& id,
                             StepIndex index,
                             const SessionResult::TraceDeltaRecord& rec) {
  open_trace_line(out, id, "delta");
  out += ",\"index\":";
  append_json_int(out, index);
  out += rec.perturbation ? ",\"perturbation\":true"
                          : ",\"perturbation\":false";
  out += ",\"activated\":[";
  for (std::size_t i = 0; i < rec.activated.size(); ++i) {
    if (i > 0) out += ',';
    append_json_int(out, rec.activated[i]);
  }
  out += "],\"changes\":[";
  for (std::size_t i = 0; i < rec.changes.size(); ++i) {
    const SessionResult::TraceDeltaRecord::Change& change = rec.changes[i];
    out += i > 0 ? ",{\"v\":" : "{\"v\":";
    append_json_int(out, change.v);
    out += ",\"before\":";
    append_json_string(out, change.before);
    out += ",\"after\":";
    append_json_string(out, change.after);
    out += '}';
  }
  out += "]}}\n";
}

void append_trace_end_line(std::string& out, const JsonValue& id,
                           StepIndex records) {
  open_trace_line(out, id, "end");
  out += ",\"records\":";
  append_json_int(out, records);
  out += "}}\n";
}

std::string render_trace_init_line(const JsonValue& id,
                                   const std::vector<std::string>& config) {
  std::string out;
  append_trace_init_line(out, id, config);
  return out;
}

std::string render_trace_delta_line(const JsonValue& id, StepIndex index,
                                    const SessionResult::TraceDeltaRecord& rec) {
  std::string out;
  append_trace_delta_line(out, id, index, rec);
  return out;
}

std::string render_trace_end_line(const JsonValue& id, StepIndex records) {
  std::string out;
  append_trace_end_line(out, id, records);
  return out;
}

}  // namespace specstab::serve
