// Wire protocol of `specstab serve`: line-delimited JSON-RPC.
//
// One request object per line, one reply object (or, for `trace`, a
// header followed by a stream of record lines) per request:
//
//   -> {"id": 7, "method": "run", "params": {"protocol": "ssme",
//       "topology": "ring 8", "daemon": "central-rr", "seed": 3}}
//   <- {"id": 7, "result": { ...session result... }}
//   <- {"id": 7, "error": {"code": "invalid", "message": "..."}}
//
// This module is the codec only — request parsing/validation, the
// SessionSpec <-> params mapping, and the byte-stable rendering of
// SessionResult into reply lines.  The server and the test suites share
// it, which is how the equivalence tests compare socket-delivered bytes
// against locally rendered direct-session results.
//
// Error codes (the `code` field of error replies):
//   parse          the line was not a JSON object
//   invalid        unknown method, missing/mistyped params, unknown
//                  protocol/daemon/init, malformed topology
//   busy           the work queue is full — retry later (backpressure,
//                  never a silent drop)
//   shutting-down  the server is draining; no new sessions
//   oversized      the request line exceeded the server's line limit
//   internal       unexpected server-side failure
#ifndef SPECSTAB_SERVE_WIRE_HPP
#define SPECSTAB_SERVE_WIRE_HPP

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/json.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab::serve {

inline constexpr std::string_view kErrParse = "parse";
inline constexpr std::string_view kErrInvalid = "invalid";
inline constexpr std::string_view kErrBusy = "busy";
inline constexpr std::string_view kErrShuttingDown = "shutting-down";
inline constexpr std::string_view kErrOversized = "oversized";
inline constexpr std::string_view kErrInternal = "internal";

/// A request decoding failure carrying the reply's error code, plus the
/// request id when it was recovered before the failure (so pipelined
/// clients can still match the error reply to their request).
class RpcError : public std::runtime_error {
 public:
  RpcError(std::string_view code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  RpcError(std::string_view code, const std::string& message, JsonValue id)
      : std::runtime_error(message), code_(code), id_(std::move(id)) {}
  [[nodiscard]] std::string_view code() const { return code_; }
  [[nodiscard]] const JsonValue& id() const { return id_; }

 private:
  std::string_view code_;
  JsonValue id_;  // kNull when the failure preceded id extraction
};

/// One parsed request line.  `id` is echoed verbatim into every reply
/// for this request (JSON null when the request had no id).
struct Request {
  JsonValue id;
  std::string method;
  JsonValue params = JsonValue::object();
};

/// Parses and shape-checks one request line.  Throws RpcError: kErrParse
/// for non-JSON, kErrInvalid for a JSON line that is not an object with
/// a string `method` (and, optionally, an object `params`).
[[nodiscard]] Request parse_request(const std::string& line);

/// A decoded `run`/`trace` request: the session tuple addressed by
/// strings, exactly what the cache key is built from.
struct SessionRequest {
  std::string protocol;
  std::string topology;  ///< canonical spelling (single-space tokens)
  SessionSpec spec;
};

/// Validates and extracts the session params (protocol/topology
/// required; daemon, init, seed, steps, engine, threads, perturb optional
/// with SessionSpec defaults).  Unknown keys and mistyped
/// values throw RpcError(kErrInvalid).  The topology is canonicalized;
/// its semantic validation (does the family exist, do the sizes make
/// sense) happens when the session instantiates the graph.
[[nodiscard]] SessionRequest decode_session_params(const JsonValue& params);

/// Whitespace-normalizes a topology spelling ("ring   8" -> "ring 8");
/// throws RpcError(kErrInvalid) when empty.
[[nodiscard]] std::string canonical_topology(const std::string& text);

/// The full canonical identity of a session request — the result cache's
/// key text: protocol, topology and SessionSpec::to_canonical_string(),
/// joined by the 0x1f unit separator.
[[nodiscard]] std::string canonical_session_string(const SessionRequest& req);

/// Renders a SessionResult as the reply's `result` object, byte-stable:
/// fixed field order, digests as decimal strings (JSON numbers above
/// 2^53 would lose bits in permissive clients).  With
/// `include_trace_header` the object additionally carries trace_length
/// and trace_records — the `trace` method's header shape.
[[nodiscard]] JsonValue session_result_to_json(const SessionRequest& req,
                                               const SessionResult& res,
                                               bool include_trace_header);

// --- reply line rendering (every line '\n'-terminated) ------------------

[[nodiscard]] std::string render_result_line(const JsonValue& id,
                                             const JsonValue& result);
/// Pastes a pre-rendered result payload (the cache's stored bytes)
/// without re-parsing it.
[[nodiscard]] std::string render_result_line_raw(const JsonValue& id,
                                                 const std::string& payload);
[[nodiscard]] std::string render_error_line(const JsonValue& id,
                                            std::string_view code,
                                            const std::string& message);

/// gamma_0: {"id":..,"trace":{"type":"init","config":[...]}}
[[nodiscard]] std::string render_trace_init_line(
    const JsonValue& id, const std::vector<std::string>& config);
/// One delta record: {"id":..,"trace":{"type":"delta","index":i,
/// "perturbation":b,"activated":[...],"changes":[{"v":..,"before":..,
/// "after":..},...]}}
[[nodiscard]] std::string render_trace_delta_line(
    const JsonValue& id, StepIndex index,
    const SessionResult::TraceDeltaRecord& rec);
/// Stream terminator (lets clients distinguish a complete stream from a
/// truncated one): {"id":..,"trace":{"type":"end","records":r}}
[[nodiscard]] std::string render_trace_end_line(const JsonValue& id,
                                                StepIndex records);

/// The three trace lines above, appended to `out` byte for byte as the
/// render_* functions return them; the server batches a stream's lines
/// this way.  Each writes its bytes straight from the record, through
/// append_json_string() and append_json_int(), without a JsonValue tree.
void append_trace_init_line(std::string& out, const JsonValue& id,
                            const std::vector<std::string>& config);
void append_trace_delta_line(std::string& out, const JsonValue& id,
                             StepIndex index,
                             const SessionResult::TraceDeltaRecord& rec);
void append_trace_end_line(std::string& out, const JsonValue& id,
                           StepIndex records);

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_WIRE_HPP
