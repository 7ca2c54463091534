// The `specstab serve` verb: argument parsing, signal wiring and the
// run-until-drained lifecycle around serve/server.hpp.  Split from
// cli/cli.cpp because serve is a process lifecycle (signals, a blocking
// wait), not a request/response subcommand returning a CliResult.
#ifndef SPECSTAB_SERVE_SERVE_CLI_HPP
#define SPECSTAB_SERVE_SERVE_CLI_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace specstab::serve {

/// `text` as an integer in [0, max]: decimal digits only (no sign, no
/// whitespace), the whole token.  Otherwise throws std::invalid_argument
/// naming `tool` and `flag` ("serve: --port needs a non-negative
/// integer, got '-1'").  `specstab serve` and specstab_load parse their
/// integer options with it.
[[nodiscard]] std::uint64_t parse_u64(std::string_view tool,
                                      std::string_view flag,
                                      std::string_view text,
                                      std::uint64_t max);

/// Runs `specstab serve <args..>` (args exclude the verb): binds,
/// serves until SIGTERM/SIGINT or a `shutdown` request, drains, exits.
/// Returns the process exit code (0 on a clean drain, 2 on usage
/// errors).
int serve_main(const std::vector<std::string>& args);

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_SERVE_CLI_HPP
