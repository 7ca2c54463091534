// Minimal blocking client for the serve wire protocol — the test
// suites' and the load generator's side of the socket.  Deliberately
// dumb: one fd, one LineReader looping fill() and take_line() through
// read_line(), no retries, so tests exercise the server, not a clever
// client.
#ifndef SPECSTAB_SERVE_CLIENT_HPP
#define SPECSTAB_SERVE_CLIENT_HPP

#include <sys/socket.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/transport.hpp"

namespace specstab::serve {

class LineClient {
 public:
  /// Connects; throws std::runtime_error when the server is not there.
  explicit LineClient(const Endpoint& endpoint)
      : fd_(connect_endpoint(endpoint)), reader_(fd_.get(), kMaxReplyLine) {}

  /// Sends one already-'\n'-terminated line (or appends the delimiter);
  /// false when the server hung up.
  [[nodiscard]] bool send_line(std::string line) {
    if (line.empty() || line.back() != '\n') line += '\n';
    return write_all(fd_.get(), line);
  }

  /// Sends raw bytes verbatim — the fuzz tests' lever for partial
  /// writes and unterminated garbage.
  [[nodiscard]] bool send_raw(std::string_view bytes) {
    return write_all(fd_.get(), bytes);
  }

  /// Next reply line; nullopt on EOF/error.
  [[nodiscard]] std::optional<std::string> read_line() {
    std::string line;
    const LineReader::Status status = reader_.read_line(line);
    if (status != LineReader::Status::kLine) return std::nullopt;
    return line;
  }

  /// Request/reply convenience: sends and reads exactly one line;
  /// throws std::runtime_error when the connection dies instead.
  [[nodiscard]] std::string roundtrip(const std::string& request) {
    if (!send_line(request)) {
      throw std::runtime_error("serve client: send failed");
    }
    std::optional<std::string> reply = read_line();
    if (!reply.has_value()) {
      throw std::runtime_error("serve client: connection closed before reply");
    }
    return *reply;
  }

  /// Half-closes the write side (the server's event loop sees EOF) while
  /// keeping the read side drainable.
  void finish_writes() {
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
  }

  /// Hard drop, mid-anything — the abrupt-disconnect tests.
  void abort() { fd_.reset(); }

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  // Replies can carry whole final configurations; give them room.
  static constexpr std::size_t kMaxReplyLine = 64u << 20;

  Fd fd_;
  LineReader reader_;
};

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_CLIENT_HPP
