// POSIX socket transport for `specstab serve`: listeners (TCP loopback
// and unix-domain), line framing with an oversized-line resync path, and
// partial-write-safe output.
//
// Framing is '\n'-delimited (a trailing '\r' is stripped, so telnet-ish
// clients work).  A line longer than the configured maximum is *not* a
// connection-fatal condition: LineReader discards bytes up to the next
// newline and reports kOversized once, so the server can send a
// structured `oversized` error and keep the connection's framing intact
// — the fuzz suite leans on this.
#ifndef SPECSTAB_SERVE_TRANSPORT_HPP
#define SPECSTAB_SERVE_TRANSPORT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace specstab::serve {

/// Move-only RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();  ///< closes (EINTR-safe) and invalidates

 private:
  int fd_ = -1;
};

/// Where the server listens (or a client connects): TCP on the loopback
/// interface, or a unix-domain socket path.
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::uint16_t port = 0;  ///< kTcp; 0 asks the kernel for an ephemeral port
  std::string path;        ///< kUnix

  [[nodiscard]] static Endpoint tcp(std::uint16_t port) {
    Endpoint ep;
    ep.kind = Kind::kTcp;
    ep.port = port;
    return ep;
  }
  [[nodiscard]] static Endpoint unix_path(std::string path) {
    Endpoint ep;
    ep.kind = Kind::kUnix;
    ep.path = std::move(path);
    return ep;
  }
  [[nodiscard]] std::string describe() const;  ///< "tcp 127.0.0.1:P" / "unix PATH"
};

/// Bound, listening, non-blocking socket, so a pending connection that
/// vanishes before accept() costs an EAGAIN, not a parked server.  The
/// destructor closes the socket and, for unix endpoints, unlinks the
/// path this listener created.
class Listener {
 public:
  /// Binds and listens; throws std::runtime_error (with errno text) on
  /// failure.  TCP binds 127.0.0.1 only — the service is a local
  /// session daemon, not a network-exposed one; port 0 resolves to an
  /// ephemeral port readable via port().
  explicit Listener(const Endpoint& endpoint);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const { return fd_.get(); }
  /// The bound port (resolves ephemeral binds); 0 for unix endpoints.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

 private:
  Endpoint endpoint_;
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Connects to an endpoint; throws std::runtime_error on failure.
[[nodiscard]] Fd connect_endpoint(const Endpoint& endpoint);

/// Buffered '\n'-delimited reader over a socket.  fill() makes one recv()
/// and take_line() takes one buffered line, so a server can read a
/// connection only when poll() says it is readable; read_line() blocks.
class LineReader {
 public:
  enum class Status {
    kLine,       ///< `out` holds one complete line (delimiter stripped)
    kOversized,  ///< a too-long line was discarded; framing is resynced
    kPartial,    ///< no complete line is buffered; fill() for more
    kEof,        ///< orderly close (or close mid-line / mid-discard)
    kError,      ///< read error; connection is unusable
  };

  LineReader(int fd, std::size_t max_line_bytes)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// Takes the next buffered line: kLine, kOversized or kPartial.
  [[nodiscard]] Status take_line(std::string& out);

  /// One recv() appended to the buffer (EINTR is retried): kPartial
  /// when bytes arrived, otherwise kEof or kError.
  [[nodiscard]] Status fill();

  /// Blocks for the next line.
  [[nodiscard]] Status read_line(std::string& out);

 private:
  int fd_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  bool discarding_ = false;  // inside an oversized line, seeking '\n'
};

/// Writes the whole buffer (partial writes and EINTR handled, SIGPIPE
/// suppressed via MSG_NOSIGNAL); false when the peer is gone.
[[nodiscard]] bool write_all(int fd, std::string_view data);

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_TRANSPORT_HPP
