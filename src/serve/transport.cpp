#include "serve/transport.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace specstab::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

[[nodiscard]] sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[nodiscard]] sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc == -1 && errno == EINTR);
    fd_ = -1;
  }
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix " + path;
  return "tcp 127.0.0.1:" + std::to_string(port);
}

Listener::Listener(const Endpoint& endpoint) : endpoint_(endpoint) {
  const int domain = endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  fd_ = Fd(::socket(domain, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd_.valid()) fail_errno("socket(" + endpoint.describe() + ")");
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    // A stale path from a crashed predecessor blocks bind(); remove it.
    // Callers that care about collisions pick fresh paths.
    ::unlink(endpoint.path.c_str());
    const sockaddr_un addr = unix_address(endpoint.path);
    if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) == -1) {
      fail_errno("bind(" + endpoint.describe() + ")");
    }
  } else {
    const int one = 1;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = loopback_address(endpoint.port);
    if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) == -1) {
      fail_errno("bind(" + endpoint.describe() + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&bound), &len) ==
        -1) {
      fail_errno("getsockname(" + endpoint.describe() + ")");
    }
    port_ = ntohs(bound.sin_port);
    endpoint_.port = port_;
  }
  if (::listen(fd_.get(), SOMAXCONN) == -1) {
    fail_errno("listen(" + endpoint.describe() + ")");
  }
}

Listener::~Listener() {
  fd_.reset();
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

Fd connect_endpoint(const Endpoint& endpoint) {
  const int domain = endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket(" + endpoint.describe() + ")");
  int rc;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_address(endpoint.path);
    do {
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc == -1 && errno == EINTR);
  } else {
    const sockaddr_in addr = loopback_address(endpoint.port);
    do {
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc == -1 && errno == EINTR);
  }
  if (rc == -1) fail_errno("connect(" + endpoint.describe() + ")");
  return fd;
}

LineReader::Status LineReader::take_line(std::string& out) {
  out.clear();
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (discarding_) {
      buffer_.clear();
    } else if (buffer_.size() > max_line_bytes_) {
      // Too long without a delimiter: drop the prefix and keep seeking
      // the newline so the *next* request still parses.
      discarding_ = true;
      buffer_.clear();
    }
    return Status::kPartial;
  }
  if (discarding_) {
    buffer_.erase(0, newline + 1);
    discarding_ = false;
    return Status::kOversized;
  }
  if (newline > max_line_bytes_) {
    // The whole line arrived in one gulp but still breaks the limit:
    // drop it, keep the framing.
    buffer_.erase(0, newline + 1);
    return Status::kOversized;
  }
  out.assign(buffer_, 0, newline);
  buffer_.erase(0, newline + 1);
  if (!out.empty() && out.back() == '\r') out.pop_back();
  return Status::kLine;
}

LineReader::Status LineReader::fill() {
  char chunk[4096];
  ssize_t got;
  do {
    got = ::recv(fd_, chunk, sizeof(chunk), 0);
  } while (got == -1 && errno == EINTR);
  if (got == 0) return Status::kEof;
  if (got < 0) return Status::kError;
  buffer_.append(chunk, static_cast<std::size_t>(got));
  return Status::kPartial;
}

LineReader::Status LineReader::read_line(std::string& out) {
  for (;;) {
    const Status taken = take_line(out);
    if (taken != Status::kPartial) return taken;
    const Status filled = fill();
    if (filled != Status::kPartial) return filled;
  }
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t sent;
    do {
      sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    } while (sent == -1 && errno == EINTR);
    if (sent <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

}  // namespace specstab::serve
