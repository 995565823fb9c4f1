#include "common/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#include <utility>

#include "common/failpoint.h"

namespace rrre::common {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      local_port_(std::exchange(other.local_port_, 0)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    local_port_ = std::exchange(other.local_port_, 0);
  }
  return *this;
}

Result<Socket> Socket::Listen(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind to port " + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  sock.local_port_ = ntohs(bound.sin_port);
  return sock;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return ErrnoStatus("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<std::optional<Socket>> Socket::AcceptWithTimeout(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll");
  if (rc == 0) return std::optional<Socket>();
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return ErrnoStatus("accept");
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::optional<Socket>(Socket(client));
}

Status Socket::SendAll(std::string_view data, size_t* bytes_sent) {
  const bool inject = failpoint::Enabled();
  size_t sent = 0;
  // Report progress on every exit path — callers distinguish "never sent"
  // (sent == 0, safe to retry anywhere) from "maybe delivered" (partial
  // progress; only idempotent requests may be blindly resent).
  if (bytes_sent != nullptr) *bytes_sent = 0;
  while (sent < data.size()) {
    size_t want = data.size() - sent;
    if (inject) {
      if (failpoint::Check("sock.send.reset").has_value()) {
        return Status::IoError("send: injected connection reset"
                               " [failpoint sock.send.reset]");
      }
      // An injected EINTR models a signal landing mid-send: skip this
      // iteration, re-enter the loop — the syscall must be retried.
      if (failpoint::Check("sock.send.eintr").has_value()) continue;
      want = failpoint::AllowedBytes("sock.send.short", want);
    }
    const ssize_t n = ::send(fd_, data.data() + sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("send timed out");
      }
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
    if (bytes_sent != nullptr) *bytes_sent = sent;
  }
  return Status::Ok();
}

Result<size_t> Socket::RecvSome(char* buf, size_t len) {
  if (failpoint::Enabled()) {
    // A reset reads as EOF to callers, matching the real ECONNRESET path.
    if (failpoint::Check("sock.recv.reset").has_value()) return size_t{0};
    if (failpoint::Check("sock.recv.eagain").has_value()) {
      return Status::DeadlineExceeded(
          "recv timed out [failpoint sock.recv.eagain]");
    }
    while (failpoint::Check("sock.recv.eintr").has_value()) {
      // Each fire models one EINTR-interrupted recv; the loop is the retry.
    }
    len = failpoint::AllowedBytes("sock.recv.short", len);
  }
  ssize_t n;
  do {
    n = ::recv(fd_, buf, len, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    // A reset or an abort from the drain path both read as EOF to callers.
    if (errno == ECONNRESET) return size_t{0};
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("recv timed out");
    }
    return ErrnoStatus("recv");
  }
  return static_cast<size_t>(n);
}

namespace {

Status SetTimeoutOption(int fd, int option, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt timeout");
  }
  return Status::Ok();
}

}  // namespace

Status Socket::SetRecvTimeout(int ms) {
  return SetTimeoutOption(fd_, SO_RCVTIMEO, ms);
}

Status Socket::SetSendTimeout(int ms) {
  return SetTimeoutOption(fd_, SO_SNDTIMEO, ms);
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::CloseWithReset() {
  if (fd_ >= 0) {
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::optional<std::string>> LineReader::ReadLine() {
  while (true) {
    const size_t newline = buffer_.find('\n', pos_);
    const size_t length =
        (newline == std::string::npos ? buffer_.size() : newline) - pos_;
    if (length > kMaxLineBytes) {
      return Status::InvalidArgument("line longer than " +
                                     std::to_string(kMaxLineBytes) + " bytes");
    }
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(pos_, newline - pos_);
      pos_ = newline + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return std::optional<std::string>(std::move(line));
    }
    char chunk[4096];
    auto n = socket_->RecvSome(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      if (pos_ < buffer_.size()) {  // Unterminated trailing line.
        std::string line = buffer_.substr(pos_);
        buffer_.clear();
        pos_ = 0;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return std::optional<std::string>(std::move(line));
      }
      return std::optional<std::string>();
    }
    buffer_.append(chunk, n.value());
  }
}

}  // namespace rrre::common
