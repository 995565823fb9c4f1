#ifndef RRRE_COMMON_SOCKET_H_
#define RRRE_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rrre::common {

/// RAII wrapper over a POSIX TCP socket (IPv4). Used by the online serving
/// layer; only the operations the line protocol needs are exposed.
///
/// Thread-safety: a Socket may be used by one reading and one writing thread
/// concurrently (recv and send on a connected TCP fd are independent), and
/// ShutdownRead/ShutdownBoth may be called from a third thread to unblock
/// them — that is the server's drain path. Close() must only run once no
/// other thread can touch the fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Binds to `port` on all interfaces (0 = ephemeral; the chosen port is
  /// reported by local_port()) and starts listening.
  static Result<Socket> Listen(uint16_t port, int backlog = 128);

  /// Connects to a numeric IPv4 address ("127.0.0.1").
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  /// Waits up to `timeout_ms` for a pending connection; returns an empty
  /// optional on timeout. The timeout is what lets the accept loop poll a
  /// shutdown flag instead of blocking forever in accept(2).
  Result<std::optional<Socket>> AcceptWithTimeout(int timeout_ms);

  /// Sends the whole buffer (looping over partial sends, EINTR-safe, no
  /// SIGPIPE). Fails when the peer has closed; DeadlineExceeded when a send
  /// timeout set via SetSendTimeout expires.
  ///
  /// When `bytes_sent` is non-null it receives the number of bytes handed to
  /// the kernel before the call returned — on every path, including errors.
  /// A failure with *bytes_sent == 0 means the request never left this host
  /// (safe to retry on another peer, whatever the verb); a failure with
  /// partial progress means the peer may have received and acted on it, so
  /// only idempotent requests may be blindly resent. The router's failover
  /// policy is built on exactly this distinction.
  ///
  /// Failpoints: `sock.send.reset` (IoError as if the peer reset),
  /// `sock.send.eintr` (extra retry loop iterations), `sock.send.short`
  /// (clamps each kernel send to the configured byte budget — exercises the
  /// partial-send resume path).
  Status SendAll(std::string_view data, size_t* bytes_sent = nullptr);

  /// Receives up to `len` bytes. 0 means clean EOF (a peer reset also reads
  /// as EOF, matching the drain path). DeadlineExceeded when a receive
  /// timeout set via SetRecvTimeout expires.
  ///
  /// Failpoints: `sock.recv.reset` (EOF as if the peer reset),
  /// `sock.recv.eagain` (DeadlineExceeded as if the read deadline fired),
  /// `sock.recv.eintr` (extra retry iterations), `sock.recv.short` (clamps
  /// the bytes delivered per call — exercises reassembly in LineReader).
  Result<size_t> RecvSome(char* buf, size_t len);

  /// Arms SO_RCVTIMEO / SO_SNDTIMEO: a blocked recv/send returns
  /// DeadlineExceeded after `ms` milliseconds. 0 disables the deadline.
  /// The server puts a receive deadline on accepted connections so a stalled
  /// client cannot pin a drain forever.
  Status SetRecvTimeout(int ms);
  Status SetSendTimeout(int ms);

  /// Half-closes the read side: a blocked reader sees EOF, writes still
  /// flush. This is the graceful-drain primitive.
  void ShutdownRead();
  void ShutdownBoth();
  void Close();

  /// Closes with SO_LINGER{on, 0}: the kernel sends a real RST instead of a
  /// FIN and discards unsent data. Tests use this to subject the server to a
  /// genuine mid-conversation connection reset.
  void CloseWithReset();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Port a listening socket is bound to (0 otherwise).
  uint16_t local_port() const { return local_port_; }

 private:
  int fd_ = -1;
  uint16_t local_port_ = 0;
};

/// Buffered newline-delimited reader over a Socket. Returns lines without
/// the trailing '\n' (and without '\r' for CRLF peers); an empty optional
/// signals clean EOF. A final unterminated line before EOF is returned as-is.
class LineReader {
 public:
  /// The longest line ReadLine returns, terminator excluded. The longest
  /// line any protocol peer sends is a STATS reply of a few hundred bytes.
  static constexpr size_t kMaxLineBytes = 64 * 1024;

  explicit LineReader(Socket* socket) : socket_(socket) {}

  /// InvalidArgument once the peer sends more than kMaxLineBytes without a
  /// newline, so one peer cannot make a reader buffer without limit; the
  /// stream cannot be framed after that and the caller should close it.
  Result<std::optional<std::string>> ReadLine();

  /// Bytes buffered past the last completed line. After a *failed* ReadLine
  /// with no other response outstanding, non-zero means the peer started a
  /// response that was cut off mid-line — a torn response, distinct from
  /// "never answered". The router uses this to decide whether a failed
  /// request may have been acted on by a backend.
  size_t partial_bytes() const { return buffer_.size() - pos_; }

 private:
  Socket* socket_;
  std::string buffer_;
  size_t pos_ = 0;  ///< Start of the unconsumed region of buffer_.
};

}  // namespace rrre::common

#endif  // RRRE_COMMON_SOCKET_H_
