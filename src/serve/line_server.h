#ifndef RRRE_SERVE_LINE_SERVER_H_
#define RRRE_SERVE_LINE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "obs/metrics.h"

namespace rrre::serve {

/// The connection layer under rrre_served and rrre_routed: the listener and
/// accept thread, the connection limit ("!ERR busy"), the read/send
/// deadlines, reaping, the connection counters and the half-close drain.
/// The protocol lives in a per-connection handler.
///
/// Each connection runs a reader thread, which frames request lines and
/// hands each one to the handler with its own ordered reply slot, and a
/// writer thread, which sends the slots strictly in request order. A handler
/// may fill a slot at once (the router) or later from another thread (the
/// server's batcher callbacks); either way a pipelining client gets every
/// reply, in order, exactly once.
///
/// Two bounds keep one client from holding unbounded memory: a request line
/// longer than LineReader::kMaxLineBytes is answered "!ERR parse" and the
/// connection closed, and a reader stops reading while its connection holds
/// kMaxUnsentReplies unsent replies.
class LineServer {
 private:
  struct Connection;
  using Slot = std::optional<std::string>;  ///< Empty until filled.

 public:
  /// The ordered reply slot of one request line. Copyable; fill it exactly
  /// once, from any thread. An empty payload sends nothing (blank lines and
  /// comments); an unfilled slot holds back every reply after it.
  class Reply {
   public:
    void Send(std::string payload) const;

   private:
    friend class LineServer;
    Reply(std::shared_ptr<Connection> conn, std::shared_ptr<Slot> slot)
        : conn_(std::move(conn)), slot_(std::move(slot)) {}
    std::shared_ptr<Connection> conn_;
    std::shared_ptr<Slot> slot_;
  };

  /// Answers one request line (terminator stripped) through `reply`, on the
  /// connection's reader thread. Returns false to stop reading (QUIT); the
  /// replies already slotted still flush before the connection closes.
  using Handler = std::function<bool(const std::string& line, Reply reply)>;
  /// Makes the handler of the `index`-th accepted connection (0-based).
  using HandlerFactory = std::function<Handler(int64_t index)>;

  struct Options {
    int64_t max_connections = 256;
    int read_timeout_ms = 0;  ///< Receive and send deadline; 0 = none.
    /// When set, the counters are exported as `<metrics_prefix>_`
    /// `connections_accepted_total`, `connections_rejected_total`,
    /// `read_timeouts_total` and `connections_active`; their help text
    /// names the connections `subject`.
    obs::MetricsRegistry* metrics = nullptr;
    std::string metrics_prefix;
    std::string subject = "connections";
  };

  struct Stats {
    int64_t accepted = 0;
    int64_t rejected = 0;
    int64_t read_timeouts = 0;  ///< Connections dropped by the read deadline.
    int64_t active = 0;
  };

  /// A reader waits while its connection holds this many unsent replies.
  static constexpr size_t kMaxUnsentReplies = 1024;

  /// Takes a bound listener; nothing is accepted before Start.
  LineServer(common::Socket listener, Options options);
  ~LineServer() { Shutdown(); }

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Starts accepting. Call once everything the handlers touch exists.
  void Start(HandlerFactory factory);

  /// Graceful drain; idempotent; blocks until everything is joined. The
  /// listener stops, every connection's read side is half-closed (clients
  /// see EOF for new requests), and every slotted reply is still sent.
  void Shutdown();

  uint16_t port() const { return listener_.local_port(); }
  Stats stats() const;

 private:
  void AcceptLoop();
  /// Joins and drops finished connections (accept thread only).
  void Reap();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WriterLoop(const std::shared_ptr<Connection>& conn);
  static Reply PushSlot(const std::shared_ptr<Connection>& conn);

  const Options options_;
  common::Socket listener_;
  HandlerFactory factory_;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_read_timeouts_ = nullptr;
  obs::Gauge* m_active_ = nullptr;

  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> read_timeouts_{0};

  mutable std::mutex mu_;  ///< Guards connections_ and shutdown_done_.
  std::vector<std::shared_ptr<Connection>> connections_;
  bool shutdown_done_ = false;
  std::thread accept_thread_;
};

}  // namespace rrre::serve

#endif  // RRRE_SERVE_LINE_SERVER_H_
