#include "serve/line_server.h"

#include <condition_variable>
#include <deque>

#include "common/logging.h"
#include "common/status.h"
#include "serve/protocol.h"

namespace rrre::serve {

using common::Socket;

struct LineServer::Connection {
  Connection(Socket s, Handler h)
      : socket(std::move(s)), handler(std::move(h)) {}
  // The threads are joined (reap or Shutdown) before the last reference can
  // drop elsewhere, e.g. in a batcher callback; this join is a no-op then.
  ~Connection() { Join(); }

  void Join() {
    if (reader.joinable()) reader.join();
    if (writer.joinable()) writer.join();
  }

  /// Half-closes the read side: the reader sees EOF and stops admitting,
  /// even while it waits for room; slotted replies still flush.
  void AbortRead() {
    socket.ShutdownRead();
    std::lock_guard<std::mutex> lock(mu);
    aborted = true;
    cv.notify_all();
  }

  Socket socket;
  Handler handler;
  std::thread reader;
  std::thread writer;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Slot>> slots;  ///< Unsent replies, in order.
  bool reader_done = false;
  bool aborted = false;
  std::atomic<int> exited{0};  ///< Loops run to completion; 2 = reapable.
};

void LineServer::Reply::Send(std::string payload) const {
  std::lock_guard<std::mutex> lock(conn_->mu);
  *slot_ = std::move(payload);
  conn_->cv.notify_all();
}

LineServer::LineServer(Socket listener, Options options)
    : options_(std::move(options)), listener_(std::move(listener)) {
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) return;
  const std::string& prefix = options_.metrics_prefix;
  const std::string& subject = options_.subject;
  m_accepted_ = metrics->GetCounter(prefix + "_connections_accepted_total",
                                    subject + " accepted");
  m_rejected_ = metrics->GetCounter(
      prefix + "_connections_rejected_total",
      subject + " refused at the connection limit");
  m_read_timeouts_ =
      metrics->GetCounter(prefix + "_read_timeouts_total",
                          subject + " dropped by the read deadline");
  m_active_ = metrics->GetGauge(prefix + "_connections_active",
                                "currently open " + subject);
}

void LineServer::Start(HandlerFactory factory) {
  factory_ = std::move(factory);
  accept_thread_ = std::thread(&LineServer::AcceptLoop, this);
}

void LineServer::AcceptLoop() {
  while (!stopping_.load()) {
    auto client = listener_.AcceptWithTimeout(/*timeout_ms=*/100);
    Reap();
    if (!client.ok()) {
      if (stopping_.load()) break;
      RRRE_LOG_WARNING << "accept failed: " << client.status().ToString();
      continue;
    }
    if (!client.value().has_value()) continue;  // Poll timeout.
    Socket socket = std::move(*client.value());
    if (options_.read_timeout_ms > 0) {
      // The recv deadline drops silent clients; the send deadline keeps a
      // client that stops reading from stalling its writer forever.
      socket.SetRecvTimeout(options_.read_timeout_ms);
      socket.SetSendTimeout(options_.read_timeout_ms);
    }
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int64_t>(connections_.size()) >=
          options_.max_connections) {
        rejected_.fetch_add(1);
        if (m_rejected_ != nullptr) m_rejected_->Increment();
        socket.SendAll(FormatError("busy", "connection limit reached"));
        continue;  // Socket closes on scope exit.
      }
      conn = std::make_shared<Connection>(std::move(socket),
                                          factory_(accepted_.load()));
      connections_.push_back(conn);
      if (m_active_ != nullptr) m_active_->Set(connections_.size());
    }
    accepted_.fetch_add(1);
    if (m_accepted_ != nullptr) m_accepted_->Increment();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  }
}

void LineServer::Reap() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < connections_.size();) {
      if (connections_[i]->exited.load() == 2) {
        finished.push_back(std::move(connections_[i]));
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
      } else {
        ++i;
      }
    }
    if (m_active_ != nullptr) m_active_->Set(connections_.size());
  }
  for (auto& conn : finished) conn->Join();
}

LineServer::Reply LineServer::PushSlot(
    const std::shared_ptr<Connection>& conn) {
  auto slot = std::make_shared<Slot>();
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->slots.push_back(slot);
  return Reply(conn, std::move(slot));
}

void LineServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  common::LineReader reader(&conn->socket);
  for (;;) {
    {
      // A client that stops reading stops being read.
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock, [&] {
        return conn->slots.size() < kMaxUnsentReplies || conn->aborted;
      });
    }
    auto line = reader.ReadLine();
    if (!line.ok()) {
      const common::StatusCode code = line.status().code();
      if (code == common::StatusCode::kDeadlineExceeded) {
        // The client sat silent past read_timeout_ms: like EOF, but counted.
        read_timeouts_.fetch_add(1);
        if (m_read_timeouts_ != nullptr) m_read_timeouts_->Increment();
      } else if (code == common::StatusCode::kInvalidArgument) {
        // An over-long line: the rest of the stream cannot be framed.
        PushSlot(conn).Send(FormatError("parse", line.status().message()));
      }
      break;
    }
    if (!line.value().has_value()) break;
    if (!conn->handler(*line.value(), PushSlot(conn))) break;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_done = true;
    conn->cv.notify_all();
  }
  conn->exited.fetch_add(1);
}

void LineServer::WriterLoop(const std::shared_ptr<Connection>& conn) {
  bool send_failed = false;
  std::unique_lock<std::mutex> lock(conn->mu);
  for (;;) {
    conn->cv.wait(lock, [&] {
      return (!conn->slots.empty() && conn->slots.front()->has_value()) ||
             (conn->reader_done && conn->slots.empty());
    });
    if (conn->slots.empty()) break;
    std::string payload = std::move(**conn->slots.front());
    conn->slots.pop_front();
    conn->cv.notify_all();  // The reader may be waiting for room.
    lock.unlock();
    // After a send failure (peer hung up) keep consuming so every pending
    // fill still finds its slot, but stop writing.
    if (!send_failed && !conn->socket.SendAll(payload).ok()) send_failed = true;
    lock.lock();
  }
  lock.unlock();
  // Reader done and every slot sent: full close so the peer sees EOF.
  conn->socket.ShutdownBoth();
  conn->exited.fetch_add(1);
}

void LineServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (auto& conn : conns) conn->AbortRead();
  for (auto& conn : conns) conn->Join();
  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
}

LineServer::Stats LineServer::stats() const {
  Stats out;
  out.accepted = accepted_.load();
  out.rejected = rejected_.load();
  out.read_timeouts = read_timeouts_.load();
  std::lock_guard<std::mutex> lock(mu_);
  out.active = static_cast<int64_t>(connections_.size());
  return out;
}

}  // namespace rrre::serve
