#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/socket.h"
#include "common/strings.h"
#include "report.h"

namespace perfbench {

double ClientResult::achieved_per_s() const {
  return elapsed_s > 0.0 ? static_cast<double>(ok) / elapsed_s : 0.0;
}

double WindowedPercentile(const ClientResult& result, double window_s,
                          double pct) {
  std::map<int64_t, std::vector<double>> windows;
  const double window_ns = window_s * 1e9;
  for (size_t i = 0; i < result.latency_us.size(); ++i) {
    windows[static_cast<int64_t>(static_cast<double>(result.due_ns[i]) /
                                 window_ns)]
        .push_back(result.latency_us[i]);
  }
  if (windows.empty()) return 0.0;
  const double mean_count = static_cast<double>(result.latency_us.size()) /
                            static_cast<double>(windows.size());
  std::vector<double> per_window;
  for (const auto& [index, samples] : windows) {
    if (static_cast<double>(samples.size()) >= 0.5 * mean_count) {
      per_window.push_back(Percentile(samples, pct));
    }
  }
  return Median(per_window);
}

std::vector<int64_t> PoissonArrivals(int64_t count, double rate_per_s,
                                     uint64_t seed) {
  rrre::common::Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    out.push_back(static_cast<int64_t>(t * 1e9));
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
  }
  return out;
}

namespace {

struct Pending {
  size_t index = 0;
  int64_t due_abs_ns = 0;
  bool catalog = false;
  int64_t lines_left = -1;  ///< Catalog lines still expected; -1 = header.
  std::string text;         ///< Captured response bytes.
};

/// One connection's share of the schedule, driven by a single thread.
class ConnectionDriver {
 public:
  ConnectionDriver(const std::vector<ScheduledRequest>* requests,
                   std::vector<size_t> mine, int64_t start_ns,
                   int64_t drain_timeout_ms, const std::atomic<bool>* stop)
      : requests_(requests),
        mine_(std::move(mine)),
        start_ns_(start_ns),
        drain_timeout_ns_(drain_timeout_ms * 1000000),
        stop_(stop) {}

  void Run(uint16_t port, ClientResult* out) {
    result_ = out;
    auto socket = rrre::common::Socket::Connect("127.0.0.1", port);
    if (!socket.ok()) {
      result_->unanswered += static_cast<int64_t>(mine_.size());
      return;
    }
    socket_ = std::move(socket).ValueOrDie();
    const int fd = socket_.fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    Loop(fd);
    socket_.Close();
  }

 private:
  void Loop(int fd) {
    int64_t last_due =
        mine_.empty() ? start_ns_
                      : start_ns_ + (*requests_)[mine_.back()].due_ns;
    size_t next = 0;
    std::string out;
    size_t out_off = 0;
    std::string in;
    char buf[1 << 16];
    for (;;) {
      int64_t now = NowNs();
      if (stop_ != nullptr && next < mine_.size() && stop_->load()) {
        mine_.resize(next);  // Not yet due: dropped, never sent.
        last_due = now;
      }
      while (next < mine_.size() &&
             start_ns_ + (*requests_)[mine_[next]].due_ns <= now) {
        const ScheduledRequest& r = (*requests_)[mine_[next]];
        out += r.line;
        out.push_back('\n');
        Pending p;
        p.index = mine_[next];
        p.due_abs_ns = start_ns_ + r.due_ns;
        p.catalog = r.catalog;
        pending_.push_back(std::move(p));
        result_->lateness_us.push_back(
            static_cast<double>(now - (start_ns_ + r.due_ns)) * 1e-3);
        ++result_->sent;
        ++next;
      }
      if (out_off < out.size()) {
        const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          out_off += static_cast<size_t>(n);
          if (out_off == out.size()) {
            out.clear();
            out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          break;
        }
      }
      if (next == mine_.size() && pending_.empty() && out.empty()) break;
      if (next == mine_.size() && now > last_due + drain_timeout_ns_) break;

      // Sleep until the next request is due, but wake at least every 10 ms
      // to notice a stop request.
      int64_t wait_ns = 10'000'000;
      if (next < mine_.size()) {
        wait_ns = std::clamp<int64_t>(
            start_ns_ + (*requests_)[mine_[next]].due_ns - now, 0, wait_ns);
      }
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) break;  // Peer closed.
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        break;
      }
      in.append(buf, static_cast<size_t>(n));
      const int64_t arrived = NowNs();
      size_t begin = 0;
      for (size_t nl = in.find('\n'); nl != std::string::npos;
           nl = in.find('\n', begin)) {
        OnLine(std::string_view(in).substr(begin, nl - begin), arrived);
        begin = nl + 1;
      }
      in.erase(0, begin);
    }
    // Whatever is still pending never got a complete answer.
    if (!pending_.empty()) {
      const Pending& front = pending_.front();
      if (front.catalog && front.lines_left >= 0) {
        ++result_->torn;
        pending_.pop_front();
      }
      result_->unanswered += static_cast<int64_t>(pending_.size());
      pending_.clear();
    }
    result_->unanswered += static_cast<int64_t>(mine_.size() - next);
  }

  void OnLine(std::string_view line, int64_t arrived_ns) {
    if (pending_.empty()) {
      ++result_->torn;  // An answer nobody asked for.
      return;
    }
    Pending& p = pending_.front();
    const bool capture = (*requests_)[p.index].capture;
    if (capture) {
      p.text.append(line);
      p.text.push_back('\n');
    }
    if (p.catalog && p.lines_left > 0) {
      if (--p.lines_left == 0) Complete(arrived_ns, /*ok=*/true);
      return;
    }
    if (rrre::common::StartsWith(line, "!ERR\t")) {
      if (rrre::common::StartsWith(line, "!ERR\toverload")) {
        ++result_->overloads;
      } else {
        ++result_->errors;
      }
      Complete(arrived_ns, /*ok=*/false);
      return;
    }
    if (!p.catalog) {
      Complete(arrived_ns, /*ok=*/true);
      return;
    }
    const std::vector<std::string> fields = rrre::common::Split(line, '\t');
    if (fields.size() != 3 || fields[0] != "#catalog") {
      ++result_->torn;
      Complete(arrived_ns, /*ok=*/false);
      return;
    }
    p.lines_left = std::strtoll(fields[2].c_str(), nullptr, 10);
    if (p.lines_left <= 0) Complete(arrived_ns, /*ok=*/true);
  }

  void Complete(int64_t arrived_ns, bool ok) {
    Pending& p = pending_.front();
    if (ok) {
      ++result_->ok;
      result_->latency_us.push_back(
          static_cast<double>(arrived_ns - p.due_abs_ns) * 1e-3);
      result_->due_ns.push_back((*requests_)[p.index].due_ns);
    }
    if ((*requests_)[p.index].capture) {
      result_->captured[p.index] = std::move(p.text);
    }
    last_answer_ns_ = arrived_ns;
    pending_.pop_front();
  }

 public:
  int64_t last_answer_ns() const { return last_answer_ns_; }

 private:
  const std::vector<ScheduledRequest>* requests_;
  std::vector<size_t> mine_;
  int64_t start_ns_;
  int64_t drain_timeout_ns_;
  const std::atomic<bool>* stop_;
  rrre::common::Socket socket_;
  std::deque<Pending> pending_;
  ClientResult* result_ = nullptr;
  int64_t last_answer_ns_ = 0;
};

}  // namespace

ClientResult RunOpenLoop(uint16_t port, int connections,
                         const std::vector<ScheduledRequest>& requests,
                         int64_t drain_timeout_ms,
                         const std::atomic<bool>* stop) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  connections = std::clamp(connections, 1, cores);
  std::vector<std::vector<size_t>> shares(static_cast<size_t>(connections));
  for (size_t i = 0; i < requests.size(); ++i) {
    shares[i % static_cast<size_t>(connections)].push_back(i);
  }
  // A short lead-in lets every thread connect before the first request is
  // due, so connection set-up is not charged to the schedule.
  const int64_t start_ns = NowNs() + 20'000'000;
  std::vector<ClientResult> parts(static_cast<size_t>(connections));
  std::vector<std::unique_ptr<ConnectionDriver>> drivers;
  for (int c = 0; c < connections; ++c) {
    drivers.push_back(std::make_unique<ConnectionDriver>(
        &requests, std::move(shares[static_cast<size_t>(c)]), start_ns,
        drain_timeout_ms, stop));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      drivers[static_cast<size_t>(c)]->Run(port,
                                            &parts[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : threads) t.join();

  ClientResult total;
  int64_t last_answer_ns = start_ns;
  for (int c = 0; c < connections; ++c) {
    ClientResult& p = parts[static_cast<size_t>(c)];
    total.latency_us.insert(total.latency_us.end(), p.latency_us.begin(),
                            p.latency_us.end());
    total.due_ns.insert(total.due_ns.end(), p.due_ns.begin(), p.due_ns.end());
    total.lateness_us.insert(total.lateness_us.end(), p.lateness_us.begin(),
                             p.lateness_us.end());
    total.sent += p.sent;
    total.ok += p.ok;
    total.errors += p.errors;
    total.overloads += p.overloads;
    total.torn += p.torn;
    total.unanswered += p.unanswered;
    total.captured.merge(p.captured);
    last_answer_ns = std::max(
        last_answer_ns, drivers[static_cast<size_t>(c)]->last_answer_ns());
  }
  total.elapsed_s = static_cast<double>(last_answer_ns - start_ns) * 1e-9;
  return total;
}

}  // namespace perfbench
