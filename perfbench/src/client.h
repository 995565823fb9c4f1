#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One request of an open-loop schedule.
struct ScheduledRequest {
  std::string line;    ///< Protocol line without its '\n'.
  int64_t due_ns = 0;  ///< Send time, as an offset from the phase start.
  bool catalog = false;  ///< The response is a "#catalog" header + N lines.
  bool capture = false;  ///< Keep the response bytes for the identity gate.
};

/// Outcome of one open-loop phase. Latency is timed from each request's
/// scheduled send time, so a stall of the server (or of the generator)
/// shows up in every request it delays, not only the one in flight.
struct ClientResult {
  std::vector<double> latency_us;   ///< Per successfully answered request.
  /// Scheduled send time (ns from the phase start), aligned with latency_us.
  std::vector<int64_t> due_ns;
  std::vector<double> lateness_us;  ///< Actual minus scheduled send time.
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t errors = 0;      ///< "!ERR" answers other than overload.
  int64_t overloads = 0;   ///< "!ERR overload" answers (refused).
  int64_t torn = 0;        ///< Malformed or cut-off responses.
  int64_t unanswered = 0;  ///< No answer before the drain deadline.
  double elapsed_s = 0.0;  ///< Phase start to last answer.
  /// Request index -> full response text (each line '\n'-terminated).
  std::map<size_t, std::string> captured;

  int64_t failed() const { return errors + overloads + torn + unanswered; }
  /// Answered requests per second over the whole phase.
  double achieved_per_s() const;
};

/// The median, over consecutive windows of `window_s` of scheduled send
/// time, of each window's `pct` latency percentile. A stall of a shared
/// machine moves the windows it hits, not the figure. Windows holding less
/// than half the mean count (the ragged last one) are left out.
double WindowedPercentile(const ClientResult& result, double window_s,
                          double pct);

/// Seeded open-loop arrival schedule: `count` Poisson arrivals at `rate_per_s`
/// (exponential gaps drawn from `seed`), returned as offsets in ns.
std::vector<int64_t> PoissonArrivals(int64_t count, double rate_per_s,
                                     uint64_t seed);

/// Open-loop load client. Requests are dealt round-robin to `connections`
/// (at most the machine's core count) persistent connections, one thread
/// each; every thread writes its requests when they fall due — pipelining,
/// never waiting for earlier answers — and reads answers as they arrive, in
/// request order. A late generator is visible in `lateness_us`.
///
/// When `stop` is given and becomes true, requests not yet due are dropped
/// (not counted) and the phase ends once the ones sent are answered.
ClientResult RunOpenLoop(uint16_t port, int connections,
                         const std::vector<ScheduledRequest>& requests,
                         int64_t drain_timeout_ms = 5000,
                         const std::atomic<bool>* stop = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
