#ifndef RRRE_SERVE_LOADGEN_H_
#define RRRE_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"

namespace rrre::serve {

/// Closed-loop load generator for rrre_served, used by tools/rrre_loadgen
/// and the fault-injection tests: N concurrent connections each issue pair
/// requests (uniformly random ids) and wait for the response, optionally
/// paced to a target aggregate QPS.
struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int64_t connections = 4;
  /// Total requests across all connections.
  int64_t total_requests = 1000;
  /// Aggregate target rate; 0 = as fast as the closed loop allows.
  double target_qps = 0.0;
  uint64_t seed = 42;
  /// Id ranges to draw from. 0 = discover from the server via STATS.
  int64_t num_users = 0;
  int64_t num_items = 0;
  /// Retries per request on "!ERR overload", with exponential backoff +
  /// jitter between attempts (see BackoffUs). 0 = report overloads as-is,
  /// keeping the plain closed-loop semantics.
  int64_t max_retries = 0;
  /// Backoff base: attempt k waits roughly base * 2^k microseconds (capped,
  /// jittered) before the retry.
  int64_t backoff_base_us = 1000;
  int64_t backoff_cap_us = 100000;
};

/// Counter contract: every request settles exactly once — as `scored`,
/// `overloaded` (an "!ERR overload" answer *after* the retry budget is
/// spent; never folded into `errors`), or `errors` (any other error
/// response). `sent` counts wire attempts, so the books always balance:
///   sent == scored + overloaded + errors + retried.
/// test_failpoints asserts this accounting under deterministic overload.
struct LoadGenReport {
  int64_t sent = 0;        ///< Wire attempts (first tries + retries).
  int64_t scored = 0;      ///< Score-line responses.
  int64_t overloaded = 0;  ///< "!ERR overload" responses (post-retry).
  int64_t errors = 0;      ///< Other error responses.
  int64_t retried = 0;     ///< Re-sends triggered by overload responses.
  double seconds = 0.0;    ///< Wall clock over the whole run.
  double qps = 0.0;        ///< Responses per second.
  /// Per-request round-trip latency, merged across connections.
  common::Histogram latency_us;
};

/// Runs the load and blocks until every connection finished. Fails if the
/// server is unreachable or a connection breaks mid-run.
common::Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options);

/// Microseconds to wait before retry `attempt` (0-based): equal-jitter
/// exponential backoff. The ceiling doubles per attempt from `base_us` up to
/// `cap_us`; the wait is ceiling/2 plus a uniform draw over the other half,
/// so concurrent clients hitting the same overloaded server decorrelate
/// instead of retrying in lockstep.
int64_t BackoffUs(int64_t attempt, int64_t base_us, int64_t cap_us,
                  common::Rng& rng);

}  // namespace rrre::serve

#endif  // RRRE_SERVE_LOADGEN_H_
