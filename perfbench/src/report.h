#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Exact percentile (linear interpolation between closest ranks) of
/// `samples`; 0 for an empty sample. Exact rather than bucketed, so a
/// measured figure never snaps to a histogram bucket edge.
double Percentile(std::vector<double> samples, double pct);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// What one run prints as its last line: the correctness verdict, the
/// operation counts, and every metric by name with its unit.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets `name` unless it is already set.
  void Offer(const std::string& name, double value, const std::string& unit) {
    if (!Has(name)) Set(name, value, unit);
  }
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  double Get(const std::string& name) const;

  /// Counts operations; a failed one also counts as attempted.
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Failed(int64_t n, const std::string& why);
  /// A correctness gate that did not hold. Marks the run incorrect and
  /// counts one failed operation.
  void GateMiss(const std::string& why);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultLine() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder for the traced run. Spans are opened and closed
/// by the benchmark around its calls into the product's public functions
/// (nothing inside src/ is instrumented); each carries its name, start, end,
/// the span open on the same thread when it began (its cause), and the
/// recording thread. They are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { Close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Ends the span (idempotent); returns its duration in seconds.
    double Close();

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t start_ns_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
    double seconds_ = -1.0;
  };

  /// Durations (µs) of every closed span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Writes one JSON object per span to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t thread = 0;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Runs `fn` inside a span and returns its wall time in seconds.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, Fn&& fn) {
  Tracer::Span span(tracer, name);
  fn();
  return span.Close();
}

/// The header every run prints first: source identity, machine, build and
/// run parameters, so figures from different runs can be told apart.
struct RunHeader {
  std::string source_id;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int64_t run_index = 0;
};
std::string HeaderLine(const RunHeader& header);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
