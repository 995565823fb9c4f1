#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/strings.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_KERNELS_AVX2
#define PERFBENCH_KERNELS_AVX2 0
#endif

namespace perfbench {

using rrre::common::StrFormat;

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Failed(int64_t n, const std::string& why) {
  if (n <= 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %lld failed: %s\n",
               static_cast<long long>(n), why.c_str());
}

void Report::GateMiss(const std::string& why) {
  correct_ = false;
  ++attempted_;
  Failed(1, "correctness gate: " + why);
}

std::string Report::ResultLine() const {
  std::string metrics;
  for (const auto& [name, v] : metrics_) {
    if (!metrics.empty()) metrics += ", ";
    // Non-finite values are not JSON; they only arise from a broken
    // measurement, which the gates report separately.
    const double value = std::isfinite(v.value) ? v.value : 0.0;
    metrics += StrFormat("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                         name.c_str(), value, v.unit.c_str());
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct_ ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(attempted_, 1)),
      static_cast<long long>(failed_), metrics.c_str());
}

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_ns_(NowNs()) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  parent_ = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  id_ = static_cast<int64_t>(tracer_->records_.size());
  Record r;
  r.name = name_;
  r.start_ns = start_ns_;
  r.parent = parent_;
  r.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  tracer_->records_.push_back(std::move(r));
  open_spans.push_back(id_);
}

double Tracer::Span::Close() {
  if (seconds_ >= 0.0) return seconds_;
  const int64_t end_ns = NowNs();
  seconds_ = static_cast<double>(end_ns - start_ns_) * 1e-9;
  if (id_ >= 0) {
    if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->records_[static_cast<size_t>(id_)].end_ns = end_ns;
  }
  return seconds_;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns > 0) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"thread\": %llu}\n",
                 i, r.name.c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.thread));
  }
  return std::fclose(f) == 0;
}

std::string HeaderLine(const RunHeader& h) {
  __builtin_cpu_init();
  const bool avx2_fma =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return StrFormat(
      "{\"header\": {\"source\": \"%s\", \"nproc\": %u, "
      "\"compiler\": \"gcc %s\", \"cxx_flags\": \"%s\", "
      "\"cpu_avx2_fma\": %s, \"kernels_avx2_fma\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %s, \"run_index\": %lld}}",
      h.source_id.c_str(), std::thread::hardware_concurrency(), __VERSION__,
      PERFBENCH_CXX_FLAGS, avx2_fma ? "true" : "false",
      PERFBENCH_KERNELS_AVX2 ? "true" : "false", h.workload.c_str(),
      static_cast<unsigned long long>(h.seed), h.seconds,
      h.trace ? "true" : "false", static_cast<long long>(h.run_index));
}

}  // namespace perfbench
