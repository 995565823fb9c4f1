#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "fixture.h"

namespace perfbench {

/// Runs one workload: set-up, the measured phase, the correctness gates,
/// and — when ctx.trace — the per-layer probes for the model it built.
using WorkloadFn = void (*)(const RunContext& ctx);

/// The workload named `name`, or null.
WorkloadFn FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
