// Repository benchmark driver: runs one workload of the product pipeline
// (train -> publish -> serve -> route -> stream) for a seed and prints, as
// its last stdout line, one JSON object with the correctness verdict, the
// operation counts and every metric by name with its unit. --trace 0 gives
// the end-to-end metrics; --trace 1 the per-layer ones, each timed from the
// benchmark's own code around calls into a module's public functions.
//
//   rrre_perfbench --workload train --seed 1 --seconds 10 --trace 0
//                  [--work_dir .bench_build/work] [--source unknown]
//                  [--run_index 0]
//
// perfbench/run.py builds this binary from the checkout and runs it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common/threadpool.h"
#include "fixture.h"
#include "layers.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train|serve_pairs|serve_catalog_routed|"
               "stream_rollout --seed N --seconds S --trace 0|1 "
               "[--work_dir DIR] [--source ID] [--run_index N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  std::string workload;
  std::string work_root = ".bench_build/work";
  RunHeader header;
  header.source_id = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      header.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      header.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--work_dir") {
      work_root = value;
    } else if (key == "--source") {
      header.source_id = value;
    } else if (key == "--run_index") {
      header.run_index = std::strtoll(value, nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadFn run = FindWorkload(workload);
  if (run == nullptr || (trace != 0 && trace != 1) || header.seconds <= 0.0 ||
      argc % 2 != 1) {
    return Usage(argv[0]);
  }
  header.workload = workload;
  header.trace = trace == 1;
  std::printf("%s\n", HeaderLine(header).c_str());
  std::fflush(stdout);

  // The product default: a pool as wide as the machine.
  rrre::common::ThreadPool::SetGlobalSize(0);

  Report report;
  Tracer tracer(header.trace);
  RunContext ctx;
  ctx.seed = header.seed;
  ctx.seconds = header.seconds;
  ctx.trace = header.trace;
  ctx.work_dir = work_root + "/" + workload + "-" + std::to_string(::getpid());
  ctx.report = &report;
  ctx.tracer = &tracer;
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);
  std::filesystem::create_directories(ctx.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  if (ctx.trace) ProbeSharedLayers(ctx);
  run(ctx);
  if (ctx.trace) {
    const std::string spans = work_root + "/" + workload + "-seed" +
                              std::to_string(header.seed) + ".spans.jsonl";
    if (tracer.WriteJsonl(spans)) {
      std::fprintf(stderr, "perfbench: spans written to %s\n", spans.c_str());
    }
  }
  std::filesystem::remove_all(ctx.work_dir, ec);

  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return 0;
}
