#!/usr/bin/env bash
# CI entry point: tier-1 verification (default build + full test suite),
# then a build of the repository benchmark (perfbench/), then the full suite
# under ThreadSanitizer to vet the parallel layer and the
# online-serving/routing/metrics path, then the checkpoint/serve/resume and
# tower-store tests under AddressSanitizer — the corruption corpora feed
# deliberately malformed bytes to the checkpoint loader and the store mapper,
# and ASan proves the rejection paths are free of out-of-bounds reads and
# leaks — then the fault-injection suites (failpoint schedules,
# torn-checkpoint and torn-store crashes, socket faults, the seeded server
# soak) under AddressSanitizer, then the sharded-router failover suite under
# AddressSanitizer (the failpoint layer is runtime-armed in every build, so
# the same binaries exercise the router.backend.* fault seams) plus a
# repeat-until-fail guard that reruns the serving suites five times under -j
# to hold the line on the deflaked socket tests, then the adversarial-arena /
# streaming-retrain suite under AddressSanitizer, and finally the
# observability + serving suites under UndefinedBehaviorSanitizer.
#
# Every ctest invocation runs with --no-tests=error: a filter that matches
# zero tests (e.g. after a suite rename) fails the leg instead of silently
# passing it. The script exits non-zero unless every leg that was not
# explicitly skipped on the command line actually ran, and it prints which
# legs ran so CI logs show the coverage at a glance.
#
# The kernels leg runs the blocked-GEMM/conv parity oracles, the gradcheck
# sweeps, the fusion oracle suites (each fused nn module against its
# unfused per-op chain, bit for bit) and the batch-tape training tests
# (including the compiled-replay suites: schedule caching, fallback, and
# taped-and-replayed model steps against the same steps built without a
# tape) under both AddressSanitizer and UndefinedBehaviorSanitizer (the
# packed-panel kernels do the most pointer arithmetic in the codebase),
# plus a repeat-until-fail guard over the
# tape/replay suites and the training-tail oracle, and the TSan leg runs the
# same `kernels` label to vet the per-shard tape executors and the tail's
# element-range passes — by label, not suite name, so a suite added to
# test_kernels under any name is covered. The TSan leg also runs the
# `golden` label: the training and serving paths' absolute bits at 1 and 4
# threads.
#
# The perfbench leg compiles the benchmark driver against the product
# libraries with the two commands perfbench/run.py runs. Tier-1 builds no
# perfbench target, so without this leg a product name the driver calls could
# be deleted or renamed and fail only when the benchmark runs.
#
# Usage: tools/check.sh [--skip-perfbench] [--skip-tsan] [--skip-asan]
#                       [--skip-failpoint] [--skip-router] [--skip-stream]
#                       [--skip-ubsan] [--skip-kernels]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_PERFBENCH=0
SKIP_TSAN=0
SKIP_ASAN=0
SKIP_FAILPOINT=0
SKIP_ROUTER=0
SKIP_STREAM=0
SKIP_UBSAN=0
SKIP_KERNELS=0
for arg in "$@"; do
  case "$arg" in
    --skip-perfbench) SKIP_PERFBENCH=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-failpoint) SKIP_FAILPOINT=1 ;;
    --skip-router) SKIP_ROUTER=1 ;;
    --skip-stream) SKIP_STREAM=1 ;;
    --skip-ubsan) SKIP_UBSAN=1 ;;
    --skip-kernels) SKIP_KERNELS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

LEGS_RUN=()
LEGS_SKIPPED=()

# require_build_dir <dir> — the configure step must have produced a build
# tree; anything else means the leg cannot have run and the script must die.
require_build_dir() {
  if [[ ! -f "$1/CMakeCache.txt" ]]; then
    echo "FATAL: build directory '$1' missing after configure" >&2
    exit 1
  fi
}

echo "== tier-1: default build + tests =="
cmake -B build -S . >/dev/null
require_build_dir build
cmake --build build -j "$(nproc)" >/dev/null
(cd build && ctest --output-on-failure --no-tests=error -j "$(nproc)")
LEGS_RUN+=(tier1)

if [[ "$SKIP_PERFBENCH" == "1" ]]; then
  echo "== perfbench pass skipped (--skip-perfbench) =="
  LEGS_SKIPPED+=(perfbench)
else
  echo "== perfbench: build the repository benchmark (rrre_perfbench) =="
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
  require_build_dir build-perfbench
  cmake --build build-perfbench -j "$(nproc)" >/dev/null
  LEGS_RUN+=(perfbench)
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "== TSan pass skipped (--skip-tsan) =="
  LEGS_SKIPPED+=(tsan)
else
  echo "== TSan: parallel-layer + online-serving tests under ThreadSanitizer =="
  cmake -B build-tsan -S . -DRRRE_SANITIZE=thread >/dev/null
  require_build_dir build-tsan
  cmake --build build-tsan -j "$(nproc)" \
    --target test_threadpool test_parallel_determinism test_tensor \
             test_kernels test_golden test_batcher test_served test_router \
    >/dev/null
  # RouterTest runs here too: router client connections share the served
  # binary's connection layer (reader/writer threads, ordered reply slots).
  (cd build-tsan && ctest --output-on-failure --no-tests=error \
    -R "ThreadPool|ParallelDeterminism|MicroBatcher|ServedTest|RouterTest" )
  (cd build-tsan && ctest --output-on-failure --no-tests=error -L kernels)
  (cd build-tsan && ctest --output-on-failure --no-tests=error -L golden)
  LEGS_RUN+=(tsan)
fi

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "== ASan pass skipped (--skip-asan) =="
  LEGS_SKIPPED+=(asan)
else
  echo "== ASan: checkpoint/serve/resume + tower-store tests under AddressSanitizer =="
  cmake -B build-asan -S . -DRRRE_SANITIZE=address >/dev/null
  require_build_dir build-asan
  cmake --build build-asan -j "$(nproc)" \
    --target test_tensor test_serving test_extensions test_tower_store \
    >/dev/null
  (cd build-asan && ctest --output-on-failure --no-tests=error \
    -R "Serialize|Serving|TrainerPersistence" )
  # The store label is the tower-store corruption corpus: truncations,
  # bit flips, forged headers, overflow-sized counts — ASan proves every
  # rejection path reads no byte it shouldn't.
  (cd build-asan && ctest --output-on-failure --no-tests=error -L store)
  LEGS_RUN+=(asan)
fi

if [[ "$SKIP_FAILPOINT" == "1" ]]; then
  echo "== failpoint pass skipped (--skip-failpoint) =="
  LEGS_SKIPPED+=(failpoint)
else
  echo "== failpoint: fault-injection suite + seeded soak under AddressSanitizer =="
  cmake -B build-asan -S . -DRRRE_SANITIZE=address >/dev/null
  require_build_dir build-asan
  cmake --build build-asan -j "$(nproc)" \
    --target test_failpoints test_tower_store test_stream >/dev/null
  # The failpoint label covers the whole fault-injection suite: framework
  # trigger schedules, AtomicFileWriter crash sequencing, torn-checkpoint
  # rejection, socket short-I/O/EINTR/reset faults, loadgen retry, and the
  # randomized seeded server soak. The store label adds the tower-store
  # fault tests: store.write/store.mmap/serve.reload injections, crash-mid
  # -publish death tests, and the torn-store reload that must keep the old
  # snapshot serving.
  (cd build-asan && ctest --output-on-failure --no-tests=error -L failpoint)
  (cd build-asan && ctest --output-on-failure --no-tests=error -L store)
  # Seeded end-to-end streaming soak: a 2-partition arena streamed through
  # the daemon loop against one live shard while the manifest commit, the
  # tower-store write and the server reload path all fail probabilistically.
  # The old snapshot must answer scoring requests between retries and the
  # fleet must converge on the new params version once the faults clear.
  (cd build-asan && ctest --output-on-failure --no-tests=error \
    -R "StreamFaults")
  LEGS_RUN+=(failpoint)
fi

if [[ "$SKIP_ROUTER" == "1" ]]; then
  echo "== router pass skipped (--skip-router) =="
  LEGS_SKIPPED+=(router)
else
  echo "== router: sharded-router failover suite under AddressSanitizer =="
  cmake -B build-asan -S . -DRRRE_SANITIZE=address >/dev/null
  require_build_dir build-asan
  cmake --build build-asan -j "$(nproc)" --target test_router >/dev/null
  # The router label covers rendezvous placement, replica failover on
  # every router.backend.* failpoint seam (never-sent, maybe-delivered,
  # stall, torn response; inside a catalog's answer too), a catalog whose
  # home shard was killed, the rolling-reload fingerprint barrier and the
  # fleet bounds a roll moves, the partial-failure roll (one shard's reload
  # fails: the router answers at once, quarantines exactly that shard, and
  # the next roll brings it back), and side-channel quarantine.
  # Failpoints are armed at runtime, so the ASan binaries exercise the
  # injected faults directly.
  (cd build-asan && ctest --output-on-failure --no-tests=error -L router)
  # Deflake guard: the serving socket tests used to flake under parallel
  # ctest load (shared /tmp fixture paths); rerun them five times under -j
  # so a reintroduced race fails the leg instead of landing.
  (cd build && ctest --output-on-failure --no-tests=error \
    -R "ServedTest|RouterTest" --repeat until-fail:5 -j "$(nproc)")
  LEGS_RUN+=(router)
fi

if [[ "$SKIP_STREAM" == "1" ]]; then
  echo "== stream pass skipped (--skip-stream) =="
  LEGS_SKIPPED+=(stream)
else
  echo "== stream: adversarial arena + streaming retrain loop under AddressSanitizer =="
  cmake -B build-asan -S . -DRRRE_SANITIZE=address >/dev/null
  require_build_dir build-asan
  cmake --build build-asan -j "$(nproc)" --target test_stream >/dev/null
  # The stream label covers arena partition determinism (regeneration order,
  # thread counts), the per-tier evasion properties, the versioned publish
  # layout's crash-safety (manifest written last, torn generations skipped),
  # kill-then-resume bitwise identity of the retrain driver, live hot-reload
  # convergence, an endpoint that reloads but serves another fingerprint
  # (`StreamDriver` fails at once instead of waiting out its deadline), and
  # the router quarantine gauge in the METRICS scrape.
  (cd build-asan && ctest --output-on-failure --no-tests=error -L stream)
  LEGS_RUN+=(stream)
fi

if [[ "$SKIP_KERNELS" == "1" ]]; then
  echo "== kernels pass skipped (--skip-kernels) =="
  LEGS_SKIPPED+=(kernels)
else
  echo "== kernels: blocked-kernel parity + batch-tape suites under ASan and UBSan =="
  cmake -B build-asan -S . -DRRRE_SANITIZE=address >/dev/null
  require_build_dir build-asan
  cmake --build build-asan -j "$(nproc)" --target test_kernels >/dev/null
  # The kernels label is the parity-oracle + gradcheck + tape suite: blocked
  # GEMM vs a naive reference across the blocking-boundary shape grid, conv
  # parity, tanh's and exp's golden libm bits and the 8-lane-vs-scalar tanh
  # and sigmoid sweeps (sized to finish in seconds here), the LSTM row
  # kernels against their scalar oracle, nested-vs-top-level MatMul bits,
  # the frozen-argmax conv gradient, the fusion oracles (every fused nn
  # module against the unfused chain built from its own parameters, values
  # and every grad), bitwise taped-vs-untaped model steps, the
  # compiled-replay suite (fingerprint accounting, Clear() invalidation,
  # steady-state zero-rebuild counters), and the training-tail oracle (the
  # serial L2 graph, sink merge, clip and Adam against the product's
  # element-range passes, plus the strided FloatSquare sweeps).
  # ASan vets the packed-panel pointer arithmetic and the arena recycling;
  # UBSan vets the same code for overflow/alignment UB.
  (cd build-asan && ctest --output-on-failure --no-tests=error -L kernels)
  cmake -B build-ubsan -S . -DRRRE_SANITIZE=undefined >/dev/null
  require_build_dir build-ubsan
  cmake --build build-ubsan -j "$(nproc)" --target test_kernels >/dev/null
  (cd build-ubsan && ctest --output-on-failure --no-tests=error -L kernels)
  # Deflake guard (same pattern as the serving-socket guard): the tape/replay
  # model-step and training tests, the thread-count crosses and the
  # training-tail oracle drive the data-parallel step and its tail on a
  # parallel pool under -j, including a lone shard whose kernels fan out
  # while its GradSink and tape scopes are active; rerun them five times so
  # a reintroduced scheduling race or a replay-fallback flake fails the leg
  # instead of landing.
  (cd build && ctest --output-on-failure --no-tests=error \
    -R "TapeTrainingTest|ParallelDeterminismTest|TailOracleTest" \
    --repeat until-fail:5 -j "$(nproc)")
  LEGS_RUN+=(kernels)
fi

if [[ "$SKIP_UBSAN" == "1" ]]; then
  echo "== UBSan pass skipped (--skip-ubsan) =="
  LEGS_SKIPPED+=(ubsan)
else
  echo "== UBSan: observability + serving tests under UndefinedBehaviorSanitizer =="
  cmake -B build-ubsan -S . -DRRRE_SANITIZE=undefined >/dev/null
  require_build_dir build-ubsan
  cmake --build build-ubsan -j "$(nproc)" \
    --target test_obs test_properties_common test_batcher test_served >/dev/null
  # The obs label covers the metrics/trace/telemetry and histogram-property
  # suites; the explicit regex adds the online-serving path.
  (cd build-ubsan && ctest --output-on-failure --no-tests=error -L obs)
  (cd build-ubsan && ctest --output-on-failure --no-tests=error \
    -R "MicroBatcher|ServedTest" )
  LEGS_RUN+=(ubsan)
fi

SUMMARY="== legs run: ${LEGS_RUN[*]}"
if [[ "${#LEGS_SKIPPED[@]}" -gt 0 ]]; then
  SUMMARY+=" | skipped on request: ${LEGS_SKIPPED[*]}"
fi
echo "$SUMMARY =="
echo "== all checks passed =="
