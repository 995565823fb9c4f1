#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "report.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tensor/tape.h"

namespace perfbench {

/// What every workload gets: its parameters and where to put results.
struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory inside the checkout.
  Report* report = nullptr;
  Tracer* tracer = nullptr;

  /// A per-purpose seed derived from the workload seed.
  uint64_t SubSeed(uint64_t stream) const {
    return seed * 0x9e3779b97f4a7c15ULL + stream;
  }
};

/// The product's training defaults: the model config every bench and tool
/// ships with, on the compiled tape with replay, 8-example shards.
rrre::core::RrreConfig ProductConfig(uint64_t seed, int64_t epochs);

/// A yelpchi-shaped corpus at `scale`, split 70/30 like the paper.
struct Corpus {
  rrre::data::ReviewDataset train;
  rrre::data::ReviewDataset test;
};
Corpus MakeCorpus(double scale, uint64_t seed);

/// A fitted, saved model and what its training recorded — what a workload
/// hands to the per-layer probes.
struct ModelUnderTest {
  rrre::core::RrreConfig config;
  rrre::core::RrreTrainer* trainer = nullptr;  ///< Fitted; not owned.
  const rrre::data::ReviewDataset* test = nullptr;  ///< Held-out set.
  std::string prefix;      ///< Saved checkpoint of `trainer`.
  std::string store_path;  ///< Its tower store; built by a probe if empty.
  /// TapeStats() after each training epoch, for per-epoch differences.
  std::vector<rrre::tensor::BatchTape::Stats> tape_per_epoch;
  /// Wall time per optimizer step (µs) of each steady-state epoch.
  std::vector<double> step_us;
  /// Trainer telemetry (with timings) of the training; empty when none.
  std::string telemetry_path;
};

/// The serve workloads' fixture: a trainer it owns and its probe view.
struct ServingModel {
  std::unique_ptr<rrre::core::RrreTrainer> trainer;
  ModelUnderTest view;
};

/// Trains the serving fixture on `corpus` (one short Fit: serving cost
/// depends on the model's shape, not on how well it was trained) and
/// saves it under `prefix`. With `trace`, the Fit feeds the trainer
/// telemetry the per-layer probes read.
ServingModel TrainServingModel(const RunContext& ctx, const Corpus& corpus,
                               const std::string& prefix);

/// Epoch callback recording each epoch's tape counters and, from the
/// second epoch on (the first records the tape), its time per step.
rrre::core::RrreTrainer::EpochCallback RecordEpochs(ModelUnderTest* model,
                                                   int64_t examples);

/// rrre_served as shipped: that binary's flag defaults, not ServerOptions{}.
rrre::serve::ServerOptions ServedDefaults(const rrre::core::RrreConfig& config,
                                          const std::string& prefix,
                                          const std::string& store_path);

/// N in-process rrre_served shards behind one rrre_routed router.
struct Fleet {
  std::vector<std::unique_ptr<rrre::serve::Server>> shards;
  std::unique_ptr<rrre::serve::Router> router;
  ~Fleet() { Shutdown(); }
  void Shutdown();
};
std::unique_ptr<Fleet> StartFleet(const rrre::serve::ServerOptions& shard,
                                  int shards);

/// One request line -> one response line over a fresh connection.
std::string RoundTrip(uint16_t port, const std::string& line);
/// STATS as key -> value.
std::map<std::string, std::string> QueryStats(uint16_t port);

/// Sends RELOAD to a router (timed as the reload barrier: the router acks
/// once its rolling barrier is through) and polls its STATS until the fleet
/// reports `fingerprint` with nothing quarantined (timed as convergence).
/// Returns false when the router refuses or the fleet does not converge.
bool RollFleet(const RunContext& ctx, uint16_t router_port,
               uint64_t fingerprint, double* barrier_s, double* converge_s);

/// Schedules: `count` seeded Poisson arrivals at `rate` of uniform pair
/// requests over the corpus, or of bare-user catalog requests. Every
/// `capture_every`-th request (0 = none) keeps its response for the
/// byte-identity gate.
std::vector<ScheduledRequest> PairSchedule(int64_t count, double rate,
                                           int64_t num_users,
                                           int64_t num_items, uint64_t seed,
                                           int64_t capture_every);
std::vector<ScheduledRequest> CatalogSchedule(int64_t count, double rate,
                                              int64_t num_users,
                                              uint64_t seed,
                                              int64_t capture_every);

/// One pair request per user (with a rotating item), then one per item, at
/// 1500/s: a warm-up pass that leaves every tower profile cached.
std::vector<ScheduledRequest> WarmSchedule(int64_t users, int64_t items);

/// Correctness gate: every captured response must be byte-identical to the
/// offline BatchScorer::Score + FormatScoreLine output for the same ids,
/// scored by a trainer loaded from `prefix`. Returns the number checked.
int64_t CheckCapturedAgainstOffline(const RunContext& ctx,
                                    const rrre::core::RrreConfig& config,
                                    const std::string& prefix,
                                    const std::vector<ScheduledRequest>& reqs,
                                    const ClientResult& result,
                                    const std::string& what);

/// Counts one measured open-loop phase into the report: every request is
/// attempted; refused, failed, torn and unanswered ones are failed.
void CountPhase(const RunContext& ctx, const ClientResult& result,
                const std::string& what);

/// Highest sustainable rate: climbs `rates` (ascending) while 99% of each
/// rung's requests are answered within `p99_limit_us` (failed requests
/// miss) and the generator keeps its schedule — a rung must miss twice to
/// end the climb — then bisects three times between the last rung that met
/// the limit and the first that missed.
/// Returns the answered rate of the best rung (0 when none met the limit)
/// and the number of rungs run.
struct LadderResult {
  double max_per_s = 0.0;
  int64_t rungs = 0;
};
using ScheduleFn =
    std::function<std::vector<ScheduledRequest>(double rate, uint64_t seed)>;
LadderResult ClimbRateLadder(const RunContext& ctx, uint16_t port,
                             int connections, const std::vector<double>& rates,
                             const ScheduleFn& schedule, double p99_limit_us);

/// Generator lateness above which a phase does not count as open-loop.
inline constexpr double kMaxLatenessP99Us = 10000.0;

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
