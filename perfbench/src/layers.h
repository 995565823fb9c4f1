#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "fixture.h"
#include "tensor/tape.h"

namespace perfbench {

// Per-layer probes of the traced run. Each times calls into one module's
// public functions from the outside; nothing inside src/ is instrumented.
// A probe only sets metrics the workload has not already measured in its
// own phase, so a workload's native figure (e.g. the batcher on the
// serve_pairs schedule) always wins over the probe's default-sized one.

/// Model-independent layers: GEMM at the model's shapes, the line
/// protocol, an empty ParallelFor.
void ProbeSharedLayers(const RunContext& ctx);

/// tensor / nn / text / core layers on `model`: a replica training step
/// built from the same public calls the trainer's epoch loop makes, the
/// towers and heads, the scorer, the tower store, save/load/evaluate.
void ProbeModelLayers(const RunContext& ctx, ModelUnderTest& model);

/// serve.batcher / serve.server / obs on `model`: the MicroBatcher driven
/// in-process on a pair schedule, a socket server with metrics on and off
/// on the same schedule. `rate` 0 picks the probe's default schedule.
void ProbeServing(const RunContext& ctx, const ModelUnderTest& model,
                  double rate, int64_t count);

/// serve.router on `model`: catalog requests through a 2-shard routed
/// fleet and the same schedule direct to one store-backed shard.
/// `rate` 0 picks the probe's default schedule.
void ProbeRouting(const RunContext& ctx, const ModelUnderTest& model,
                  double rate, int64_t count);

/// stream / reload layers on `model`: one warm-start generation on
/// `train` published by hand and rolled through a routed fleet, plus an
/// in-process MicroBatcher reload. Trains `model.trainer` further, so it
/// runs last.
void ProbeReload(const RunContext& ctx, ModelUnderTest& model,
                 const rrre::data::ReviewDataset& train);

/// serve.batcher.reload_s: a MicroBatcher serving generation
/// `from_generation` of the publish layout at `root` swaps, via
/// RequestReload, to the generation `current` points at.
void ProbeBatcherReload(const RunContext& ctx,
                        const rrre::core::RrreConfig& config,
                        const std::string& root, int64_t from_generation);

/// Publishes `trainer` as generation `generation` under `root` with the
/// public calls StreamDriver::Step makes — Save, BuildTowerStore,
/// WriteManifest (the commit point), UpdateCurrentLink — and returns the
/// manifest's params fingerprint.
uint64_t PublishGeneration(const RunContext& ctx,
                           rrre::core::RrreTrainer& trainer,
                           const std::string& root, int64_t generation,
                           int tier);

/// What a cold Fit does before its first epoch — tokenize, build the
/// vocabulary, pretrain word vectors — timed as text.vocab / text.pretrain.
void PretrainText(const RunContext& ctx, const rrre::core::RrreConfig& config,
                  const rrre::data::ReviewDataset& train);

/// Per-epoch differences of the last two TapeStats snapshots.
void ReportTapeEpoch(const RunContext& ctx,
                     const std::vector<rrre::tensor::BatchTape::Stats>& snaps);

/// Shard wall times of the last epoch record of a trainer telemetry file.
void ReportShardWalls(const RunContext& ctx, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
