#ifndef RRRE_BENCH_HARNESS_H_
#define RRRE_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/predictor.h"
#include "common/flags.h"
#include "core/config.h"
#include "data/dataset.h"

namespace rrre::bench {

/// A generated corpus with its 70/30 split, ready for an experiment.
struct DatasetBundle {
  std::string name;
  data::ReviewDataset full;
  data::ReviewDataset train;
  data::ReviewDataset test;
};

/// Generates the named profile at `scale` and splits it (Sec. IV-C: 70%
/// train / 30% test). Deterministic in (profile, scale, seed).
DatasetBundle MakeDataset(const std::string& profile, double scale,
                          uint64_t seed);

/// Ground-truth ratings / reliability labels aligned with ds.reviews().
std::vector<double> TargetsOf(const data::ReviewDataset& ds);
std::vector<int> LabelsOf(const data::ReviewDataset& ds);

/// Shared experiment knobs every bench binary accepts.
struct BenchOptions {
  double scale = 0.25;     ///< Dataset size multiplier.
  int64_t epochs = 5;      ///< Neural training epochs.
  int64_t seeds = 1;       ///< Repetitions averaged (paper: 5).
  uint64_t base_seed = 42;
  bool ablate_attention = false;   ///< Mean pooling instead of attention.
  bool random_sampling = false;    ///< Random instead of time-based history.
  double lambda = 0.5;             ///< RRRE loss mix.
  int64_t num_threads = 0;         ///< Global pool size; 0 = hardware.
  int64_t shard_size = 8;          ///< Data-parallel shard; at least 1.
  bool use_tape = true;            ///< Compiled batch tape + fused kernels.
  bool tape_replay = true;         ///< Replay cached backward schedules.
};

/// Registers --scale/--epochs/--seeds/--seed/--num_threads flags on a parser.
/// `default_scale` lets expensive sweeps (Fig. 4) default smaller.
void RegisterBenchFlags(common::FlagParser& flags, double default_scale = 0.25);
/// Reads the registered flags back.
BenchOptions ReadBenchOptions(const common::FlagParser& flags);

/// The bench-scale RRRE configuration (paper reference settings shrunk for
/// a 1-core box; see EXPERIMENTS.md).
core::RrreConfig DefaultRrreConfig(const BenchOptions& opts, uint64_t seed);

/// Rating-model factory for Table III rows:
/// "rrre", "pmf", "deepconn", "narre", "der", "rrre-".
std::unique_ptr<baselines::RatingPredictor> MakeRatingModel(
    const std::string& name, const BenchOptions& opts, uint64_t seed);
/// Reliability-model factory for Table IV rows:
/// "icwsm13", "speagle+", "rev2", "rrre".
std::unique_ptr<baselines::ReliabilityPredictor> MakeReliabilityModel(
    const std::string& name, const BenchOptions& opts, uint64_t seed);

/// Names in paper order.
const std::vector<std::string>& RatingModelNames();
const std::vector<std::string>& ReliabilityModelNames();
const std::vector<std::string>& DatasetNames();

/// Prints a fixed-width row: first cell `label`, then `cells`.
void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              int label_width = 10, int cell_width = 12);

}  // namespace rrre::bench

#endif  // RRRE_BENCH_HARNESS_H_
