#include "bench/harness.h"

#include <cstdio>

#include "baselines/deepconn.h"
#include "baselines/der.h"
#include "baselines/icwsm13.h"
#include "baselines/narre.h"
#include "baselines/pmf.h"
#include "baselines/rev2.h"
#include "baselines/rrre_adapter.h"
#include "baselines/speagle.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "data/profiles.h"
#include "data/synthetic.h"

namespace rrre::bench {

using common::Rng;

DatasetBundle MakeDataset(const std::string& profile, double scale,
                          uint64_t seed) {
  auto profile_or = data::ProfileByName(profile, scale);
  RRRE_CHECK_OK(profile_or.status());
  Rng rng(seed ^ 0x5eedf00dULL);
  data::ReviewDataset full =
      data::GenerateSyntheticDataset(profile_or.value(), rng);
  auto [train, test] = full.Split(0.7, rng);
  return DatasetBundle{profile, std::move(full), std::move(train),
                       std::move(test)};
}

std::vector<double> TargetsOf(const data::ReviewDataset& ds) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(ds.size()));
  for (const auto& r : ds.reviews()) out.push_back(r.rating);
  return out;
}

std::vector<int> LabelsOf(const data::ReviewDataset& ds) {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(ds.size()));
  for (const auto& r : ds.reviews()) out.push_back(r.is_benign() ? 1 : 0);
  return out;
}

void RegisterBenchFlags(common::FlagParser& flags, double default_scale) {
  flags.AddDouble("scale", default_scale, "dataset size multiplier");
  flags.AddInt("epochs", 8, "neural training epochs");
  flags.AddInt("seeds", 1, "repetitions averaged (paper uses 5)");
  flags.AddInt("seed", 42, "base random seed");
  flags.AddBool("ablate-attention", false,
                "replace fraud-attention with mean pooling");
  flags.AddBool("random-sampling", false,
                "random instead of time-based history sampling");
  flags.AddDouble("lambda", 0.5, "RRRE loss mixing weight (Eq. 15)");
  flags.AddInt("num_threads", 0,
               "thread pool size (0 = hardware concurrency, 1 = serial)");
  flags.AddInt("shard_size", 8,
               "examples per data-parallel shard; at least 1 (a value at "
               "least the batch size trains the whole batch as one shard)");
}

BenchOptions ReadBenchOptions(const common::FlagParser& flags) {
  BenchOptions opts;
  opts.scale = flags.GetDouble("scale");
  opts.epochs = flags.GetInt("epochs");
  opts.seeds = flags.GetInt("seeds");
  opts.base_seed = static_cast<uint64_t>(flags.GetInt("seed"));
  opts.ablate_attention = flags.GetBool("ablate-attention");
  opts.random_sampling = flags.GetBool("random-sampling");
  opts.lambda = flags.GetDouble("lambda");
  opts.num_threads = flags.GetInt("num_threads");
  opts.shard_size = flags.GetInt("shard_size");
  // Apply immediately so every subsequent kernel/trainer call uses it; the
  // pool size is reported so speedup numbers are attributable.
  common::ThreadPool::SetGlobalSize(static_cast<int>(opts.num_threads));
  std::printf("threads: %d (requested %lld), shard_size: %lld\n",
              common::ThreadPool::GlobalSize(),
              static_cast<long long>(opts.num_threads),
              static_cast<long long>(opts.shard_size));
  return opts;
}

core::RrreConfig DefaultRrreConfig(const BenchOptions& opts, uint64_t seed) {
  core::RrreConfig c;
  c.word_dim = 16;
  c.rev_dim = 32;
  c.id_dim = 16;
  c.attention_dim = 16;
  c.fm_factors = 8;
  c.max_tokens = 16;
  c.s_u = 5;
  c.s_i = 7;
  c.epochs = opts.epochs;
  c.seed = seed;
  c.lambda = opts.lambda;
  c.use_attention = !opts.ablate_attention;
  c.sampling = opts.random_sampling ? data::SamplingStrategy::kRandom
                                    : data::SamplingStrategy::kLatest;
  c.shard_size = opts.shard_size;
  return c;
}

std::unique_ptr<baselines::RatingPredictor> MakeRatingModel(
    const std::string& name, const BenchOptions& opts, uint64_t seed) {
  if (name == "rrre" || name == "rrre-") {
    core::RrreConfig c = DefaultRrreConfig(opts, seed);
    c.biased_loss = (name == "rrre");
    return std::make_unique<baselines::RrreAdapter>(c);
  }
  if (name == "pmf") {
    baselines::Pmf::Config c;
    c.seed = seed;
    return std::make_unique<baselines::Pmf>(c);
  }
  if (name == "deepconn") {
    baselines::DeepCoNN::Config c;
    c.common.epochs = opts.epochs;
    c.common.seed = seed;
    c.common.shard_size = opts.shard_size;
    return std::make_unique<baselines::DeepCoNN>(c);
  }
  if (name == "narre") {
    baselines::Narre::Config c;
    c.common.epochs = opts.epochs;
    c.common.seed = seed;
    c.common.shard_size = opts.shard_size;
    return std::make_unique<baselines::Narre>(c);
  }
  if (name == "der") {
    baselines::Der::Config c;
    c.common.epochs = opts.epochs;
    c.common.seed = seed;
    c.common.shard_size = opts.shard_size;
    return std::make_unique<baselines::Der>(c);
  }
  RRRE_LOG_FATAL << "unknown rating model: " << name;
  return nullptr;
}

std::unique_ptr<baselines::ReliabilityPredictor> MakeReliabilityModel(
    const std::string& name, const BenchOptions& opts, uint64_t seed) {
  if (name == "rrre") {
    return std::make_unique<baselines::RrreAdapter>(
        DefaultRrreConfig(opts, seed));
  }
  if (name == "icwsm13") {
    baselines::Icwsm13::Config c;
    c.logreg.seed = seed;
    return std::make_unique<baselines::Icwsm13>(c);
  }
  if (name == "speagle+") {
    baselines::SpEaglePlus::Config c;
    c.prior_model.seed = seed;
    return std::make_unique<baselines::SpEaglePlus>(c);
  }
  if (name == "rev2") {
    return std::make_unique<baselines::Rev2>();
  }
  RRRE_LOG_FATAL << "unknown reliability model: " << name;
  return nullptr;
}

const std::vector<std::string>& RatingModelNames() {
  static const auto* names = new std::vector<std::string>{
      "rrre", "pmf", "deepconn", "narre", "der", "rrre-"};
  return *names;
}

const std::vector<std::string>& ReliabilityModelNames() {
  static const auto* names =
      new std::vector<std::string>{"icwsm13", "speagle+", "rev2", "rrre"};
  return *names;
}

const std::vector<std::string>& DatasetNames() {
  static const auto* names = new std::vector<std::string>{
      "yelpchi", "yelpnyc", "yelpzip", "musics", "cds"};
  return *names;
}

void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              int label_width, int cell_width) {
  std::printf("%-*s", label_width, label.c_str());
  for (const auto& cell : cells) {
    std::printf("%*s", cell_width, cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace rrre::bench
