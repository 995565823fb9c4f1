#include "text/word2vec.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace rrre::text {

using common::Rng;
using tensor::kernels::StableSigmoid;
using tensor::Tensor;

SkipGramTrainer::SkipGramTrainer(SkipGramConfig config, int64_t vocab_size)
    : config_(config), vocab_size_(vocab_size) {
  RRRE_CHECK_GT(vocab_size_, Vocabulary::kUnkId);
  RRRE_CHECK_GT(config_.dim, 0);
  RRRE_CHECK_GT(config_.window, 0);
  RRRE_CHECK_GE(config_.negatives, 1);
}

namespace {

/// Unigram^0.75 negative-sampling table (word2vec convention).
std::vector<int64_t> BuildNegativeTable(
    const std::vector<std::vector<int64_t>>& docs, int64_t vocab_size,
    size_t table_size = 1 << 16) {
  std::vector<double> counts(static_cast<size_t>(vocab_size), 0.0);
  for (const auto& doc : docs) {
    for (int64_t id : doc) {
      if (id > Vocabulary::kUnkId) counts[static_cast<size_t>(id)] += 1.0;
    }
  }
  double total = 0.0;
  for (double& c : counts) {
    c = std::pow(c, 0.75);
    total += c;
  }
  std::vector<int64_t> table;
  table.reserve(table_size);
  if (total <= 0.0) {
    // Degenerate corpus: sample uniformly over real words.
    for (size_t i = 0; i < table_size; ++i) {
      table.push_back(
          Vocabulary::kUnkId + 1 +
          static_cast<int64_t>(i % std::max<int64_t>(
                                       1, vocab_size - Vocabulary::kUnkId - 1)));
    }
    return table;
  }
  double cum = 0.0;
  size_t word = 0;
  while (word < counts.size() && counts[word] == 0.0) ++word;
  cum = counts[word] / total;
  for (size_t i = 0; i < table_size; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(table_size);
    while (frac > cum && word + 1 < counts.size()) {
      ++word;
      cum += counts[word] / total;
    }
    table.push_back(static_cast<int64_t>(word));
  }
  return table;
}

}  // namespace

Tensor SkipGramTrainer::Train(const std::vector<std::vector<int64_t>>& docs,
                              Rng& rng) const {
  const int64_t v = vocab_size_;
  const int64_t d = config_.dim;
  // Input (center) and output (context) vector tables, flat row-major.
  std::vector<float> in(static_cast<size_t>(v * d));
  std::vector<float> out(static_cast<size_t>(v * d), 0.0f);
  const float init_bound = 0.5f / static_cast<float>(d);
  for (float& x : in) {
    x = static_cast<float>(rng.Uniform(-init_bound, init_bound));
  }

  const std::vector<int64_t> neg_table = BuildNegativeTable(docs, v);

  // Token frequencies for optional subsampling.
  std::vector<double> freq(static_cast<size_t>(v), 0.0);
  double total_tokens = 0.0;
  for (const auto& doc : docs) {
    for (int64_t id : doc) {
      freq[static_cast<size_t>(id)] += 1.0;
      total_tokens += 1.0;
    }
  }

  std::vector<float> grad_center(static_cast<size_t>(d));
  const int64_t total_steps = std::max<int64_t>(
      1, config_.epochs * static_cast<int64_t>(total_tokens));
  int64_t step = 0;

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& doc : docs) {
      // Materialize the sentence after subsampling and <pad>/<unk> removal.
      std::vector<int64_t> sent;
      sent.reserve(doc.size());
      for (int64_t id : doc) {
        if (id <= Vocabulary::kUnkId) continue;
        if (config_.subsample > 0.0 && total_tokens > 0.0) {
          const double f = freq[static_cast<size_t>(id)] / total_tokens;
          const double keep =
              std::sqrt(config_.subsample / std::max(f, 1e-12)) +
              config_.subsample / std::max(f, 1e-12);
          if (rng.Uniform() > keep) continue;
        }
        sent.push_back(id);
      }
      for (size_t pos = 0; pos < sent.size(); ++pos) {
        const double progress =
            static_cast<double>(step++) / static_cast<double>(total_steps);
        const float lr = static_cast<float>(
            std::max(config_.min_lr, config_.lr * (1.0 - progress)));
        const int64_t center = sent[pos];
        const int64_t b =
            1 + static_cast<int64_t>(rng.UniformInt(
                    static_cast<uint64_t>(config_.window)));
        const size_t lo = pos >= static_cast<size_t>(b) ? pos - b : 0;
        const size_t hi = std::min(sent.size(), pos + static_cast<size_t>(b) + 1);
        for (size_t cpos = lo; cpos < hi; ++cpos) {
          if (cpos == pos) continue;
          const int64_t context = sent[cpos];
          float* vin = in.data() + center * d;
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          // One positive + `negatives` negative targets.
          for (int64_t s = 0; s <= config_.negatives; ++s) {
            int64_t target;
            float label;
            if (s == 0) {
              target = context;
              label = 1.0f;
            } else {
              target = neg_table[rng.UniformInt(
                  static_cast<uint64_t>(neg_table.size()))];
              if (target == context) continue;
              label = 0.0f;
            }
            float* vout = out.data() + target * d;
            float dot = 0.0f;
            for (int64_t i = 0; i < d; ++i) dot += vin[i] * vout[i];
            const float g = lr * (label - StableSigmoid(dot));
            for (int64_t i = 0; i < d; ++i) {
              grad_center[static_cast<size_t>(i)] += g * vout[i];
              vout[i] += g * vin[i];
            }
          }
          for (int64_t i = 0; i < d; ++i) {
            vin[i] += grad_center[static_cast<size_t>(i)];
          }
        }
      }
    }
  }

  // <pad> row pinned to zero.
  std::fill(in.begin() + Vocabulary::kPadId * d,
            in.begin() + (Vocabulary::kPadId + 1) * d, 0.0f);
  return Tensor::FromVector({v, d}, std::move(in));
}

double CosineSimilarity(const Tensor& table, int64_t a, int64_t b) {
  RRRE_CHECK_EQ(table.ndim(), 2);
  const int64_t d = table.dim(1);
  const float* pa = table.data() + a * d;
  const float* pb = table.data() + b * d;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (int64_t i = 0; i < d; ++i) {
    dot += static_cast<double>(pa[i]) * pb[i];
    na += static_cast<double>(pa[i]) * pa[i];
    nb += static_cast<double>(pb[i]) * pb[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace rrre::text
