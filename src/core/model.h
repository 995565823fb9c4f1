#ifndef RRRE_CORE_MODEL_H_
#define RRRE_CORE_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/review_encoder.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/fm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace rrre::core {

/// The RRRE network (Fig. 1): two parallel review towers (UserNet, ItemNet)
/// that turn a user's and an item's review histories into a profile pair
/// (x_u, y_i), plus two prediction heads — a softmax reliability head
/// (Eq. 9-10) and an FM rating head over ID-augmented profiles (Eq. 12).
class RrreModel : public nn::Module {
 public:
  RrreModel(const RrreConfig& config, int64_t num_users, int64_t num_items,
            int64_t vocab_size, common::Rng& rng);

  /// Flattened mini-batch inputs prepared by FeatureBuilder. Histories are
  /// laid out with each example's slots contiguous; absent slots carry
  /// pad-token rows and a kMaskedScore mask entry.
  struct Batch {
    int64_t batch_size = 0;
    std::vector<int64_t> users;  ///< [B] target user ids.
    std::vector<int64_t> items;  ///< [B] target item ids.

    // UserNet inputs: B*s_u slots.
    std::vector<int64_t> user_hist_tokens;  ///< [B*s_u*T] token ids.
    std::vector<int64_t> user_hist_users;   ///< [B*s_u] writer id per slot.
    std::vector<int64_t> user_hist_items;   ///< [B*s_u] item id per slot.
    std::vector<float> user_hist_mask;      ///< [B*s_u] 0 or kMaskedScore.

    // ItemNet inputs: B*s_i slots.
    std::vector<int64_t> item_hist_tokens;
    std::vector<int64_t> item_hist_users;
    std::vector<int64_t> item_hist_items;
    std::vector<float> item_hist_mask;
  };

  struct Output {
    tensor::Tensor rating;              ///< [B, 1] predicted r_ui.
    tensor::Tensor reliability_logits;  ///< [B, 2]: column 0 fake, 1 benign.
    tensor::Tensor reliability;         ///< [B, 2] softmax; l_ui = col 1.
    tensor::Tensor x_u;                 ///< [B, k] user profiles.
    tensor::Tensor y_i;                 ///< [B, k] item profiles.
    tensor::Tensor user_alphas;         ///< [B, s_u] attention weights.
    tensor::Tensor item_alphas;         ///< [B, s_i] attention weights.
  };

  /// Runs the network. `rng` is only consulted when training && dropout > 0.
  Output Forward(const Batch& batch, bool training, common::Rng* rng) const;

  // -- Split forward (tower caching) ------------------------------------------
  // x_u depends only on the user's history and y_i only on the item's
  // (masked padding slots make the profiles independent of the paired
  // counterpart), so towers can be computed once per user/item and reused
  // across pairs — the fast path for full-catalog scoring.

  /// UserNet only: profiles [B, k] from the batch's user-history fields.
  tensor::Tensor ComputeUserProfiles(const Batch& batch) const;
  /// ItemNet only: profiles [B, k] from the batch's item-history fields.
  tensor::Tensor ComputeItemProfiles(const Batch& batch) const;
  /// Heads only: predictions from precomputed profiles x_u, y_i ([B, k]
  /// each) and the target ids. Equivalent to Forward at inference.
  Output ForwardFromProfiles(const tensor::Tensor& x_u,
                             const tensor::Tensor& y_i,
                             const std::vector<int64_t>& users,
                             const std::vector<int64_t>& items) const;

  const RrreConfig& config() const { return config_; }
  nn::Embedding& word_embedding() { return word_embedding_; }
  const nn::Embedding& word_embedding() const { return word_embedding_; }

 private:
  /// One tower (UserNet or ItemNet): encode slots, attend, pool, project.
  struct TowerOutput {
    tensor::Tensor profile;  ///< [B, k]
    tensor::Tensor alphas;   ///< [B, s]
  };
  TowerOutput RunTower(const ReviewEncoder& encoder,
                       const nn::FraudAttention& attention,
                       const nn::Linear& projection,
                       const std::vector<int64_t>& tokens,
                       const std::vector<int64_t>& writer_ids,
                       const std::vector<int64_t>& item_ids,
                       const std::vector<float>& mask, int64_t group_size,
                       int64_t batch_size) const;

  RrreConfig config_;
  nn::Embedding word_embedding_;  ///< Shared pretrained word vectors.
  nn::Embedding user_id_embedding_;
  nn::Embedding item_id_embedding_;
  ReviewEncoder user_encoder_;
  ReviewEncoder item_encoder_;
  nn::FraudAttention user_attention_;
  nn::FraudAttention item_attention_;
  nn::Linear user_projection_;  ///< W_f, b_f of Eq. 8.
  nn::Linear item_projection_;
  nn::Linear reliability_head_;  ///< W, b of Eq. 9.
  nn::Linear rating_user_map_;   ///< W_h of Eq. 12 (no bias).
  nn::Linear rating_item_map_;   ///< W_e of Eq. 12 (no bias).
  nn::FactorizationMachine fm_;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_MODEL_H_
