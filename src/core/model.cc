#include "core/model.h"

#include "common/logging.h"
#include "nn/dropout.h"
#include "tensor/ops.h"

namespace rrre::core {

using tensor::Tensor;

RrreModel::RrreModel(const RrreConfig& config, int64_t num_users,
                     int64_t num_items, int64_t vocab_size, common::Rng& rng)
    : config_(config),
      word_embedding_(vocab_size, config.word_dim, rng, 0.1f),
      user_id_embedding_(num_users, config.id_dim, rng, 0.1f),
      item_id_embedding_(num_items, config.id_dim, rng, 0.1f),
      user_encoder_(&word_embedding_, config.max_tokens, config.rev_dim, rng),
      item_encoder_(&word_embedding_, config.max_tokens, config.rev_dim, rng),
      user_attention_(config.rev_dim, config.id_dim, config.id_dim,
                      config.attention_dim, rng),
      item_attention_(config.rev_dim, config.id_dim, config.id_dim,
                      config.attention_dim, rng),
      user_projection_(config.rev_dim, config.rev_dim, rng),
      item_projection_(config.rev_dim, config.rev_dim, rng),
      reliability_head_(2 * config.rev_dim, 2, rng),
      rating_user_map_(config.rev_dim, config.id_dim, rng, /*use_bias=*/false),
      rating_item_map_(config.rev_dim, config.id_dim, rng, /*use_bias=*/false),
      fm_(2 * config.id_dim, config.fm_factors, rng) {
  RegisterModule("word_embedding", &word_embedding_);
  RegisterModule("user_id_embedding", &user_id_embedding_);
  RegisterModule("item_id_embedding", &item_id_embedding_);
  RegisterModule("user_encoder", &user_encoder_);
  RegisterModule("item_encoder", &item_encoder_);
  RegisterModule("user_attention", &user_attention_);
  RegisterModule("item_attention", &item_attention_);
  RegisterModule("user_projection", &user_projection_);
  RegisterModule("item_projection", &item_projection_);
  RegisterModule("reliability_head", &reliability_head_);
  RegisterModule("rating_user_map", &rating_user_map_);
  RegisterModule("rating_item_map", &rating_item_map_);
  RegisterModule("fm", &fm_);
}

RrreModel::TowerOutput RrreModel::RunTower(
    const ReviewEncoder& encoder, const nn::FraudAttention& attention,
    const nn::Linear& projection, const std::vector<int64_t>& tokens,
    const std::vector<int64_t>& writer_ids,
    const std::vector<int64_t>& item_ids, const std::vector<float>& mask,
    int64_t group_size, int64_t batch_size) const {
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  const int64_t slots = batch_size * group_size;
  RRRE_CHECK_EQ(static_cast<int64_t>(writer_ids.size()), slots);
  RRRE_CHECK_EQ(static_cast<int64_t>(item_ids.size()), slots);
  RRRE_CHECK_EQ(static_cast<int64_t>(mask.size()), slots);

  Tensor rev = encoder.Encode(tokens, slots);  // [slots, k]
  Tensor mask_t = Tensor::FromVector({batch_size, group_size}, mask);

  Tensor alphas;
  if (config_.use_attention) {
    Tensor writer_emb = user_id_embedding_.Forward(writer_ids);
    Tensor item_emb = item_id_embedding_.Forward(item_ids);
    alphas = attention.Forward(rev, writer_emb, item_emb, group_size, mask_t);
  } else {
    // Mean-pooling ablation: uniform weights over unmasked slots.
    alphas = Softmax(mask_t);
  }
  Tensor pooled = WeightedPool(rev, alphas);     // [B, k] (Eq. 7)
  Tensor profile = projection.Forward(pooled);   // [B, k] (Eq. 8)
  return TowerOutput{profile, alphas};
}

RrreModel::Output RrreModel::Forward(const Batch& batch, bool training,
                                     common::Rng* rng) const {
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  const int64_t b = batch.batch_size;
  RRRE_CHECK_GT(b, 0);
  RRRE_CHECK_EQ(static_cast<int64_t>(batch.users.size()), b);
  RRRE_CHECK_EQ(static_cast<int64_t>(batch.items.size()), b);

  TowerOutput user_tower = RunTower(
      user_encoder_, user_attention_, user_projection_,
      batch.user_hist_tokens, batch.user_hist_users, batch.user_hist_items,
      batch.user_hist_mask, config_.s_u, b);
  TowerOutput item_tower = RunTower(
      item_encoder_, item_attention_, item_projection_,
      batch.item_hist_tokens, batch.item_hist_users, batch.item_hist_items,
      batch.item_hist_mask, config_.s_i, b);

  Tensor x_u = user_tower.profile;
  Tensor y_i = item_tower.profile;
  if (training && config_.dropout > 0.0) {
    RRRE_CHECK(rng != nullptr);
    x_u = nn::Dropout(x_u, config_.dropout, *rng, training);
    y_i = nn::Dropout(y_i, config_.dropout, *rng, training);
  }

  Output out = ForwardFromProfiles(x_u, y_i, batch.users, batch.items);
  out.user_alphas = user_tower.alphas;
  out.item_alphas = item_tower.alphas;
  return out;
}

Tensor RrreModel::ComputeUserProfiles(const Batch& batch) const {
  return RunTower(user_encoder_, user_attention_, user_projection_,
                  batch.user_hist_tokens, batch.user_hist_users,
                  batch.user_hist_items, batch.user_hist_mask, config_.s_u,
                  batch.batch_size)
      .profile;
}

Tensor RrreModel::ComputeItemProfiles(const Batch& batch) const {
  return RunTower(item_encoder_, item_attention_, item_projection_,
                  batch.item_hist_tokens, batch.item_hist_users,
                  batch.item_hist_items, batch.item_hist_mask, config_.s_i,
                  batch.batch_size)
      .profile;
}

RrreModel::Output RrreModel::ForwardFromProfiles(
    const Tensor& x_u, const Tensor& y_i, const std::vector<int64_t>& users,
    const std::vector<int64_t>& items) const {
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  RRRE_CHECK_EQ(x_u.dim(0), static_cast<int64_t>(users.size()));
  RRRE_CHECK_EQ(y_i.dim(0), static_cast<int64_t>(items.size()));

  // Reliability head (Eq. 9-10).
  Tensor pair = ConcatCols({x_u, y_i});                       // [B, 2k]
  Tensor logits = reliability_head_.Forward(pair);            // [B, 2]
  Tensor reliability = Softmax(logits);                       // [B, 2]

  // Rating head (Eq. 12): FM([(e_u + W_h x_u); (e_i + W_e y_i)]).
  Tensor e_u = user_id_embedding_.Forward(users);             // [B, id]
  Tensor e_i = item_id_embedding_.Forward(items);             // [B, id]
  Tensor pu = Add(e_u, rating_user_map_.Forward(x_u));
  Tensor qi = Add(e_i, rating_item_map_.Forward(y_i));
  Tensor rating = fm_.Forward(ConcatCols({pu, qi}));          // [B, 1]

  Output out;
  out.rating = rating;
  out.reliability_logits = logits;
  out.reliability = reliability;
  out.x_u = x_u;
  out.y_i = y_i;
  return out;
}

}  // namespace rrre::core
