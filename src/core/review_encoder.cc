#include "core/review_encoder.h"

#include "common/logging.h"

namespace rrre::core {

using tensor::Tensor;

ReviewEncoder::ReviewEncoder(nn::Embedding* word_embedding,
                             int64_t max_tokens, int64_t rev_dim,
                             common::Rng& rng)
    : word_embedding_(word_embedding),
      max_tokens_(max_tokens),
      encoder_(word_embedding->dim(), rev_dim / 2, rng) {
  RRRE_CHECK(word_embedding != nullptr);
  RRRE_CHECK_EQ(rev_dim % 2, 0) << "rev_dim must be even (BiLSTM concat)";
  RRRE_CHECK_GT(max_tokens, 0);
  RegisterModule("bilstm", &encoder_);
  // word_embedding is registered by the owning model, not here, to avoid
  // duplicating its parameters across UserNet and ItemNet.
}

Tensor ReviewEncoder::Encode(const std::vector<int64_t>& token_ids,
                             int64_t num_slots) const {
  RRRE_CHECK_EQ(static_cast<int64_t>(token_ids.size()),
                num_slots * max_tokens_);
  // One embedding lookup for every token, time-major: row t*num_slots + s is
  // token t of slot s, so step t is a contiguous row block.
  std::vector<int64_t> ids(token_ids.size());
  for (int64_t t = 0; t < max_tokens_; ++t) {
    for (int64_t s = 0; s < num_slots; ++s) {
      ids[static_cast<size_t>(t * num_slots + s)] =
          token_ids[static_cast<size_t>(s * max_tokens_ + t)];
    }
  }
  return encoder_.Encode(word_embedding_->Forward(ids), max_tokens_);
}

}  // namespace rrre::core
