#ifndef RRRE_CORE_REVIEW_ENCODER_H_
#define RRRE_CORE_REVIEW_ENCODER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/embedding.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "text/vocab.h"

namespace rrre::core {

/// Review content embedding (Sec. III-C): word vectors -> BiLSTM ->
/// rev = [h_fwd ; h_bwd]. Operates on pre-tokenized, padded token-id rows
/// cached by the trainer; slot -1 denotes a zero-padded (absent) review.
class ReviewEncoder : public nn::Module {
 public:
  /// `word_embedding` is shared (owned by the model) so UserNet and ItemNet
  /// read the same pretrained vectors.
  ReviewEncoder(nn::Embedding* word_embedding, int64_t max_tokens,
                int64_t rev_dim, common::Rng& rng);

  /// Encodes reviews given a token matrix accessor: token_ids has one row of
  /// exactly max_tokens ids per requested slot (pad-token rows for absent
  /// reviews). Returns [slots, rev_dim].
  tensor::Tensor Encode(const std::vector<int64_t>& token_ids,
                        int64_t num_slots) const;

  int64_t max_tokens() const { return max_tokens_; }
  int64_t rev_dim() const { return encoder_.output_size(); }
  const nn::BiLstmEncoder& bilstm() const { return encoder_; }

 private:
  nn::Embedding* word_embedding_;  // Not owned.
  int64_t max_tokens_;
  nn::BiLstmEncoder encoder_;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_REVIEW_ENCODER_H_
