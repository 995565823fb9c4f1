#ifndef RRRE_NN_LSTM_H_
#define RRRE_NN_LSTM_H_

#include <cstdint>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace rrre::nn {

/// Single LSTM cell (gate order i, f, g, o). Forget-gate bias is initialized
/// to 1 so early training does not forget aggressively.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  struct State {
    tensor::Tensor h;  // [batch, hidden]
    tensor::Tensor c;  // [batch, hidden]
  };

  /// Zero state for a batch.
  State InitialState(int64_t batch) const;

  /// One timestep: x [batch, input] + state -> next state, as the unfused
  /// per-op chain. Training runs Sequence; a chain of Steps is the oracle
  /// the tests hold Sequence to, bit for bit.
  State Step(const tensor::Tensor& x, const State& state) const;

  /// The whole Step chain from the zero state as one tensor::LstmSequence
  /// node: x is time-major [T*S, input], walked in ascending t (descending
  /// when `reverse`). Returns the final hidden state [S, hidden].
  tensor::Tensor Sequence(const tensor::Tensor& x, int64_t num_steps,
                          bool reverse) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  tensor::Tensor w_ih_;  // [input, 4*hidden]
  tensor::Tensor w_hh_;  // [hidden, 4*hidden]
  tensor::Tensor bias_;  // [4*hidden]
};

/// Bidirectional LSTM encoder producing a fixed-size summary of a sequence:
/// the concatenation [h_fwd_T ; h_bwd_T] of both directions' final hidden
/// states, matching Eq. (4) of the paper (rev = LSTM+ concat LSTM-).
class BiLstmEncoder : public Module {
 public:
  /// output dim = 2 * hidden_size.
  BiLstmEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  /// x is time-major [T*batch, input]: rows [t*batch, (t+1)*batch) are the
  /// inputs at time t. Returns [batch, 2*hidden]. Each direction is one
  /// LstmSequence node, bitwise identical to a chain of its cell's Steps
  /// over the row slices of x (tests/test_kernels.cc, ReviewEncoderBitwise).
  tensor::Tensor Encode(const tensor::Tensor& x, int64_t num_steps) const;

  int64_t output_size() const { return 2 * forward_.hidden_size(); }
  const LstmCell& forward_cell() const { return forward_; }
  const LstmCell& backward_cell() const { return backward_; }

 private:
  LstmCell forward_;
  LstmCell backward_;
};

}  // namespace rrre::nn

#endif  // RRRE_NN_LSTM_H_
