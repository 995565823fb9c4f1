#include "tensor/grad_sink.h"

#include "common/threadpool.h"
#include "tensor/ops.h"

namespace rrre::tensor {

using internal::TensorImpl;

namespace {

thread_local GradSink* tls_active_sink = nullptr;

}  // namespace

GradSink::GradSink(const std::vector<Tensor>& leaves) {
  leaves_.reserve(leaves.size());
  index_.reserve(leaves.size());
  for (const Tensor& leaf : leaves) {
    RRRE_CHECK(leaf.defined());
    // Only the impl pointers are stored; no buffer is allocated until a
    // backward pass touches the leaf.
    if (index_.emplace(leaf.impl().get(), leaves_.size()).second) {
      leaves_.push_back(leaf);
    }
  }
  buffers_.resize(leaves_.size());
}

GradSink::Scope::Scope(GradSink* sink) : previous_(tls_active_sink) {
  tls_active_sink = sink;
}

GradSink::Scope::~Scope() { tls_active_sink = previous_; }

float* GradSink::ActiveFind(TensorImpl* node) {
  GradSink* sink = tls_active_sink;
  if (sink == nullptr) return nullptr;
  auto it = sink->index_.find(node);
  if (it == sink->index_.end()) return nullptr;
  std::vector<float>& buf = sink->buffers_[it->second];
  if (buf.size() != node->data.size()) buf.assign(node->data.size(), 0.0f);
  return buf.data();
}

bool GradSink::ActiveCovers(const TensorImpl* node) {
  GradSink* sink = tls_active_sink;
  if (sink == nullptr) return false;
  return sink->index_.count(node) > 0;
}

void GradSink::AccumulateInto(const std::vector<GradSink*>& sinks) {
  if (sinks.empty()) return;
  const std::vector<Tensor>& leaves = sinks[0]->leaves_;
  for (const GradSink* sink : sinks) {
    RRRE_CHECK_EQ(sink->leaves_.size(), leaves.size());
  }
  // Resolve every destination and its touched buffers serially, so the
  // fan-out below only adds.
  struct Target {
    float* dst;
    size_t first_src;  ///< Its buffers are srcs[first_src, end_src).
    size_t end_src;
  };
  std::vector<Target> targets;
  std::vector<int64_t> sizes;
  std::vector<const float*> srcs;
  for (size_t k = 0; k < leaves.size(); ++k) {
    TensorImpl* impl = leaves[k].impl().get();
    const size_t first = srcs.size();
    for (const GradSink* sink : sinks) {
      RRRE_CHECK(sink->leaves_[k].impl().get() == impl)
          << "sinks built from different leaf lists";
      const std::vector<float>& buf = sink->buffers_[k];
      if (!buf.empty()) srcs.push_back(buf.data());
    }
    if (srcs.size() == first) continue;
    impl->EnsureGrad();
    targets.push_back({impl->grad.data(), first, srcs.size()});
    sizes.push_back(static_cast<int64_t>(impl->data.size()));
  }
  common::ParallelForRanges(sizes, kElemGrain, [&](int64_t t, int64_t lo,
                                                   int64_t hi) {
    const Target& target = targets[static_cast<size_t>(t)];
    for (size_t s = target.first_src; s < target.end_src; ++s) {
      const float* src = srcs[s];
      for (int64_t i = lo; i < hi; ++i) target.dst[i] += src[i];
    }
  });
}

void GradSink::AccumulateInto() { AccumulateInto({this}); }

float* GradBuf(TensorImpl* node) {
  if (!node->requires_grad) return nullptr;
  if (float* redirected = GradSink::ActiveFind(node)) return redirected;
  node->EnsureGrad();
  return node->grad.data();
}

std::vector<Tensor> GradSink::Touched() const {
  std::vector<Tensor> out;
  for (size_t k = 0; k < leaves_.size(); ++k) {
    if (!buffers_[k].empty()) out.push_back(leaves_[k]);
  }
  return out;
}

}  // namespace rrre::tensor
