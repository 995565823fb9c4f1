#include "nn/optimizer.h"

#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

namespace {

/// A gradient buffer is live only when backward actually allocated it this
/// step; otherwise the parameter did not participate in the loss.
bool HasLiveGrad(const Tensor& t) {
  return t.impl()->grad.size() == t.impl()->data.size();
}

}  // namespace

Adam::Adam(std::vector<Tensor> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  std::unordered_set<const void*> seen;
  for (const Tensor& p : params_) {
    RRRE_CHECK(p.defined());
    RRRE_CHECK(p.requires_grad());
    // Step updates the parameters concurrently.
    RRRE_CHECK(seen.insert(p.impl().get()).second) << "parameter listed twice";
  }
}

void Adam::Step() {
  ++t_;
  const tensor::kernels::AdamScalars scalars{
      .lr = lr_,
      .beta1 = kBeta1,
      .beta2 = kBeta2,
      .eps = kEps,
      .bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_)),
      .bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_))};
  // Slots are created serially; the update then runs over element ranges.
  struct Live {
    float* data;
    const float* grad;
    Slot* slot;
  };
  std::vector<Live> live;
  std::vector<int64_t> sizes;
  for (Tensor& p : params_) {
    if (!HasLiveGrad(p)) continue;
    const size_t n = p.impl()->grad.size();
    Slot& slot = slots_[p.impl().get()];
    if (slot.m.size() != n) {
      slot.m.assign(n, 0.0f);
      slot.v.assign(n, 0.0f);
    }
    live.push_back({p.data(), p.impl()->grad.data(), &slot});
    sizes.push_back(static_cast<int64_t>(n));
  }
  common::ParallelForRanges(
      sizes, tensor::kElemGrain, [&](int64_t k, int64_t lo, int64_t hi) {
        const Live& l = live[static_cast<size_t>(k)];
        tensor::kernels::AdamUpdate(hi - lo, scalars, l.grad + lo,
                                    l.data + lo, l.slot->m.data() + lo,
                                    l.slot->v.data() + lo);
      });
}

std::map<std::string, Tensor> Adam::StateTensors() const {
  std::map<std::string, Tensor> state;
  // Two f32 words hold the step count exactly for t < 2^48 (a float is
  // integer-exact up to 2^24).
  const auto lo = static_cast<float>(t_ & ((int64_t{1} << 24) - 1));
  const auto hi = static_cast<float>(t_ >> 24);
  state.emplace("adam.t", Tensor::FromVector({2}, {lo, hi}));
  for (size_t i = 0; i < params_.size(); ++i) {
    const auto it = slots_.find(params_[i].impl().get());
    if (it == slots_.end()) continue;
    const std::string key = "adam." + std::to_string(i);
    const auto n = static_cast<int64_t>(it->second.m.size());
    state.emplace(key + ".m", Tensor::FromVector({n}, it->second.m));
    state.emplace(key + ".v", Tensor::FromVector({n}, it->second.v));
  }
  return state;
}

common::Status Adam::LoadStateTensors(
    const std::map<std::string, Tensor>& state) {
  const auto t_it = state.find("adam.t");
  if (t_it == state.end() || t_it->second.numel() != 2) {
    return common::Status::InvalidArgument(
        "optimizer state is missing a valid adam.t entry");
  }
  // Validate everything before mutating so a bad checkpoint cannot leave the
  // optimizer half-restored.
  std::unordered_map<const void*, Slot> slots;
  for (const auto& [name, t] : state) {
    if (name == "adam.t") continue;
    if (name.rfind("adam.", 0) != 0) {
      return common::Status::InvalidArgument("unknown optimizer state key: " +
                                             name);
    }
    const std::string body = name.substr(5);  // "<i>.m" or "<i>.v"
    const size_t dot = body.find('.');
    if (dot == std::string::npos ||
        (body.substr(dot + 1) != "m" && body.substr(dot + 1) != "v")) {
      return common::Status::InvalidArgument("unknown optimizer state key: " +
                                             name);
    }
    size_t index = 0;
    try {
      index = std::stoul(body.substr(0, dot));
    } catch (...) {
      return common::Status::InvalidArgument("unknown optimizer state key: " +
                                             name);
    }
    if (index >= params_.size()) {
      return common::Status::InvalidArgument(
          "optimizer state key " + name + " exceeds the parameter count (" +
          std::to_string(params_.size()) + ")");
    }
    const Tensor& param = params_[index];
    if (t.numel() != param.numel()) {
      return common::Status::InvalidArgument(
          "optimizer state size mismatch for " + name + ": " +
          std::to_string(t.numel()) + " vs parameter " +
          std::to_string(param.numel()));
    }
    Slot& slot = slots[param.impl().get()];
    auto& dst = body.substr(dot + 1) == "m" ? slot.m : slot.v;
    if (!dst.empty()) {
      return common::Status::InvalidArgument("duplicate optimizer state key: " +
                                             name);
    }
    dst = t.ToVector();
  }
  for (const auto& [impl, slot] : slots) {
    (void)impl;
    if (slot.m.size() != slot.v.size()) {
      return common::Status::InvalidArgument(
          "optimizer state has an unpaired adam.<i>.m / adam.<i>.v entry");
    }
  }
  const auto lo = static_cast<int64_t>(t_it->second.at(0));
  const auto hi = static_cast<int64_t>(t_it->second.at(1));
  if (lo < 0 || hi < 0 || lo >= (int64_t{1} << 24)) {
    return common::Status::InvalidArgument(
        "optimizer state has an invalid step count");
  }
  t_ = (hi << 24) | lo;
  slots_ = std::move(slots);
  return common::Status::Ok();
}

double GlobalGradNorm(const std::vector<Tensor>& params) {
  double total = 0.0;
  for (const Tensor& p : params) {
    if (!HasLiveGrad(p)) continue;
    for (float g : p.impl()->grad) total += static_cast<double>(g) * g;
  }
  return std::sqrt(total);
}

double ClipGradNorm(std::vector<Tensor>& params, double max_norm) {
  RRRE_CHECK_GT(max_norm, 0.0);
  // Both passes stay serial. The norm's double sum runs in parameter order,
  // and that order is its bits. The scale pass costs less than waking the
  // pool: on a 4-core x86-64 VM, perfbench's traced train workload read
  // nn.clip_us 64.5 us with it over element ranges and 48.5 us serial.
  const double norm = GlobalGradNorm(params);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Tensor& p : params) {
      if (!HasLiveGrad(p)) continue;
      for (float& g : p.impl()->grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace rrre::nn
