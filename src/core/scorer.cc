#include "core/scorer.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/tensor.h"

namespace rrre::core {

using tensor::Tensor;

BatchScorer::BatchScorer(RrreTrainer* trainer)
    : trainer_(trainer),
      features_(trainer->config(), &trainer->train_data(),
                &trainer->vocab()),
      rng_(trainer->config().seed ^ 0xca11ab1eULL),
      profile_dim_(trainer->config().rev_dim),
      params_version_(trainer->params_version()) {
  RRRE_CHECK(trainer != nullptr);
  RRRE_CHECK(trainer->fitted()) << "fit the trainer before scoring";
}

void BatchScorer::AttachStore(std::shared_ptr<const TowerStore> store) {
  RRRE_CHECK(store != nullptr);
  RRRE_CHECK_EQ(store->dim(), profile_dim_)
      << "store profile dim does not match the model's rev_dim";
  RRRE_CHECK_EQ(store->num_users(), trainer_->train_data().num_users());
  RRRE_CHECK_EQ(store->num_items(), trainer_->train_data().num_items());
  store_ = std::move(store);
}

void BatchScorer::CheckNotStale() const {
  RRRE_CHECK_EQ(trainer_->params_version(), params_version_)
      << "BatchScorer caches are stale: the trainer's parameters changed "
         "since this scorer was created — build a new scorer";
}

void BatchScorer::PrimeUsers(const std::vector<int64_t>& users) {
  PrimeTower(users, /*user_tower=*/true, user_profiles_);
}

void BatchScorer::PrimeItems(const std::vector<int64_t>& items) {
  PrimeTower(items, /*user_tower=*/false, item_profiles_);
}

void BatchScorer::PrimeTower(const std::vector<int64_t>& ids, bool user_tower,
                             ProfileCache& cache) {
  CheckNotStale();
  if (store_ != nullptr) return;  // Every profile is already materialized.
  std::vector<int64_t> missing;
  for (int64_t id : ids) {
    if (cache.count(id) == 0) missing.push_back(id);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  const int64_t chunk_size = trainer_->config().batch_size;
  for (size_t start = 0; start < missing.size();
       start += static_cast<size_t>(chunk_size)) {
    const size_t end =
        std::min(missing.size(), start + static_cast<size_t>(chunk_size));
    // The other side's id is inert: UserNet reads only the user's history,
    // ItemNet only the item's.
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (size_t i = start; i < end; ++i) {
      pairs.push_back(user_tower ? std::make_pair(missing[i], int64_t{0})
                                 : std::make_pair(int64_t{0}, missing[i]));
    }
    const auto batch = features_.Build(pairs, rng_);
    const RrreModel& model = trainer_->model();
    Tensor profiles = user_tower ? model.ComputeUserProfiles(batch)
                                 : model.ComputeItemProfiles(batch);
    for (size_t i = start; i < end; ++i) {
      const int64_t row = static_cast<int64_t>(i - start);
      std::vector<float> p(static_cast<size_t>(profile_dim_));
      for (int64_t c = 0; c < profile_dim_; ++c) {
        p[static_cast<size_t>(c)] = profiles.at(row, c);
      }
      cache.emplace(missing[i], std::move(p));
    }
  }
}

RrreTrainer::Predictions BatchScorer::Score(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  CheckNotStale();
  RrreTrainer::Predictions out;
  out.ratings.reserve(pairs.size());
  out.reliabilities.reserve(pairs.size());
  const int64_t chunk_size = trainer_->config().batch_size;
  const int64_t n = static_cast<int64_t>(pairs.size());
  for (int64_t start = 0; start < n; start += chunk_size) {
    const int64_t end = std::min(n, start + chunk_size);
    const int64_t b = end - start;
    std::vector<int64_t> chunk_users;
    std::vector<int64_t> chunk_items;
    for (int64_t e = 0; e < b; ++e) {
      const auto& [u, i] = pairs[static_cast<size_t>(start + e)];
      chunk_users.push_back(u);
      chunk_items.push_back(i);
    }
    std::vector<float> xu(static_cast<size_t>(b * profile_dim_));
    std::vector<float> yi(static_cast<size_t>(b * profile_dim_));
    if (store_ != nullptr) {
      // Store-backed fast path: copy rows straight out of the store — no
      // tower work, no cache traffic. The store holds exactly the bytes
      // the towers would produce, so the scores below are bitwise identical
      // to the live-tower path.
      for (int64_t e = 0; e < b; ++e) {
        const float* up = store_->user_profile(chunk_users[static_cast<size_t>(e)]);
        const float* ip = store_->item_profile(chunk_items[static_cast<size_t>(e)]);
        std::copy(up, up + profile_dim_, xu.begin() + e * profile_dim_);
        std::copy(ip, ip + profile_dim_, yi.begin() + e * profile_dim_);
      }
    } else {
      PrimeUsers(chunk_users);
      PrimeItems(chunk_items);
      for (int64_t e = 0; e < b; ++e) {
        const auto& up =
            user_profiles_.at(chunk_users[static_cast<size_t>(e)]);
        const auto& ip =
            item_profiles_.at(chunk_items[static_cast<size_t>(e)]);
        std::copy(up.begin(), up.end(), xu.begin() + e * profile_dim_);
        std::copy(ip.begin(), ip.end(), yi.begin() + e * profile_dim_);
      }
    }
    auto fwd = trainer_->model().ForwardFromProfiles(
        Tensor::FromVector({b, profile_dim_}, std::move(xu)),
        Tensor::FromVector({b, profile_dim_}, std::move(yi)), chunk_users,
        chunk_items);
    for (int64_t e = 0; e < b; ++e) {
      out.ratings.push_back(fwd.rating.at(e, 0) + trainer_->rating_offset());
      out.reliabilities.push_back(fwd.reliability.at(e, 1));
    }
  }
  return out;
}

RrreTrainer::Predictions BatchScorer::ScoreAllItemsForUser(int64_t user) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  const int64_t num_items = trainer_->train_data().num_items();
  pairs.reserve(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) pairs.emplace_back(user, i);
  return Score(pairs);
}

}  // namespace rrre::core
