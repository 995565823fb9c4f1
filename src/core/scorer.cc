#include "core/scorer.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/tensor.h"

namespace rrre::core {

using tensor::Tensor;

void BatchScorer::ProfileCache::Touch(int64_t id) {
  auto it = index_.find(id);
  RRRE_CHECK(it != index_.end());
  lru_.splice(lru_.begin(), lru_, it->second);
}

const std::vector<float>& BatchScorer::ProfileCache::At(int64_t id) const {
  auto it = index_.find(id);
  RRRE_CHECK(it != index_.end()) << "profile for id " << id << " not cached";
  return it->second->second;
}

int64_t BatchScorer::ProfileCache::Insert(int64_t id,
                                          std::vector<float> profile,
                                          int64_t cap) {
  auto it = index_.find(id);
  if (it != index_.end()) {
    it->second->second = std::move(profile);
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  lru_.emplace_front(id, std::move(profile));
  index_[id] = lru_.begin();
  int64_t evicted = 0;
  while (cap > 0 && static_cast<int64_t>(index_.size()) > cap) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

void BatchScorer::ProfileCache::Clear() {
  lru_.clear();
  index_.clear();
}

BatchScorer::BatchScorer(RrreTrainer* trainer)
    : BatchScorer(trainer, Options()) {}

BatchScorer::BatchScorer(RrreTrainer* trainer, Options options)
    : trainer_(trainer),
      options_(options),
      features_(trainer->config(), &trainer->train_data(),
                &trainer->vocab()),
      rng_(trainer->config().seed ^ 0xca11ab1eULL),
      profile_dim_(trainer->config().rev_dim),
      params_version_(trainer->params_version()) {
  RRRE_CHECK(trainer != nullptr);
  RRRE_CHECK(trainer->fitted()) << "fit the trainer before scoring";
  RRRE_CHECK_GE(options_.tower_cache_cap, 0);
}

void BatchScorer::AttachStore(std::shared_ptr<const TowerStore> store) {
  RRRE_CHECK(store != nullptr);
  RRRE_CHECK_EQ(store->dim(), profile_dim_)
      << "store profile dim does not match the model's rev_dim";
  RRRE_CHECK_EQ(store->num_users(), trainer_->train_data().num_users());
  RRRE_CHECK_EQ(store->num_items(), trainer_->train_data().num_items());
  store_ = std::move(store);
}

void BatchScorer::Invalidate() {
  // A store is bound to one set of parameters just like the caches are; the
  // caller re-attaches a freshly validated store after a reload.
  store_.reset();
  user_profiles_.Clear();
  item_profiles_.Clear();
  // Re-bind the feature builder too: Fit and Load replace the trainer's
  // corpus and vocabulary outright, so the pointers captured at
  // construction would dangle.
  features_ = FeatureBuilder(trainer_->config(), &trainer_->train_data(),
                             &trainer_->vocab());
  params_version_ = trainer_->params_version();
}

void BatchScorer::CheckNotStale() const {
  RRRE_CHECK_EQ(trainer_->params_version(), params_version_)
      << "BatchScorer caches are stale: the trainer's parameters changed "
         "since this scorer was created — call Invalidate() first";
}

int64_t BatchScorer::EffectiveCap() const {
  if (options_.tower_cache_cap == 0) return 0;
  return std::max(options_.tower_cache_cap, trainer_->config().batch_size);
}

void BatchScorer::PrimeUsers(const std::vector<int64_t>& users) {
  PrimeTower(users, /*user_tower=*/true, user_profiles_, user_stats_);
}

void BatchScorer::PrimeItems(const std::vector<int64_t>& items) {
  PrimeTower(items, /*user_tower=*/false, item_profiles_, item_stats_);
}

void BatchScorer::PrimeTower(const std::vector<int64_t>& ids, bool user_tower,
                             ProfileCache& cache, CacheStats& stats) {
  CheckNotStale();
  if (store_ != nullptr) return;  // Every profile is already materialized.
  std::vector<int64_t> distinct = ids;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<int64_t> missing;
  for (int64_t id : distinct) {
    if (cache.Contains(id)) {
      // Touching hits first moves the whole working set to the MRU end, so
      // the inserts below can only evict ids outside this Prime call.
      ++stats.hits;
      cache.Touch(id);
    } else {
      ++stats.misses;
      missing.push_back(id);
    }
  }
  const int64_t chunk_size = trainer_->config().batch_size;
  const int64_t cap = EffectiveCap();
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
      stats.evictions += cache.Insert(missing[i], std::move(p), cap);
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
      // Store-backed fast path: copy rows straight out of the mapped file —
      // no tower work, no cache traffic. The store holds exactly the bytes
      // the towers would produce, so the scores below are bitwise identical
      // to the live-tower path.
      for (int64_t e = 0; e < b; ++e) {
        const float* up = store_->user_profile(chunk_users[static_cast<size_t>(e)]);
        const float* ip = store_->item_profile(chunk_items[static_cast<size_t>(e)]);
        std::copy(up, up + profile_dim_, xu.begin() + e * profile_dim_);
        std::copy(ip, ip + profile_dim_, yi.begin() + e * profile_dim_);
      }
    } else {
      // Prime per chunk, not per call: a chunk holds at most chunk_size
      // distinct ids and the caches hold at least that many (EffectiveCap),
      // so nothing this chunk needs can be evicted before it is read back
      // below.
      PrimeUsers(chunk_users);
      PrimeItems(chunk_items);
      for (int64_t e = 0; e < b; ++e) {
        const auto& up =
            user_profiles_.At(chunk_users[static_cast<size_t>(e)]);
        const auto& ip =
            item_profiles_.At(chunk_items[static_cast<size_t>(e)]);
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
