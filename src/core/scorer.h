#ifndef RRRE_CORE_SCORER_H_
#define RRRE_CORE_SCORER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/features.h"
#include "core/tower_store.h"
#include "core/trainer.h"

namespace rrre::core {

/// Tower-cached batch scorer — the fast path for catalog-scale scoring that
/// the paper's Sec. V scalability remark asks for.
///
/// A user profile x_u depends only on the user's review history and an item
/// profile y_i only on the item's (padding slots are masked out of the
/// attention, so neither depends on the paired counterpart). The scorer
/// therefore runs each tower once per distinct user/item, caches the
/// profiles, and evaluates only the cheap prediction heads per pair —
/// O(users + items) tower work instead of O(pairs).
///
/// Results are numerically identical to RrreTrainer::PredictPairs.
///
/// On-demand towers serve offline scoring (rrre_serve); their cache is
/// unbounded and lives as long as the scorer. Online serving always scores
/// from a TowerStore (AttachStore), which holds every profile up front.
class BatchScorer {
 public:
  /// `trainer` must be fitted and outlive the scorer. Cached profiles snap
  /// the model's parameters at construction time: the scorer records the
  /// trainer's params_version() and every scoring call checks it, so using
  /// a scorer after further training (or a checkpoint Load) is a hard error
  /// rather than silently stale scores. Build a new scorer instead.
  explicit BatchScorer(RrreTrainer* trainer);

  /// Switches Score to store-backed mode: profiles are read straight out of
  /// the TowerStore instead of being computed by the towers — the
  /// FM-head-over-two-dot-products fast path, O(dim) per pair with zero
  /// tower work. The store must have been built from the trainer's current
  /// parameters (MapTowerStoreForCheckpoint or ComputeTowerStore) and cover
  /// its corpus; geometry is checked here, parameter identity is the
  /// caller's contract. Because the store holds exactly the bytes the towers
  /// produce, store-backed scores are bitwise identical to live-tower scores.
  void AttachStore(std::shared_ptr<const TowerStore> store);
  bool store_backed() const { return store_ != nullptr; }

  /// Precomputes profiles for the given ids (idempotent per id). No-ops in
  /// store-backed mode — every profile is already materialized.
  void PrimeUsers(const std::vector<int64_t>& users);
  void PrimeItems(const std::vector<int64_t>& items);

  /// Scores arbitrary pairs, priming any missing profiles on demand.
  RrreTrainer::Predictions Score(
      const std::vector<std::pair<int64_t, int64_t>>& pairs);

  /// Convenience: scores user x every item; returns predictions aligned
  /// with item ids 0..num_items-1.
  RrreTrainer::Predictions ScoreAllItemsForUser(int64_t user);

  int64_t cached_users() const { return user_profiles_.size(); }
  int64_t cached_items() const { return item_profiles_.size(); }

 private:
  /// Tower profile per id.
  using ProfileCache = std::unordered_map<int64_t, std::vector<float>>;

  /// Fatal unless the trainer's parameters are still the ones the cached
  /// profiles were computed from.
  void CheckNotStale() const;

  /// PrimeUsers (`user_tower`) or PrimeItems: runs the tower over the ids
  /// missing from `cache` in batch_size chunks and inserts their profiles.
  void PrimeTower(const std::vector<int64_t>& ids, bool user_tower,
                  ProfileCache& cache);

  RrreTrainer* trainer_;
  /// Non-null in store-backed mode; shared so a hot reload can swap the
  /// batcher's store while an old scorer still drains.
  std::shared_ptr<const TowerStore> store_;
  FeatureBuilder features_;
  common::Rng rng_;
  int64_t profile_dim_;
  /// trainer_->params_version() the caches are bound to.
  int64_t params_version_;
  ProfileCache user_profiles_;
  ProfileCache item_profiles_;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_SCORER_H_
