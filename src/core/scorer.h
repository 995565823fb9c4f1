#ifndef RRRE_CORE_SCORER_H_
#define RRRE_CORE_SCORER_H_

#include <cstdint>
#include <list>
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
/// The caches can be bounded (Options::tower_cache_cap) for long-lived
/// servers: entries are evicted in least-recently-used order, and because a
/// profile is a pure function of the id and the bound parameters (the
/// serving default kLatest history sampling draws nothing from the Rng),
/// recomputing an evicted profile is bitwise identical to the cached copy —
/// capped and unbounded scorers produce identical scores.
class BatchScorer {
 public:
  struct Options {
    /// Maximum cached profiles per tower (users and items independently);
    /// 0 = unbounded, preserving offline rrre_serve behaviour. Positive caps
    /// are clamped up to the scoring chunk size (config batch_size): Score
    /// primes one chunk at a time and a smaller cap could evict a profile
    /// the current chunk still needs.
    int64_t tower_cache_cap = 0;
  };

  /// Cumulative cache-effectiveness counters for one tower. A Prime call
  /// counts each distinct requested id as one hit or one miss.
  struct CacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `trainer` must be fitted and outlive the scorer. Cached profiles snap
  /// the model's parameters at construction time: the scorer records the
  /// trainer's params_version() and every scoring call checks it, so using
  /// a scorer after further training (or a checkpoint Load) is a hard error
  /// rather than silently stale scores. Call Invalidate() to drop the
  /// caches and re-bind to the current parameters.
  explicit BatchScorer(RrreTrainer* trainer);
  BatchScorer(RrreTrainer* trainer, Options options);

  /// Drops all cached profiles and re-snapshots the trainer's parameter
  /// version — call after the trainer's parameters changed (more training,
  /// a checkpoint Load) to keep using the same scorer.
  void Invalidate();

  /// Switches Score to store-backed mode: profiles are read straight out of
  /// the mapped TowerStore instead of being computed by the towers — the
  /// FM-head-over-two-dot-products fast path, O(dim) per pair with zero
  /// tower work. The store must have been built from the trainer's current
  /// parameters (use MapTowerStoreForCheckpoint) and cover its corpus;
  /// geometry is checked here, parameter identity is the caller's contract.
  /// Because the store holds exactly the bytes the towers produce, store
  /// -backed scores are bitwise identical to live-tower scores.
  /// Invalidate() detaches the store along with the caches.
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

  const CacheStats& user_cache_stats() const { return user_stats_; }
  const CacheStats& item_cache_stats() const { return item_stats_; }

 private:
  /// LRU map from id to cached tower profile: an unordered_map index over an
  /// intrusive recency list (front = most recently used). Insertions evict
  /// from the back once `cap` entries are held.
  class ProfileCache {
   public:
    bool Contains(int64_t id) const { return index_.count(id) != 0; }

    /// Marks an existing entry most-recently-used.
    void Touch(int64_t id);

    /// Profile of a cached id. Requires Contains(id).
    const std::vector<float>& At(int64_t id) const;

    /// Inserts `id` as most-recently-used and evicts least-recently-used
    /// entries down to `cap` (0 = unbounded). Returns evictions performed.
    int64_t Insert(int64_t id, std::vector<float> profile, int64_t cap);

    void Clear();
    int64_t size() const { return static_cast<int64_t>(index_.size()); }

   private:
    using Entry = std::pair<int64_t, std::vector<float>>;
    std::list<Entry> lru_;  ///< front = MRU, back = next eviction victim.
    std::unordered_map<int64_t, std::list<Entry>::iterator> index_;
  };

  /// Fatal unless the trainer's parameters are still the ones the cached
  /// profiles were computed from.
  void CheckNotStale() const;

  /// tower_cache_cap clamped up to the chunk size (0 stays unbounded).
  int64_t EffectiveCap() const;

  /// PrimeUsers (`user_tower`) or PrimeItems: counts hits and misses in
  /// `stats`, then runs the tower over the missing ids in batch_size chunks
  /// and inserts their profiles into `cache`.
  void PrimeTower(const std::vector<int64_t>& ids, bool user_tower,
                  ProfileCache& cache, CacheStats& stats);

  RrreTrainer* trainer_;
  Options options_;
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
  CacheStats user_stats_;
  CacheStats item_stats_;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_SCORER_H_
