#ifndef RRRE_CORE_TOWER_STORE_H_
#define RRRE_CORE_TOWER_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/trainer.h"

namespace rrre::core {

struct TowerStoreBuildStats;

/// Materialized tower store: every user-preference vector x_u and item
/// -profile vector y_i of a checkpoint, precomputed at publish time into one
/// versioned, mmap-able flat file. The towers (BiLSTM text encoding + fraud
/// attention) are pure functions of (id, params) under the serving history
/// sampling, so precomputing them turns online scoring into FM-head-over
/// -two-dot-products — O(dim) per pair, zero tower work on the hot path —
/// and lets every serving process share one page-cache copy of the vectors.
///
/// File layout (little-endian; all offsets fixed):
///
///   offset  size  field
///   0       8     magic "RRRETWS1"
///   8       4     u32 header CRC-32 over bytes [12, 64)
///   12      4     u32 dim               profile width (config rev_dim)
///   16      8     i64 num_users
///   24      8     i64 num_items
///   32      8     u64 params fingerprint (see CheckpointParamsFingerprint)
///   40      4     u32 CRC-32 of the user section payload
///   44      4     u32 CRC-32 of the item section payload
///   48      16    reserved, must be zero
///   64      -     f32 user profiles, row-major [num_users, dim]
///   ...     -     f32 item profiles, row-major [num_items, dim]
///
/// The file ends exactly after the item section; a mapped file whose size is
/// not byte-exact is rejected (truncation and trailing garbage are both
/// corruption). Every structural field is validated before any
/// count-derived arithmetic or access, so a hostile header cannot trigger
/// overflow or a wild read.
///
/// A store's rows live either in a mapped file (Map) or in memory
/// (ComputeTowerStore, which is how a server without a published store
/// serves); the accessors are the same for both.
class TowerStore {
 public:
  /// Writes a store file atomically and durably: AtomicFileWriter under the
  /// failpoint family "store" (store.open/.write/.fsync/.rename/.dirsync),
  /// so publication is crash-atomic — a reader sees the old store or the new
  /// one, never a torn file. `user_profiles` / `item_profiles` are row-major
  /// [num_users, dim] / [num_items, dim].
  static common::Status WriteFile(const std::string& path, int64_t dim,
                                  int64_t num_users, int64_t num_items,
                                  uint64_t params_fingerprint,
                                  const std::vector<float>& user_profiles,
                                  const std::vector<float>& item_profiles);

  /// Maps `path` read-only (failpoint "store.mmap") and validates the whole
  /// file: magic, header CRC, dim/count bounds with overflow-safe size
  /// arithmetic, byte-exact file size, and both section CRCs. Any corruption
  /// — a truncated prefix, a flipped bit anywhere, trailing garbage —
  /// yields a descriptive error Status, never UB. Validation reads every
  /// payload byte once (faulting the pages in), so a store that maps OK is
  /// fully readable.
  static common::Result<std::shared_ptr<const TowerStore>> Map(
      const std::string& path);

  int64_t dim() const { return dim_; }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  uint64_t params_fingerprint() const { return params_fingerprint_; }

  /// Row pointer into the user or item section; `dim()` floats.
  /// Bounds-checked.
  const float* user_profile(int64_t user) const;
  const float* item_profile(int64_t item) const;

 private:
  friend common::Result<std::shared_ptr<const TowerStore>> ComputeTowerStore(
      const RrreTrainer& trainer, uint64_t params_fingerprint);
  friend common::Result<TowerStoreBuildStats> BuildTowerStore(
      const RrreTrainer& trainer, const std::string& model_prefix,
      const std::string& store_path);

  TowerStore() = default;

  common::MappedFile file_;  ///< Mapped stores only.
  /// Computed stores only: row-major [num_users, dim] / [num_items, dim].
  std::vector<float> user_rows_;
  std::vector<float> item_rows_;
  int64_t dim_ = 0;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  uint64_t params_fingerprint_ = 0;
  const float* users_ = nullptr;  ///< Into file_ or user_rows_.
  const float* items_ = nullptr;  ///< Into file_ or item_rows_.
};

/// Fingerprint of a checkpoint's model parameters: byte size and CRC-32 of
/// `<model_prefix>.model`, packed as (size32 << 32) | crc32. This is the
/// durable analogue of RrreTrainer::params_version() — the in-memory counter
/// cannot survive a process restart, so the store binds to the parameter
/// *bytes* instead. A store whose fingerprint does not match the checkpoint
/// it is served with must be rejected (see MapTowerStoreForCheckpoint).
common::Result<uint64_t> CheckpointParamsFingerprint(
    const std::string& model_prefix);

struct TowerStoreBuildStats {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t dim = 0;
  int64_t bytes = 0;        ///< Size of the published file.
  double seconds = 0.0;     ///< Tower computation + publish wall clock.
  uint64_t params_fingerprint = 0;
};

/// Batch-runs both towers across every user and item id of the trainer's
/// corpus — chunked exactly like BatchScorer priming and parallelized over
/// chunks with ParallelFor — into an in-memory store stamped with
/// `params_fingerprint`. Requires a fitted (or loaded) trainer and the
/// deterministic serving history sampling (kLatest): that is what makes a
/// profile a pure function of (id, params) and the store bitwise-equivalent
/// to live towers.
common::Result<std::shared_ptr<const TowerStore>> ComputeTowerStore(
    const RrreTrainer& trainer, uint64_t params_fingerprint);

/// ComputeTowerStore fingerprinted against `<model_prefix>.model`, published
/// at `store_path` through WriteFile.
common::Result<TowerStoreBuildStats> BuildTowerStore(
    const RrreTrainer& trainer, const std::string& model_prefix,
    const std::string& store_path);

/// Maps `store_path` and verifies it belongs to the checkpoint at
/// `model_prefix` (params fingerprint) and matches the trainer's geometry
/// (profile dim, corpus bounds). The one entry point serving should use: a
/// structurally valid store built from *different* parameters is exactly the
/// stale-cache bug the params_version check exists to prevent.
common::Result<std::shared_ptr<const TowerStore>> MapTowerStoreForCheckpoint(
    const std::string& store_path, const std::string& model_prefix,
    const RrreTrainer& trainer);

}  // namespace rrre::core

#endif  // RRRE_CORE_TOWER_STORE_H_
