#include "core/tower_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "core/features.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rrre::core {

using common::Result;
using common::Status;

namespace {

constexpr char kMagic[8] = {'R', 'R', 'R', 'E', 'T', 'W', 'S', '1'};
constexpr size_t kHeaderBytes = 64;
/// Offsets into the header (see the layout table in tower_store.h).
constexpr size_t kOffHeaderCrc = 8;
constexpr size_t kOffDim = 12;
constexpr size_t kOffNumUsers = 16;
constexpr size_t kOffNumItems = 24;
constexpr size_t kOffFingerprint = 32;
constexpr size_t kOffUserCrc = 40;
constexpr size_t kOffItemCrc = 44;
constexpr size_t kOffReserved = 48;

/// Structural bounds, checked before any count-derived arithmetic. With
/// dim <= 2^16 and counts <= 2^31 every product below fits comfortably in
/// int64, so a hostile header cannot overflow the expected-size computation.
constexpr int64_t kMaxDim = int64_t{1} << 16;
constexpr int64_t kMaxIds = int64_t{1} << 31;

// The library targets little-endian only (same convention as the RRRETNS2
// checkpoint format), so fields are raw memcpy'd.
template <typename T>
void PutField(std::string& buf, size_t offset, T value) {
  std::memcpy(buf.data() + offset, &value, sizeof(T));
}

template <typename T>
T GetField(const uint8_t* base, size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("tower store " + path + ": " + what);
}

}  // namespace

Status TowerStore::WriteFile(const std::string& path, int64_t dim,
                             int64_t num_users, int64_t num_items,
                             uint64_t params_fingerprint,
                             const std::vector<float>& user_profiles,
                             const std::vector<float>& item_profiles) {
  if (dim < 1 || dim > kMaxDim) {
    return Status::InvalidArgument("tower store dim out of range: " +
                                   std::to_string(dim));
  }
  if (num_users < 0 || num_users > kMaxIds || num_items < 0 ||
      num_items > kMaxIds) {
    return Status::InvalidArgument("tower store id count out of range");
  }
  if (static_cast<int64_t>(user_profiles.size()) != num_users * dim ||
      static_cast<int64_t>(item_profiles.size()) != num_items * dim) {
    return Status::InvalidArgument(
        "tower store payload size does not match header counts");
  }
  const size_t user_bytes = user_profiles.size() * sizeof(float);
  const size_t item_bytes = item_profiles.size() * sizeof(float);

  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  PutField<uint32_t>(header, kOffDim, static_cast<uint32_t>(dim));
  PutField<int64_t>(header, kOffNumUsers, num_users);
  PutField<int64_t>(header, kOffNumItems, num_items);
  PutField<uint64_t>(header, kOffFingerprint, params_fingerprint);
  PutField<uint32_t>(header, kOffUserCrc,
                     tensor::Crc32(user_profiles.data(), user_bytes));
  PutField<uint32_t>(header, kOffItemCrc,
                     tensor::Crc32(item_profiles.data(), item_bytes));
  // The header CRC covers everything after itself, so a bit flip anywhere in
  // the header — including the reserved tail — is caught before any field is
  // trusted.
  PutField<uint32_t>(
      header, kOffHeaderCrc,
      tensor::Crc32(header.data() + kOffDim, kHeaderBytes - kOffDim));

  common::AtomicFileWriter writer;
  RRRE_RETURN_IF_ERROR(writer.Open(path, /*point_prefix=*/"store"));
  RRRE_RETURN_IF_ERROR(writer.Append(header));
  RRRE_RETURN_IF_ERROR(writer.Append(user_profiles.data(), user_bytes));
  RRRE_RETURN_IF_ERROR(writer.Append(item_profiles.data(), item_bytes));
  return writer.Commit();
}

Result<std::shared_ptr<const TowerStore>> TowerStore::Map(
    const std::string& path) {
  auto file = common::MappedFile::Open(path, /*point_prefix=*/"store");
  if (!file.ok()) return file.status();
  const uint8_t* base = file.value().data();
  const size_t size = file.value().size();

  if (size < kHeaderBytes) {
    return Corrupt(path, "truncated header (" + std::to_string(size) +
                             " bytes, need " + std::to_string(kHeaderBytes) +
                             ")");
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  const uint32_t want_header_crc = GetField<uint32_t>(base, kOffHeaderCrc);
  const uint32_t got_header_crc =
      tensor::Crc32(base + kOffDim, kHeaderBytes - kOffDim);
  if (want_header_crc != got_header_crc) {
    return Corrupt(path, "header CRC mismatch");
  }
  const int64_t dim = GetField<uint32_t>(base, kOffDim);
  const int64_t num_users = GetField<int64_t>(base, kOffNumUsers);
  const int64_t num_items = GetField<int64_t>(base, kOffNumItems);
  if (dim < 1 || dim > kMaxDim) {
    return Corrupt(path, "dim out of range: " + std::to_string(dim));
  }
  if (num_users < 0 || num_users > kMaxIds) {
    return Corrupt(path, "user count out of range: " +
                             std::to_string(num_users));
  }
  if (num_items < 0 || num_items > kMaxIds) {
    return Corrupt(path, "item count out of range: " +
                             std::to_string(num_items));
  }
  for (size_t i = kOffReserved; i < kHeaderBytes; ++i) {
    if (base[i] != 0) return Corrupt(path, "reserved header bytes not zero");
  }
  // Counts are bounded above, so these products cannot overflow (<= 2^49).
  const int64_t user_bytes = num_users * dim * int64_t{sizeof(float)};
  const int64_t item_bytes = num_items * dim * int64_t{sizeof(float)};
  const int64_t expected =
      static_cast<int64_t>(kHeaderBytes) + user_bytes + item_bytes;
  if (static_cast<int64_t>(size) < expected) {
    return Corrupt(path, "truncated payload (" + std::to_string(size) +
                             " bytes, need " + std::to_string(expected) + ")");
  }
  if (static_cast<int64_t>(size) > expected) {
    return Corrupt(path, "trailing garbage (" + std::to_string(size) +
                             " bytes, expected exactly " +
                             std::to_string(expected) + ")");
  }
  const uint8_t* user_base = base + kHeaderBytes;
  const uint8_t* item_base = user_base + user_bytes;
  if (tensor::Crc32(user_base, static_cast<size_t>(user_bytes)) !=
      GetField<uint32_t>(base, kOffUserCrc)) {
    return Corrupt(path, "user section CRC mismatch");
  }
  if (tensor::Crc32(item_base, static_cast<size_t>(item_bytes)) !=
      GetField<uint32_t>(base, kOffItemCrc)) {
    return Corrupt(path, "item section CRC mismatch");
  }

  std::shared_ptr<TowerStore> store(new TowerStore());
  store->dim_ = dim;
  store->num_users_ = num_users;
  store->num_items_ = num_items;
  store->params_fingerprint_ = GetField<uint64_t>(base, kOffFingerprint);
  store->file_ = std::move(file).ValueOrDie();
  // Recompute off the moved-to mapping: the pointers must follow file_.
  store->users_ =
      reinterpret_cast<const float*>(store->file_.data() + kHeaderBytes);
  store->items_ = reinterpret_cast<const float*>(store->file_.data() +
                                                 kHeaderBytes + user_bytes);
  return std::shared_ptr<const TowerStore>(std::move(store));
}

const float* TowerStore::user_profile(int64_t user) const {
  RRRE_CHECK(user >= 0 && user < num_users_)
      << "user " << user << " outside the store's [0, " << num_users_ << ")";
  return users_ + user * dim_;
}

const float* TowerStore::item_profile(int64_t item) const {
  RRRE_CHECK(item >= 0 && item < num_items_)
      << "item " << item << " outside the store's [0, " << num_items_ << ")";
  return items_ + item * dim_;
}

Result<uint64_t> CheckpointParamsFingerprint(const std::string& model_prefix) {
  auto bytes = common::ReadFile(model_prefix + ".model");
  if (!bytes.ok()) return bytes.status();
  const uint64_t size32 = static_cast<uint32_t>(bytes.value().size());
  const uint64_t crc =
      tensor::Crc32(bytes.value().data(), bytes.value().size());
  return (size32 << 32) | crc;
}

namespace {

/// Runs one tower over every id in [0, count): chunked by config batch_size
/// exactly like BatchScorer priming, chunks distributed over the global
/// thread pool. `user_tower` selects which history fields drive the batch;
/// the counterpart id in each pair is 0 and inert (masked out of the
/// attention). Writes row-major [count, dim] into `out`.
void ComputeAllProfiles(const RrreTrainer& trainer,
                        const FeatureBuilder& features, bool user_tower,
                        int64_t count, int64_t dim, float* out) {
  const int64_t bs = std::max<int64_t>(1, trainer.config().batch_size);
  const int64_t num_chunks = (count + bs - 1) / bs;
  common::ParallelFor(0, num_chunks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      const int64_t start = c * bs;
      const int64_t end = std::min(count, start + bs);
      std::vector<std::pair<int64_t, int64_t>> pairs;
      pairs.reserve(static_cast<size_t>(end - start));
      for (int64_t id = start; id < end; ++id) {
        pairs.emplace_back(user_tower ? id : 0, user_tower ? 0 : id);
      }
      // kLatest sampling draws nothing from the Rng (enforced by the
      // caller), so a per-chunk Rng cannot perturb the profiles.
      common::Rng rng(trainer.config().seed ^ 0xca11ab1eULL ^
                      static_cast<uint64_t>(c));
      const RrreModel::Batch batch = features.Build(pairs, rng);
      const tensor::Tensor profiles =
          user_tower ? trainer.model().ComputeUserProfiles(batch)
                     : trainer.model().ComputeItemProfiles(batch);
      for (int64_t row = 0; row < end - start; ++row) {
        float* dst = out + (start + row) * dim;
        for (int64_t col = 0; col < dim; ++col) {
          dst[col] = profiles.at(row, col);
        }
      }
    }
  });
}

}  // namespace

Result<std::shared_ptr<const TowerStore>> ComputeTowerStore(
    const RrreTrainer& trainer, uint64_t params_fingerprint) {
  if (!trainer.fitted()) {
    return Status::FailedPrecondition(
        "cannot compute a tower store from an unfitted trainer");
  }
  if (trainer.config().sampling != data::SamplingStrategy::kLatest) {
    return Status::InvalidArgument(
        "tower store requires the deterministic serving history sampling "
        "(kLatest); other strategies draw from the Rng, so profiles would "
        "not be pure functions of (id, params)");
  }
  const int64_t dim = trainer.config().rev_dim;
  const int64_t num_users = trainer.train_data().num_users();
  const int64_t num_items = trainer.train_data().num_items();
  std::shared_ptr<TowerStore> store(new TowerStore());
  store->dim_ = dim;
  store->num_users_ = num_users;
  store->num_items_ = num_items;
  store->params_fingerprint_ = params_fingerprint;
  store->user_rows_.resize(static_cast<size_t>(num_users * dim));
  store->item_rows_.resize(static_cast<size_t>(num_items * dim));
  FeatureBuilder features(trainer.config(), &trainer.train_data(),
                          &trainer.vocab());
  ComputeAllProfiles(trainer, features, /*user_tower=*/true, num_users, dim,
                     store->user_rows_.data());
  ComputeAllProfiles(trainer, features, /*user_tower=*/false, num_items, dim,
                     store->item_rows_.data());
  store->users_ = store->user_rows_.data();
  store->items_ = store->item_rows_.data();
  return std::shared_ptr<const TowerStore>(std::move(store));
}

Result<TowerStoreBuildStats> BuildTowerStore(const RrreTrainer& trainer,
                                             const std::string& model_prefix,
                                             const std::string& store_path) {
  auto fingerprint = CheckpointParamsFingerprint(model_prefix);
  if (!fingerprint.ok()) return fingerprint.status();
  common::Timer timer;
  auto store = ComputeTowerStore(trainer, fingerprint.value());
  if (!store.ok()) return store.status();
  const TowerStore& s = *store.value();
  RRRE_RETURN_IF_ERROR(TowerStore::WriteFile(
      store_path, s.dim(), s.num_users(), s.num_items(),
      s.params_fingerprint(), s.user_rows_, s.item_rows_));

  TowerStoreBuildStats stats;
  stats.num_users = s.num_users();
  stats.num_items = s.num_items();
  stats.dim = s.dim();
  stats.bytes = static_cast<int64_t>(
      kHeaderBytes +
      (s.user_rows_.size() + s.item_rows_.size()) * sizeof(float));
  stats.params_fingerprint = s.params_fingerprint();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<std::shared_ptr<const TowerStore>> MapTowerStoreForCheckpoint(
    const std::string& store_path, const std::string& model_prefix,
    const RrreTrainer& trainer) {
  if (!trainer.fitted()) {
    return Status::FailedPrecondition("trainer is not fitted or loaded");
  }
  auto store = TowerStore::Map(store_path);
  if (!store.ok()) return store.status();
  auto fingerprint = CheckpointParamsFingerprint(model_prefix);
  if (!fingerprint.ok()) return fingerprint.status();
  if (store.value()->params_fingerprint() != fingerprint.value()) {
    return Status::FailedPrecondition(
        "tower store " + store_path +
        " was built from different model parameters than " + model_prefix +
        ".model (stale store or mismatched publish)");
  }
  if (store.value()->dim() != trainer.config().rev_dim) {
    return Status::FailedPrecondition(
        "tower store " + store_path + " profile dim " +
        std::to_string(store.value()->dim()) +
        " does not match the model's rev_dim " +
        std::to_string(trainer.config().rev_dim));
  }
  if (store.value()->num_users() != trainer.train_data().num_users() ||
      store.value()->num_items() != trainer.train_data().num_items()) {
    return Status::FailedPrecondition(
        "tower store " + store_path +
        " id space does not match the checkpoint corpus");
  }
  return store;
}

}  // namespace rrre::core
