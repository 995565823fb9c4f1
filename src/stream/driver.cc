#include "stream/driver.h"

#include <utility>

#include "common/io.h"
#include "common/socket.h"
#include "common/strings.h"
#include "core/tower_store.h"
#include "serve/protocol.h"

namespace rrre::stream {

using common::Result;
using common::Status;

StreamDriver::StreamDriver(const data::AdversaryModel* arena,
                           StreamOptions options)
    : arena_(arena),
      options_(std::move(options)),
      trainer_(options_.config),
      tracker_(options_.detection) {}

Status StreamDriver::Recover() {
  RRRE_RETURN_IF_ERROR(common::EnsureDir(options_.publish_root));
  auto latest = LatestGeneration(options_.publish_root);
  if (!latest.ok()) {
    // Fresh stream: nothing published (or nothing valid — a torn generation
    // without a manifest does not count).
    next_partition_ = 0;
    trained_through_ = -1;
    published_through_ = -1;
    return Status::Ok();
  }
  const Manifest& m = latest.value().first;
  const std::string& dir = latest.value().second;
  RRRE_RETURN_IF_ERROR(trainer_.Load(dir + "/" + m.checkpoint));
  next_partition_ = m.partition + 1;
  trained_through_ = m.partition;
  published_through_ = m.partition;
  // The symlink is untrusted state; repair it to match the manifest scan (a
  // crash can land between WriteManifest and the link swap).
  return UpdateCurrentLink(options_.publish_root, m.generation);
}

Status StreamDriver::Step(GenerationResult* result) {
  if (Done()) {
    return Status::FailedPrecondition("stream exhausted: all partitions done");
  }
  const int64_t k = next_partition_;
  const int tier = static_cast<int>(arena_->TierOfPartition(k));
  GenerationResult out;
  out.generation = k;
  out.tier = tier;

  if (trained_through_ < k) {
    const data::ReviewDataset cumulative = arena_->CumulativeThrough(k);
    const data::ReviewDataset eval = arena_->EvalSlice(k);
    double last_brmse = 0.0;
    double last_auc = 0.0;
    auto callback = [&](const core::RrreTrainer::EpochStats& stats) {
      const core::RrreTrainer::EvalResult r = trainer_.Evaluate(eval);
      last_brmse = r.brmse;
      last_auc = r.auc;
      tracker_.OnEpoch(stats.epoch, k, tier, r.brmse, r.auc);
      if (options_.telemetry != nullptr) {
        obs::JsonRecord record;
        record.AddString("event", "stream_epoch");
        record.AddInt("generation", k);
        record.AddInt("tier", tier);
        record.AddInt("epoch", stats.epoch);
        record.AddDouble("loss", stats.loss);
        record.AddDouble("eval_brmse", r.brmse);
        record.AddDouble("eval_auc", r.auc);
        options_.telemetry->Write(record);
      }
    };
    const int64_t extra = options_.epochs_per_partition > 0
                              ? options_.epochs_per_partition
                              : options_.config.epochs;
    if (!trainer_.fitted()) {
      out.epochs_trained = options_.config.epochs;
      trainer_.Fit(cumulative, callback);
    } else {
      out.epochs_trained = extra;
      RRRE_RETURN_IF_ERROR(trainer_.ResumeWith(cumulative, extra, callback));
    }
    out.eval_brmse = last_brmse;
    out.eval_auc = last_auc;
    trained_through_ = k;
  }

  const std::string dir = GenerationDir(options_.publish_root, k);
  const std::string prefix = dir + "/ckpt";
  if (published_through_ < k) {
    RRRE_RETURN_IF_ERROR(common::EnsureDir(dir));
    RRRE_RETURN_IF_ERROR(trainer_.Save(prefix));
    std::vector<std::string> files;
    for (const std::string& suffix :
         core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
      files.push_back("ckpt" + suffix);
    }
    Manifest m;
    m.generation = k;
    m.partition = k;
    m.tier = tier;
    m.epochs_completed = trainer_.epochs_completed();
    m.checkpoint = "ckpt";
    if (options_.build_store) {
      auto stats =
          core::BuildTowerStore(trainer_, prefix, prefix + ".tower_store");
      if (!stats.ok()) return stats.status();
      m.store = "ckpt.tower_store";
      files.push_back(m.store);
    }
    auto fingerprint = core::CheckpointParamsFingerprint(prefix);
    if (!fingerprint.ok()) return fingerprint.status();
    m.params_fingerprint = fingerprint.value();
    m.files = std::move(files);
    // The manifest is the commit point: written last, so a crash anywhere
    // above leaves a generation recovery will skip.
    RRRE_RETURN_IF_ERROR(WriteManifest(dir, m));
    RRRE_RETURN_IF_ERROR(UpdateCurrentLink(options_.publish_root, k));
    published_through_ = k;
  }

  // Re-derive the fingerprint from disk so a retried Step (publish already
  // durable, reload previously failed) reloads against the right target.
  auto fingerprint = core::CheckpointParamsFingerprint(prefix);
  if (!fingerprint.ok()) return fingerprint.status();
  out.params_fingerprint = fingerprint.value();

  for (const StreamEndpoint& endpoint : options_.reload_endpoints) {
    RRRE_RETURN_IF_ERROR(ReloadEndpoint(endpoint, out.params_fingerprint));
  }
  out.reloaded = true;

  if (options_.telemetry != nullptr) {
    obs::JsonRecord record;
    record.AddString("event", "stream_generation");
    record.AddInt("generation", k);
    record.AddInt("tier", tier);
    record.AddInt("epochs_completed", trainer_.epochs_completed());
    record.AddString("fingerprint",
                     common::StrFormat("%016llx",
                                       static_cast<unsigned long long>(
                                           out.params_fingerprint)));
    record.AddDouble("eval_brmse", out.eval_brmse);
    record.AddDouble("eval_auc", out.eval_auc);
    record.AddBool("reloaded", out.reloaded);
    options_.telemetry->Write(record);
  }

  next_partition_ = k + 1;
  if (result != nullptr) *result = out;
  return Status::Ok();
}

namespace {

/// One request/response round-trip on an established connection.
Result<std::string> RoundTrip(common::Socket& socket,
                              common::LineReader& reader,
                              const std::string& request) {
  RRRE_RETURN_IF_ERROR(socket.SendAll(request));
  auto line = reader.ReadLine();
  if (!line.ok()) return line.status();
  if (!line.value().has_value()) {
    return Status::IoError("peer closed during " + request);
  }
  return *line.value();
}

}  // namespace

Status StreamDriver::ReloadEndpoint(const StreamEndpoint& endpoint,
                                    uint64_t fingerprint) {
  auto socket = common::Socket::Connect(endpoint.host, endpoint.port);
  if (!socket.ok()) return socket.status();
  common::Socket conn = std::move(socket).ValueOrDie();
  RRRE_RETURN_IF_ERROR(conn.SetRecvTimeout(options_.reload_timeout_ms));
  RRRE_RETURN_IF_ERROR(conn.SetSendTimeout(options_.reload_timeout_ms));
  common::LineReader reader(&conn);

  const std::string where =
      endpoint.host + ":" + std::to_string(endpoint.port);
  auto reply = RoundTrip(conn, reader, "RELOAD\n");
  if (!reply.ok()) return reply.status();
  if (!common::StartsWith(reply.value(), "#reloaded")) {
    return Status::IoError("RELOAD rejected by " + where + ": " +
                           reply.value());
  }

  // A shard stores its new fingerprint before it acks, and a router acks
  // only after reading every live shard's STATS with none quarantined, so
  // the first STATS after the ack already shows how the roll ended: the
  // published fingerprint and, when the peer reports one (the router does),
  // zero quarantined backends.
  auto stats_line = RoundTrip(conn, reader, "STATS\n");
  if (!stats_line.ok()) return stats_line.status();
  auto stats = serve::ParseStatsLine(stats_line.value());
  if (!stats.ok()) {
    return Status::IoError("STATS from " + where + ": " +
                           stats.status().message());
  }
  const uint64_t seen = stats.value().fingerprint;
  const int64_t quarantined = stats.value().quarantined;
  if (seen == fingerprint && quarantined == 0) return Status::Ok();
  return Status::IoError(common::StrFormat(
      "%s reloaded but serves fingerprint %llu, not the published %llu "
      "(quarantined=%lld)",
      where.c_str(), static_cast<unsigned long long>(seen),
      static_cast<unsigned long long>(fingerprint),
      static_cast<long long>(quarantined)));
}

}  // namespace rrre::stream
