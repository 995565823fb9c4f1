#include "tensor/tape.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "tensor/grad_sink.h"

namespace rrre::tensor {

using internal::TensorImpl;

namespace {

thread_local BatchTape* g_active_tape = nullptr;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Compiled graphs kept per tape. Training uses two keys (full batch + tail
/// batch); the cap only guards against a caller feeding an unbounded key
/// stream, which would otherwise pin every traced graph's buffers forever.
constexpr size_t kMaxGraphs = 8;

uint64_t Fnv1a(uint64_t h, const void* bytes, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

BatchTape::Scope::Scope(BatchTape* tape) : previous_(g_active_tape) {
  g_active_tape = tape;
}

BatchTape::Scope::~Scope() { g_active_tape = previous_; }

BatchTape* BatchTape::Active() { return g_active_tape; }

std::shared_ptr<TensorImpl> BatchTape::NewNode(
    const char* op, const Shape& shape, uint64_t attr,
    const std::vector<Tensor>* parents) {
  RRRE_CHECK(IsValidShape(shape)) << ShapeToString(shape);
  BatchTape* tape = g_active_tape;
  if (tape != nullptr) return tape->Acquire(op, shape, attr, parents);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.assign(static_cast<size_t>(NumElements(shape)), 0.0f);
  return impl;
}

void BatchTape::NoteClosureAlloc() {
  if (g_active_tape != nullptr) ++g_active_tape->stats_.closure_allocs;
}

std::shared_ptr<TensorImpl> BatchTape::Acquire(
    const char* op, const Shape& shape, uint64_t attr,
    const std::vector<Tensor>* parents) {
  const size_t n = static_cast<size_t>(NumElements(shape));
  ++stats_.nodes;
  if (!step_open_) {
    step_open_ = true;
    step_hash_ = kFnvOffset;
  }
  // Replayed steps fold the fingerprint too, keeping distinct_sequences a
  // property of the traced op stream rather than of the execution mode.
  step_hash_ = Fnv1a(step_hash_, op, std::strlen(op));
  step_hash_ = Fnv1a(step_hash_, &n, sizeof(n));

  if (replaying_) {
    if (auto node = TryServeReplay(op, shape, attr, parents)) {
      ++stats_.buffer_reuses;
      return node;
    }
    // TryServeReplay demoted the graph; fall through to the plain arena for
    // the rest of the step.
  }

  // Best fit: the smallest pooled buffer whose capacity covers n, so
  // data.assign below never reallocates.
  auto it = pool_.lower_bound(n);
  std::shared_ptr<TensorImpl> impl;
  if (it != pool_.end()) {
    impl = std::move(it->second);
    pool_.erase(it);
    ++stats_.buffer_reuses;
  } else {
    impl = std::make_shared<TensorImpl>();
    ++stats_.buffer_allocs;
  }
  impl->shape = shape;
  impl->data.assign(n, 0.0f);
  impl->requires_grad = false;
  if (recording_graph_) {
    // Recorded nodes are owned by the graph, not retained_: they survive the
    // end-of-step sweep so their closures and parents can be replayed. If
    // the recording cannot be sealed they are demoted into retained_ and
    // swept like any transient node.
    current_->nodes.push_back(impl);
    current_->seq.push_back(SeqEntry{op, attr, shape});
  } else {
    retained_.push_back(impl);
  }
  return impl;
}

std::shared_ptr<TensorImpl> BatchTape::TryServeReplay(
    const char* op, const Shape& shape, uint64_t attr,
    const std::vector<Tensor>* parents) {
  Graph& g = *current_;
  // Divergence — a longer trace, a different op/attr/shape, or different
  // parent identity — means the recorded closures would compute the wrong
  // thing; demote and re-record rather than ever replaying a stale schedule.
  if (cursor_ >= g.seq.size()) {
    ++stats_.replay_fallbacks;
    DemoteCurrentGraph();
    return nullptr;
  }
  const SeqEntry& expected = g.seq[cursor_];
  if (std::strcmp(expected.op, op) != 0 || expected.attr != attr ||
      expected.shape != shape) {
    ++stats_.replay_fallbacks;
    DemoteCurrentGraph();
    return nullptr;
  }
  const std::shared_ptr<TensorImpl>& node = g.nodes[cursor_];
  if (parents != nullptr) {
    if (node->parents.size() != parents->size()) {
      ++stats_.replay_fallbacks;
      DemoteCurrentGraph();
      return nullptr;
    }
    for (size_t i = 0; i < parents->size(); ++i) {
      if (node->parents[i].get() != (*parents)[i].impl().get()) {
        ++stats_.replay_fallbacks;
        DemoteCurrentGraph();
        return nullptr;
      }
    }
  }
  // Forward kernels accumulate into their output (C += A·B), exactly as they
  // would into a freshly zeroed pool buffer.
  node->data.assign(node->data.size(), 0.0f);
  ++cursor_;
  return node;
}

void BatchTape::BeginStep(uint64_t key) {
  ++stats_.steps;
  FinalizeStepFingerprint();
  if (replaying_) {
    if (current_ != nullptr && cursor_ != current_->seq.size()) {
      // The step ended before serving the whole recording: the unserved tail
      // holds stale values and the stored schedules may not match the
      // shorter trace. Re-record on the key's next use.
      ++stats_.replay_fallbacks;
      DemoteCurrentGraph();
    } else {
      replaying_ = false;
      current_ = nullptr;
    }
  }
  if (recording_graph_) FinalizeGraphRecording();
  SweepRetained();
  cursor_ = 0;
  auto it = graphs_.find(key);
  if (it != graphs_.end() && it->second.sealed) {
    current_ = &it->second;
    replaying_ = true;
    ++stats_.replay_steps;
  } else if (it == graphs_.end() && graphs_.size() < kMaxGraphs) {
    Graph fresh;
    fresh.key = key;
    current_ = &graphs_.emplace(key, std::move(fresh)).first->second;
    recording_graph_ = true;
  }
}

void BatchTape::FinalizeStepFingerprint() {
  if (!step_open_) return;
  if (sequence_hashes_.insert(step_hash_).second) {
    ++stats_.distinct_sequences;
  }
  step_open_ = false;
}

void BatchTape::FinalizeGraphRecording() {
  recording_graph_ = false;
  Graph* g = current_;
  if (g == nullptr) return;
  if (g->nodes.empty()) {
    // Nothing was traced under this key (an idle step); keep no entry.
    graphs_.erase(g->key);
    current_ = nullptr;
    return;
  }
  // A node's expected reference count is the graph's own handle plus one per
  // child that lists it as a parent. Anything above that is a handle user
  // code still holds across the step boundary — replaying would overwrite a
  // value the user can observe, so the graph is demoted instead of sealed.
  std::unordered_set<TensorImpl*> members;
  members.reserve(g->nodes.size());
  for (const auto& node : g->nodes) members.insert(node.get());
  std::unordered_map<TensorImpl*, long> child_refs;
  for (const auto& node : g->nodes) {
    for (const auto& parent : node->parents) {
      if (members.count(parent.get()) != 0) ++child_refs[parent.get()];
    }
  }
  for (const auto& node : g->nodes) {
    long expected = 1;
    auto it = child_refs.find(node.get());
    if (it != child_refs.end()) expected += it->second;
    if (node.use_count() != expected) {
      DemoteCurrentGraph();
      return;
    }
  }
  g->sealed = true;
  for (const auto& node : g->nodes) node->tape_wired = true;
  current_ = nullptr;
}

void BatchTape::DemoteCurrentGraph() {
  Graph* g = current_;
  current_ = nullptr;
  replaying_ = false;
  recording_graph_ = false;
  if (g == nullptr) return;
  const uint64_t key = g->key;
  // Graph nodes are in creation order; appended to retained_ they are swept
  // like any transient node (nodes the user still references survive into
  // held_, the rest return to the pool and lose their wiring in Recycle).
  for (auto& node : g->nodes) retained_.push_back(std::move(node));
  graphs_.erase(key);
}

void BatchTape::SweepRetained() {
  std::vector<std::shared_ptr<TensorImpl>> survivors;
  // Sweep in reverse creation order: children are created after their
  // parents and hold the parent references, so releasing them first lets a
  // whole dead graph collapse into the pool in one pass. retained_ holds the
  // newest nodes (this step), held_ the older sweep survivors, so retained_
  // goes first.
  auto sweep = [&](std::vector<std::shared_ptr<TensorImpl>>& nodes) {
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      if (it->use_count() == 1) {
        Recycle(std::move(*it));
      } else {
        survivors.push_back(std::move(*it));
      }
    }
    nodes.clear();
  };
  sweep(retained_);
  sweep(held_);
  // Survivors were collected newest-first; store them back in creation order
  // so the next sweep again releases children before their parents — a
  // subgraph held one extra step (e.g. through a Detach()'d handle) still
  // collapses in a single pass once dropped.
  std::reverse(survivors.begin(), survivors.end());
  held_ = std::move(survivors);
}

void BatchTape::Recycle(std::shared_ptr<TensorImpl> node) {
  node->backward_fn = nullptr;
  node->parents.clear();
  node->scratch.clear();
  node->iscratch.clear();
  node->tape_wired = false;
  pool_.emplace(node->data.capacity(), std::move(node));
}

void BatchTape::Clear() {
  FinalizeStepFingerprint();
  replaying_ = false;
  recording_graph_ = false;
  current_ = nullptr;
  cursor_ = 0;
  graphs_.clear();
  retained_.clear();
  held_.clear();
  pool_.clear();
}

BatchTape::Stats BatchTape::stats() const {
  Stats s = stats_;
  // Fold the still-open step's fingerprint in lazily: the step is only
  // closed by the next BeginStep()/Clear(), and a read right after the run's
  // last batch must not undercount it.
  if (step_open_ &&
      sequence_hashes_.find(step_hash_) == sequence_hashes_.end()) {
    ++s.distinct_sequences;
  }
  return s;
}

void BatchTape::SetReplayEnabled(bool enabled) {
  RRRE_CHECK(enabled) << "SetReplayEnabled(false): replay is always on";
}

bool BatchTape::ReplayBackward(TensorImpl* root) {
  if (!replaying_ || current_ == nullptr) return false;
  for (const BackSchedule& sched : current_->schedules) {
    if (sched.root != root || sched.cursor != cursor_) continue;
    ++stats_.replay_backwards;
    // Mirror the eager pass in tensor.cc exactly: zero every scheduled
    // node's grad (GradSink-covered leaves excepted — their contributions go
    // to the sink's private buffer), seed the root, then run the recorded
    // closures in reverse topological order.
    for (TensorImpl* node : sched.topo) {
      if (GradSink::ActiveCovers(node)) continue;
      node->grad.assign(node->data.size(), 0.0f);
    }
    root->grad[0] = 1.0f;
    for (auto it = sched.topo.rbegin(); it != sched.topo.rend(); ++it) {
      if ((*it)->backward_fn) (*it)->backward_fn();
    }
    return true;
  }
  return false;
}

void BatchTape::RecordBackward(TensorImpl* root,
                               const std::vector<TensorImpl*>& topo) {
  stats_.dfs_node_visits += static_cast<int64_t>(topo.size());
  if (recording_graph_ && current_ != nullptr) {
    // Bind the schedule to (root, node cursor): a step with two backward
    // passes (per-shard loss, then the L2 join) records two schedules that
    // replay at the same positions in the trace.
    current_->schedules.push_back(
        BackSchedule{root, current_->nodes.size(), topo});
  } else if (replaying_ && current_ != nullptr) {
    // A sealed graph ran an eager backward at a (root, cursor) it had not
    // seen before — e.g. an extra probe Backward added later. Record it so
    // the next replay of this key serves it from the schedule.
    current_->schedules.push_back(BackSchedule{root, cursor_, topo});
  }
}

void SetFusionEnabled(bool enabled) {
  RRRE_CHECK(enabled) << "SetFusionEnabled(false): fusion is always on";
}

}  // namespace rrre::tensor
