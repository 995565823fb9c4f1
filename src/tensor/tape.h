#ifndef RRRE_TENSOR_TAPE_H_
#define RRRE_TENSOR_TAPE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace rrre::tensor {

/// Arena + compiled replay cache for the per-batch autograd graph.
///
/// The training graph is static: every batch traces the same op sequence over
/// the same shapes (modulo the smaller tail batch), so the graph nodes —
/// value buffer, grad buffer, parents vector, backward closure slot — can be
/// built once and reused every step instead of being malloc'd and freed
/// thousands of times per epoch. A BatchTape does exactly that: while a
/// `BatchTape::Scope` is active on the current thread, every node the ops
/// layer creates is drawn from the tape, and `BeginStep()` recycles the
/// previous step's nodes once user code has dropped its handles.
///
/// On top of the arena sits the replay cache (the linearize -> execute
/// pipeline). `BeginStep(key)` names the step's expected trace — callers use
/// the batch/shard example count, so the full batch and the tail batch
/// compile separately. The first step with a new key *records*: nodes are
/// retained as a Graph in creation order together with their (op, shape,
/// attr) sequence, the ops layer installs parents and backward closures as
/// usual, and every `Tensor::Backward()` stores its topological order as a
/// schedule bound to (root node, node cursor). If at the next `BeginStep()`
/// every node of the recording is referenced only by the tape (user code
/// dropped all handles), the graph is sealed. Subsequent steps with the same
/// key *replay*: `NewNode` verifies op, shape, attr and parent identity
/// against the recorded sequence and serves the recorded node (value buffer
/// zeroed, closure and parents intact — the ops layer skips rebuilding
/// them), and `Backward()` executes the stored schedule directly — zero
/// topo-DFS visits and zero closure allocations in steady state, counted by
/// `Stats`. Any divergence (different op, shape, attr, parents, or a step
/// that ends early) demotes the graph back to the plain arena mid-step and
/// re-records on the key's next occurrence, so a replayed run can never
/// silently execute the wrong schedule.
///
/// Replay is bitwise identical to building the graph without a tape:
/// closures are written to capture only node pointers and
/// shape-derived constants (per-step payloads live in the node's scratch /
/// iscratch stash), so the recorded closure performs exactly the arithmetic
/// a freshly built one would.
///
/// Usage (one tape per training shard; a tape is single-threaded):
///
///   tape.BeginStep(batch_examples);  // recycle or arm replay
///   BatchTape::Scope scope(&tape);   // route node creation through the tape
///   ... forward + Backward() ...     // normal eager autograd
///
/// Nodes are recycled only when the tape holds the last reference
/// (use_count == 1), so anything user code keeps alive across steps — e.g.
/// a Detach()'d prediction — simply stays out of the pool until released
/// (and blocks that step's graph from sealing, falling back to the plain
/// arena). Parameters and other long-lived leaves are created outside any
/// Scope and are never touched by the tape.
///
/// The tape also fingerprints each step's op sequence (op name + element
/// count per node, in creation order). A static training graph should
/// produce at most two distinct fingerprints per epoch — the full batch and
/// the tail batch — which the tests assert; a drifting fingerprint count
/// means the "trace once, reuse every batch" premise broke.
class BatchTape {
 public:
  struct Stats {
    /// BeginStep() calls.
    int64_t steps = 0;
    /// Graph nodes served while a Scope was active.
    int64_t nodes = 0;
    /// Nodes that needed a fresh value-buffer allocation (pool miss).
    int64_t buffer_allocs = 0;
    /// Nodes served without allocating (pool hit or replay).
    int64_t buffer_reuses = 0;
    /// Distinct op-sequence fingerprints seen across all steps, including
    /// the still-open step (finalized lazily, so a read immediately after
    /// the run's tail batch counts it).
    int64_t distinct_sequences = 0;
    /// Nodes visited by Tensor::Backward()'s topological DFS under this
    /// tape. Replayed backwards skip the DFS entirely, so in steady state
    /// this stops growing.
    int64_t dfs_node_visits = 0;
    /// Backward std::function closures allocated by the ops layer under
    /// this tape. Replayed nodes keep their recorded closures, so in steady
    /// state this stops growing.
    int64_t closure_allocs = 0;
    /// Steps served from a sealed graph (replay mode).
    int64_t replay_steps = 0;
    /// Backward() calls executed from a stored schedule.
    int64_t replay_backwards = 0;
    /// Replay steps that diverged from their recording and fell back to the
    /// plain arena mid-step (the graph re-records on the key's next use).
    int64_t replay_fallbacks = 0;
  };

  /// RAII: routes node creation on the current thread through `tape`.
  /// Scopes nest; the previous tape (or none) is restored on destruction.
  class Scope {
   public:
    explicit Scope(BatchTape* tape);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BatchTape* previous_;
  };

  BatchTape() = default;
  BatchTape(const BatchTape&) = delete;
  BatchTape& operator=(const BatchTape&) = delete;

  /// Starts a new step: finalizes the previous step's op-sequence
  /// fingerprint, seals or demotes a finished recording, sweeps transient
  /// nodes back into the buffer pool, and arms replay when `key` names a
  /// sealed graph. `key` identifies the expected trace — callers pass the
  /// step's example count so distinct batch shapes compile separately. Call
  /// before entering the step's Scope, from the thread that owns the tape.
  void BeginStep(uint64_t key);
  void BeginStep() { BeginStep(0); }

  /// Drops every retained node, pooled buffer and compiled graph — replay
  /// caches never survive a Clear(). Fingerprint history and counters are
  /// kept.
  void Clear();

  Stats stats() const;

  /// Replay is always on; this does nothing and refuses `false`. It exists
  /// only because perfbench's replica step still calls it, until the queued
  /// benchmark change drops that call.
  void SetReplayEnabled(bool enabled);

  /// The tape active on the current thread, or nullptr.
  static BatchTape* Active();

  /// Graph-node factory used by the ops layer: serves from the active tape
  /// when one is set, otherwise allocates a fresh node. The returned node
  /// has `shape` set, data zeroed to the shape's element count and no
  /// backward_fn — unless it was served by replay, in which case parents
  /// and backward_fn from the recording step are intact and `tape_wired` is
  /// true (the ops layer must then skip rebuilding them). `op` is a static
  /// string naming the operation; `attr` packs any op constants a closure
  /// captures that are not derivable from shapes (transpose flags, scalar
  /// bits, slice offsets) so replay can verify them; `parents` (optional)
  /// is verified against the recorded node's parent identity.
  static std::shared_ptr<internal::TensorImpl> NewNode(
      const char* op, const Shape& shape, uint64_t attr = 0,
      const std::vector<Tensor>* parents = nullptr);

  /// Counts one backward-closure allocation against the active tape (no-op
  /// without one). Called by the ops layer next to every
  /// `backward_fn = ...` assignment.
  static void NoteClosureAlloc();

  /// Executes the stored schedule for `root` if this tape is replaying and
  /// the recording holds a matching (root, cursor) schedule: zeroes the
  /// scheduled nodes' grads (honoring GradSink coverage), seeds the root
  /// and runs the recorded closures in reverse topological order. Returns
  /// false when no schedule applies — the caller falls back to the DFS.
  bool ReplayBackward(internal::TensorImpl* root);

  /// Records an eager backward pass executed under this tape: counts the
  /// DFS visits and, while recording a graph, stores `topo` as a schedule
  /// bound to (root, current node cursor) for future replay.
  void RecordBackward(internal::TensorImpl* root,
                      const std::vector<internal::TensorImpl*>& topo);

 private:
  /// One recorded trace: (op, attr, shape) per node in creation order.
  struct SeqEntry {
    const char* op;
    uint64_t attr;
    Shape shape;
  };
  /// One linearized backward pass: the post-order DFS result of the
  /// recording step's Backward() at node cursor `cursor`. Raw pointers are
  /// safe: graph nodes are owned by `nodes`, and out-of-graph leaves
  /// (parameters) are kept alive transitively by the graph nodes' parents.
  struct BackSchedule {
    internal::TensorImpl* root;
    size_t cursor;
    std::vector<internal::TensorImpl*> topo;
  };
  struct Graph {
    uint64_t key = 0;
    std::vector<std::shared_ptr<internal::TensorImpl>> nodes;
    std::vector<SeqEntry> seq;
    std::vector<BackSchedule> schedules;
    bool sealed = false;
  };

  std::shared_ptr<internal::TensorImpl> Acquire(
      const char* op, const Shape& shape, uint64_t attr,
      const std::vector<Tensor>* parents);
  /// Replay fast path: verifies the next sequence entry and serves its
  /// recorded node, or returns nullptr on divergence.
  std::shared_ptr<internal::TensorImpl> TryServeReplay(
      const char* op, const Shape& shape, uint64_t attr,
      const std::vector<Tensor>* parents);
  /// Folds the open step's fingerprint into the distinct-sequence set.
  void FinalizeStepFingerprint();
  /// Seals the just-finished recording if every node is tape-only, else
  /// demotes it to the plain arena.
  void FinalizeGraphRecording();
  /// Spills the current graph's nodes into retained_ (normal sweep
  /// handling) and erases it; the key re-records on next use.
  void DemoteCurrentGraph();
  /// Recycles dead transient nodes into the pool; survivors are kept in
  /// creation order so a later drop still collapses in one pass.
  void SweepRetained();
  void Recycle(std::shared_ptr<internal::TensorImpl> node);

  /// Buffers not in use, keyed by value-buffer capacity (best-fit lookup).
  std::multimap<size_t, std::shared_ptr<internal::TensorImpl>> pool_;
  /// Transient nodes handed out since the last sweep, in creation order.
  std::vector<std::shared_ptr<internal::TensorImpl>> retained_;
  /// Sweep survivors (nodes user code still references), in creation order.
  std::vector<std::shared_ptr<internal::TensorImpl>> held_;
  /// Sealed (and one in-recording) graphs by step key.
  std::unordered_map<uint64_t, Graph> graphs_;
  Graph* current_ = nullptr;
  /// Next sequence slot while replaying; node count is the recording-side
  /// cursor.
  size_t cursor_ = 0;
  bool replaying_ = false;
  bool recording_graph_ = false;
  std::unordered_set<uint64_t> sequence_hashes_;
  uint64_t step_hash_ = 0;
  bool step_open_ = false;
  Stats stats_;
};

/// The src/nn modules always build their fused bodies (LstmSequence,
/// AddNBiasAct, GruPointwise, FmPairwise); this does nothing and refuses
/// `false`. It exists only because perfbench's replica step still calls it,
/// until the queued benchmark change drops that call.
void SetFusionEnabled(bool enabled);

}  // namespace rrre::tensor

#endif  // RRRE_TENSOR_TAPE_H_
