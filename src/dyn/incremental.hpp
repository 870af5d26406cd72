#pragma once
// IncrementalEngine — the epoch loop of the streaming subsystem: apply a
// sealed MutationBatch to the DynGraph, ask the EligibilityGate whether the
// previous result survives as a warm starting state, patch edge data through
// the program's dyn hooks, and re-drive one of the racy engines from the
// affected-vertex seed set (or cold-recompute when the gate says no).
//
// Ownership: the engine owns the EdgeDataArray (the algorithm's persistent
// result state across epochs); the caller owns the DynGraph, the program and
// the gate. Edge ids are stable WITHIN an epoch; when the overlay grows past
// the compaction threshold the engine compacts after the recompute and remaps
// its edge data with the old->new table, so the next epoch starts on a fresh
// exact-size CSR with the warm state intact.
//
// Mutating entry points (apply_epoch, compact_now, recompute_cold) still
// require quiescence between calls. What IS allowed concurrently is a
// labeled racy read: while apply_epoch is inside its engine run — and only
// then, see phase() — live_value() may be called from another thread. It
// reconstructs one vertex value purely from individually-atomic edge-slot
// reads routed through the configured access policy, the same Lemma 1
// license the engines' own reads rely on. The serving coordinator's
// --live-queries mode (tier/coordinator.hpp) is the consumer: queries answered mid-recompute, labeled "quiescent":false.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "delay/delayed_engine.hpp"
#include "dyn/dyn_graph.hpp"
#include "dyn/dyn_program.hpp"
#include "dyn/eligibility_gate.hpp"
#include "dyn/mutation.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/pure_async.hpp"

namespace ndg::dyn {

/// Which racy engine re-drives the computation each epoch.
enum class DynEngine {
  kNE,         // barriered nondeterministic engine (Section II model)
  kPureAsync,  // barrier-free engine (§VII future work model)
};

[[nodiscard]] inline const char* to_string(DynEngine e) {
  return e == DynEngine::kNE ? "ne" : "pure-async";
}

/// Where apply_epoch currently is, published for concurrent observers
/// (the serving coordinator's event loop). The distinction that matters to a live reader:
/// kRunning means the graph view and the edge-slot ARRAY are structurally
/// frozen (only slot CONTENTS race, through atomic/aligned accesses), so
/// individual edge reads are licensed; kMutating means adjacency overlays
/// and the slot array itself are being resized/rebuilt, so no concurrent
/// access of any kind is safe.
enum class EpochPhase : int {
  kIdle = 0,  // between epochs; everything quiescent
  kMutating,  // batch apply / edge-data resize / cold re-init / compaction
  kRunning,   // racy engine run — live reads licensed (Lemma 1)
};

/// One edge-slot read through the runtime-selected atomicity method. The
/// locked policy's table is private to an engine run, and Lemma 1 needs no
/// lock for an individual word read, so kLocked routes through the relaxed
/// atomic load.
template <EdgePod T>
[[nodiscard]] inline T policy_edge_read(const EdgeDataArray<T>& a, EdgeId e,
                                        AtomicityMode mode) {
  switch (mode) {
    case AtomicityMode::kAligned: return AlignedAccess{}.read(a, e);
    case AtomicityMode::kSeqCst: return SeqCstAccess{}.read(a, e);
    case AtomicityMode::kLocked:
    case AtomicityMode::kRelaxed: break;
  }
  return RelaxedAtomicAccess{}.read(a, e);
}

/// Per-epoch outcome (the coordinator's `recompute` reply and the dyn
/// benches).
struct EpochResult {
  std::uint64_t epoch = 0;
  bool warm = false;
  const char* gate_reason = "";
  ApplyStats apply_stats;
  std::size_t seed_count = 0;
  EngineResult engine;
  bool compacted = false;
};

template <VertexProgram Program>
class IncrementalEngine {
 public:
  using EdgeData = typename Program::EdgeData;

  /// True when the program can answer live_value() (mid-run vertex reads).
  static constexpr bool kLiveQueryCapable = LiveQueryProgram<Program>;

  IncrementalEngine(DynGraph& graph, Program& prog, EligibilityGate gate,
                    EngineOptions opts, DynEngine engine = DynEngine::kNE)
      : g_(&graph), prog_(&prog), gate_(std::move(gate)), opts_(opts),
        engine_(engine) {}

  /// Full cold pass on the CURRENT view: re-initializes program and edge
  /// state and runs from the program's own initial frontier. Also the
  /// warm-path fallback.
  EngineResult recompute_cold() {
    edges_ = EdgeDataArray<EdgeData>(g_->num_edges(), EdgeData{}, opts_.mem);
    prog_->init(*g_, edges_);
    ++cold_runs_;
    return run_engine(prog_->initial_frontier(*g_));
  }

  /// Applies one sealed batch and brings the result back to a fixed point.
  /// `auto_compact=false` skips the post-run compaction so a caller that
  /// interleaves live reads can run compact_now() itself at a point it
  /// KNOWS is quiescent (the coordinator's event loop does this after taking
  /// the epoch result off its worker thread). `applied_out` (optional) receives
  /// the validated records in batch order — the tier coordinator ships these
  /// to its replicas (docs/TIER.md).
  EpochResult apply_epoch(const MutationBatch& batch, bool auto_compact = true,
                          std::vector<AppliedMutation>* applied_out = nullptr) {
    EpochResult out;
    out.epoch = batch.epoch;
    inflight_epoch_.store(batch.epoch, std::memory_order_relaxed);
    phase_.store(EpochPhase::kMutating, std::memory_order_release);

    const std::vector<AppliedMutation> applied =
        g_->apply(batch, &out.apply_stats, opts_.num_threads);
    if (applied_out != nullptr) *applied_out = applied;

    const GateDecision decision = gate_.decide(*prog_, applied);
    out.warm = decision.warm;
    out.gate_reason = decision.reason;

    if (applied.empty()) {
      // Nothing landed (empty batch or all rejected): state is already a
      // fixed point; no engine run needed.
      out.engine.converged = true;
      out.warm = true;
      out.gate_reason = "empty-batch";
    } else if (decision.warm) {
      // Grow the slot array for freshly assigned ids, patch edge state per
      // mutation, and resume from the affected set.
      edges_.resize(g_->num_edges());
      std::vector<VertexId> seeds;
      if constexpr (DynamicProgram<Program>) {
        for (const AppliedMutation& m : applied) {
          prog_->dyn_apply(*g_, edges_, m, seeds);
        }
      }
      out.seed_count = seeds.size();
      ++warm_runs_;
      out.engine = run_engine(std::move(seeds));
    } else {
      out.engine = recompute_cold();
    }

    if (auto_compact && g_->should_compact()) {
      compact_now();
      out.compacted = true;
    }
    ++epochs_;
    phase_.store(EpochPhase::kIdle, std::memory_order_release);
    return out;
  }

  /// Replica-side twin of apply_epoch (docs/TIER.md): replays a shipped,
  /// already-validated AppliedMutation batch through
  /// DynGraph::apply_replicated — no re-validation, ids taken verbatim — and
  /// then takes the SAME warm-or-cold decision apply_epoch would, from this
  /// engine's own gate. `compact_after` mirrors the shipper's post-batch
  /// compaction so both id spaces move in lockstep. Requires quiescence.
  EpochResult replay_epoch(std::uint64_t epoch,
                           const std::vector<AppliedMutation>& applied,
                           bool compact_after) {
    EpochResult out;
    out.epoch = epoch;
    inflight_epoch_.store(epoch, std::memory_order_relaxed);
    phase_.store(EpochPhase::kMutating, std::memory_order_release);

    out.apply_stats = g_->apply_replicated(applied, opts_.num_threads);

    const GateDecision decision = gate_.decide(*prog_, applied);
    out.warm = decision.warm;
    out.gate_reason = decision.reason;

    if (applied.empty()) {
      out.engine.converged = true;
      out.warm = true;
      out.gate_reason = "empty-batch";
    } else if (decision.warm) {
      edges_.resize(g_->num_edges());
      std::vector<VertexId> seeds;
      if constexpr (DynamicProgram<Program>) {
        for (const AppliedMutation& m : applied) {
          prog_->dyn_apply(*g_, edges_, m, seeds);
        }
      }
      out.seed_count = seeds.size();
      ++warm_runs_;
      out.engine = run_engine(std::move(seeds));
    } else {
      out.engine = recompute_cold();
    }

    if (compact_after) {
      compact_now();
      out.compacted = true;
    }
    ++epochs_;
    phase_.store(EpochPhase::kIdle, std::memory_order_release);
    return out;
  }

  /// Rebuilds the CSR and remaps the persistent edge data (warm state
  /// survives under new ids). Exposed for tests and for deferred-compaction
  /// callers; apply_epoch calls it automatically past the threshold unless
  /// told not to. Requires quiescence.
  void compact_now() {
    const DynGraph::CompactResult remap = g_->compact();
    EdgeDataArray<EdgeData> packed(remap.new_num_edges, EdgeData{}, opts_.mem);
    const EdgeId bound =
        std::min<EdgeId>(remap.old_edge_bound, edges_.size());
    for (EdgeId e = 0; e < bound; ++e) {
      const EdgeId ne = remap.old_to_new[e];
      if (ne != kInvalidEdge) packed.set(ne, edges_.get(e));
    }
    edges_ = std::move(packed);
  }

  // --- Recompute-in-progress state (safe from any thread) ---

  [[nodiscard]] EpochPhase phase() const {
    return phase_.load(std::memory_order_acquire);
  }
  /// Epoch of the batch apply_epoch is (or was last) working on. Meaningful
  /// as "in-flight" only while phase() != kIdle.
  [[nodiscard]] std::uint64_t inflight_epoch() const {
    return inflight_epoch_.load(std::memory_order_relaxed);
  }
  /// Testing/serving aid: keep phase() == kRunning for this long after the
  /// engine converges, so a concurrent observer gets a deterministic window
  /// in which live reads are licensed. 0 (default) disables the hold.
  void set_run_hold_ms(std::uint32_t ms) { run_hold_ms_ = ms; }

  /// Racy read of vertex v's current value, reconstructed from individual
  /// policy-routed edge reads (Lemma 1). Callable concurrently with
  /// apply_epoch ONLY while phase() == kRunning (the caller must check); at
  /// a quiescent point it is always safe and agrees with the program's own
  /// values() per the LiveQueryProgram contract.
  [[nodiscard]] double live_value(VertexId v) const
    requires LiveQueryProgram<Program>
  {
    return prog_->live_value(
        *g_,
        [this](EdgeId e) { return policy_edge_read(edges_, e, opts_.mode); },
        v);
  }

  [[nodiscard]] const EdgeDataArray<EdgeData>& edges() const { return edges_; }
  [[nodiscard]] EdgeDataArray<EdgeData>& edges() { return edges_; }
  [[nodiscard]] const EligibilityGate& gate() const { return gate_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  [[nodiscard]] DynEngine engine_kind() const { return engine_; }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t warm_runs() const { return warm_runs_; }
  [[nodiscard]] std::uint64_t cold_runs() const { return cold_runs_; }

  /// Adjusts the staleness knob between epochs (docs/DELAY.md): both warm
  /// and cold runs route through the delayed entry points, which are the
  /// undelayed baselines whenever spec.steps == 0. Requires quiescence.
  void set_delay(const DelaySpec& spec) { opts_.delay = spec; }

 private:
  EngineResult run_engine(std::vector<VertexId> seeds) {
    // Publish kRunning only once all structural surgery (apply/resize/init)
    // is done — the release store is what makes those writes visible to a
    // live reader that acquires the phase — and restore the phase we entered
    // with (kMutating inside apply_epoch, kIdle for a standalone cold run).
    const EpochPhase prev = phase_.load(std::memory_order_relaxed);
    phase_.store(EpochPhase::kRunning, std::memory_order_release);
    EngineResult r;
    // The delayed entry points dispatch to the plain engines at d = 0, so
    // this single call site covers both the baseline and the
    // bounded-staleness warm path (the "how much staleness can a warm start
    // absorb" experiments in tests/test_delay_dyn.cpp).
    if (engine_ == DynEngine::kPureAsync) {
      r = delay::run_delayed_async_from(*g_, *prog_, edges_, std::move(seeds),
                                        opts_);
    } else {
      r = delay::run_delayed_from(*g_, *prog_, edges_, std::move(seeds),
                                  opts_);
    }
    if (run_hold_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(run_hold_ms_));
    }
    phase_.store(prev, std::memory_order_release);
    return r;
  }

  DynGraph* g_;
  Program* prog_;
  EligibilityGate gate_;
  EngineOptions opts_;
  DynEngine engine_;
  EdgeDataArray<EdgeData> edges_;
  std::uint64_t epochs_ = 0;
  std::uint64_t warm_runs_ = 0;
  std::uint64_t cold_runs_ = 0;
  std::uint32_t run_hold_ms_ = 0;
  std::atomic<EpochPhase> phase_{EpochPhase::kIdle};
  std::atomic<std::uint64_t> inflight_epoch_{0};
};

}  // namespace ndg::dyn
