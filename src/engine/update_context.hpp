#pragma once
// The update function's window onto the system: edge reads/writes routed
// through an atomicity policy, plus scheduling. One context lives per worker
// thread; begin() repoints it at the next vertex.

#include <span>
#include <utility>

#include "atomics/access_policy.hpp"
#include "atomics/edge_data.hpp"
#include "engine/frontier.hpp"
#include "engine/observer.hpp"
#include "engine/options.hpp"
#include "graph/graph.hpp"
#include "perf/prefetch.hpp"

namespace ndg {

/// GraphT is any type exposing the Graph adjacency surface (num_vertices,
/// in_edges, out_neighbors, out_edge_id). The default is the static CSR
/// Graph; the dynamic overlay (src/dyn/dyn_graph.hpp) substitutes its
/// mutable view so the same programs run on a concurrently-mutated topology.
template <EdgePod ED, typename Policy, typename GraphT = Graph>
class UpdateContext {
 public:
  using EdgeData = ED;

  UpdateContext(const GraphT& g, EdgeDataArray<ED>& edges, Policy policy,
                Frontier& frontier, AccessObserver* observer = nullptr)
      : g_(&g), edges_(&edges), policy_(policy), frontier_(&frontier),
        observer_(observer) {}

  void begin(VertexId v, std::size_t iteration) {
    v_ = v;
    iter_ = static_cast<std::uint32_t>(iteration);
    // Manifest-enforcing policies (analysis/verifying_access.hpp) track the
    // vertex under update to classify each edge access; plain policies have
    // no hook and pay nothing.
    if constexpr (requires(Policy& p) { p.begin_update(v); }) {
      policy_.begin_update(v);
    }
  }

  [[nodiscard]] VertexId vertex() const { return v_; }
  [[nodiscard]] std::size_t iteration() const { return iter_; }
  [[nodiscard]] const GraphT& graph() const { return *g_; }

  [[nodiscard]] std::span<const InEdge> in_edges() const {
    return g_->in_edges(v_);
  }
  [[nodiscard]] std::span<const VertexId> out_neighbors() const {
    return g_->out_neighbors(v_);
  }
  [[nodiscard]] EdgeId out_edge_id(std::size_t k) const {
    return g_->out_edge_id(v_, k);
  }

  [[nodiscard]] ED read(EdgeId e) {
    if (observer_ != nullptr) observer_->on_read(e, v_, iter_);
    return policy_.read(*edges_, e);
  }

  /// Hints the cache about an upcoming read(e) (see perf/prefetch.hpp —
  /// programs reach this through the concept-gated prefetch_edge helper).
  /// Address-only slot use: no datum is observed, so the access policy is
  /// not bypassed.  ndg-lint: allow(raw-slots)
  void prefetch(EdgeId e) const { perf::prefetch_read(edges_->slots() + e); }

  /// Writes edge e and schedules its other endpoint for the next iteration
  /// (Section II task-generation rule: "if f(v) updates one of v's incident
  /// edges, say v->u or u->v, it must add u to S_{n+1}").
  void write(EdgeId e, VertexId other_endpoint, ED value) {
    if (observer_ != nullptr) {
      observer_->on_write(e, v_, iter_, detail::to_slot(value));
    }
    policy_.write(*edges_, e, value);
    frontier_->schedule(other_endpoint);
  }

  /// Writes edge e WITHOUT scheduling anyone. This steps outside the Section
  /// II task-generation rule; it exists for push-mode programs that clear
  /// accumulator edges (the cleared endpoint must not be re-activated).
  /// Programs using it give up the Theorem 1/2 guarantees tied to that rule.
  void write_silent(EdgeId e, ED value) {
    if (observer_ != nullptr) {
      observer_->on_write(e, v_, iter_, detail::to_slot(value));
    }
    policy_.write(*edges_, e, value);
  }

  /// Atomically swaps `value` into edge e and returns the old datum (the
  /// drain primitive of push-mode algorithms; §VII future work). Atomicity
  /// is the policy's: genuine under locked/relaxed/seq_cst, racy under
  /// aligned plain access. Does not schedule.
  [[nodiscard]] ED exchange(EdgeId e, ED value) {
    if (observer_ != nullptr) {
      observer_->on_read(e, v_, iter_);
      observer_->on_write(e, v_, iter_, detail::to_slot(value));
    }
    return policy_.exchange(*edges_, e, value);
  }

  /// Atomically replaces edge e's datum x with fn(x) and schedules the other
  /// endpoint (the combine primitive of push-mode algorithms).
  template <typename Fn>
  void accumulate(EdgeId e, VertexId other_endpoint, Fn fn) {
    if (observer_ != nullptr) {
      observer_->on_read(e, v_, iter_);
      observer_->on_write(e, v_, iter_,
                          detail::to_slot(fn(policy_.read(*edges_, e))));
    }
    policy_.accumulate(*edges_, e, fn);
    frontier_->schedule(other_endpoint);
  }

  void schedule(VertexId u) { frontier_->schedule(u); }

 private:
  const GraphT* g_;
  EdgeDataArray<ED>* edges_;
  Policy policy_;
  Frontier* frontier_;
  AccessObserver* observer_;
  VertexId v_ = kInvalidVertex;
  std::uint32_t iter_ = 0;
};

/// Write sink of the engine loops (run_barriered in engine/nondeterministic.hpp
/// and run_async_sweep in engine/pure_async.hpp): owns one worker's update
/// context and decides when the writes it issues become visible. This one is
/// the paper's model — every write is visible at once, so every hook is a
/// no-op. delay::DelayedWrites is the other sink.
template <typename Ctx>
struct ImmediateWrites {
  /// True when writes can outlive the scheduler state, so a round with an
  /// empty frontier may still have writes to drain.
  static constexpr bool kBuffers = false;

  /// State shared by the whole team.
  struct Shared {
    Shared(std::size_t /*num_threads*/, std::size_t /*num_edges*/) {}
    /// Writes issued but not yet visible, on any thread.
    [[nodiscard]] bool pending() const { return false; }
    void report(EngineResult& /*result*/) const {}
  };

  /// The trailing arguments construct the context.
  template <typename... CtxArgs>
  ImmediateWrites(Shared& /*shared*/, const EngineOptions& /*opts*/,
                  std::size_t /*tid*/, CtxArgs&&... ctx_args)
      : ctx(std::forward<CtxArgs>(ctx_args)...) {}

  void stepped() {}  // after each update
  void idle() {}     // once per round on a thread that ran no update
  void drain() {}    // commit every buffered write of this thread now
  void finish(Shared& /*shared*/, std::size_t /*tid*/) {}

  Ctx ctx;
};

}  // namespace ndg
