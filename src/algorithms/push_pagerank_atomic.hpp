#pragma once
// Push-mode (delta) PageRank with ATOMIC drain/combine — the constructive
// half of the push-mode story (the paper's §VII future work).
//
// push_pagerank.hpp shows that plain push-mode delta PageRank is NOT covered
// by Theorems 1 or 2 (write-write conflicts, non-monotonic) and really does
// corrupt results under races: the drain (read-then-clear) and the combine
// (read-add-write) are compound operations, and Section III's minimal
// atomicity — atomic individual reads and writes — cannot make a compound
// operation atomic.
//
// This variant repairs it with the policies' RMW primitives:
//     drain   = ctx.exchange(e, 0)          — atomically take all parked mass
//     combine = ctx.accumulate(e, +push)    — atomically add
// Residual mass is then conserved under ANY interleaving, so nondeterministic
// execution converges to the pull-mode fixed point — even though the paper's
// two sufficient conditions still do not apply (the eligibility analysis says
// kNotProven; the conditions are sufficient, not necessary). This is the
// library's concrete exhibit for "more sufficient conditions (e.g., those
// considering the push mode)": mass-conserving atomic accumulate/drain is
// such a condition.
//
// NOTE: correctness requires a policy with real RMW atomicity (locked,
// relaxed, seq_cst). Under AlignedAccess the RMWs decay to plain read+write
// and this program is exactly as broken as push_pagerank.hpp — the ablation
// bench measures that gap.

#include <cmath>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "engine/vertex_program.hpp"

namespace ndg {

class AtomicPushPageRankProgram {
 public:
  using EdgeData = float;  // residual mass parked on the edge
  static constexpr bool kMonotonic = false;
  /// Push mode with compound RMWs (exchange drain / accumulate combine):
  /// still kNotProven by the paper's theorems, and the .rmw declaration
  /// makes pairing this program with AlignedAccess a COMPILE error
  /// (assert_manifest_policy) — method (2) cannot make accumulate atomic.
  static constexpr AccessManifest kManifest{
      .in_edges = SlotAccess::kReadWrite,
      .out_edges = SlotAccess::kReadWrite,
      .rmw = true,
      .follows_task_rule = false,
      .bsp_convergent = true,
      .async_convergent = true,
  };

  explicit AtomicPushPageRankProgram(float epsilon = 1e-4f,
                                     float damping = 0.85f)
      : epsilon_(epsilon), damping_(damping) {}

  [[nodiscard]] const char* name() const { return "pagerank-push-atomic"; }

  template <typename GraphT>
  void init(const GraphT& g, EdgeDataArray<float>& edges) {
    ranks_.assign(g.num_vertices(), 0.0f);
    seed_residual_.assign(g.num_vertices(), 1.0f - damping_);
    edges.fill(0.0f);
  }

  template <typename GraphT>
  [[nodiscard]] std::vector<VertexId> initial_frontier(const GraphT& g) const {
    std::vector<VertexId> all(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
    return all;
  }

  // No dyn hooks on purpose: this program analyzes to kNotProven, so the
  // streaming gate must route every batch to cold recompute — it is the
  // ineligible-fallback exhibit in tests/test_dyn_incremental.cpp.

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    // Drain: atomically take the residual parked on every in-edge.
    float res = seed_residual_[v];
    seed_residual_[v] = 0.0f;
    for (const InEdge& ie : ctx.in_edges()) {
      res += ctx.exchange(ie.id, 0.0f);
    }
    if (res < epsilon_) {
      seed_residual_[v] += res;  // park sub-threshold mass for a later wake-up
      return;
    }
    ranks_[v] += res;

    // Push: atomically combine into each out-edge accumulator.
    const auto neighbors = ctx.out_neighbors();
    if (neighbors.empty()) return;
    const float push = damping_ * res / static_cast<float>(neighbors.size());
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      ctx.accumulate(ctx.out_edge_id(k), neighbors[k],
                     [push](float cur) { return cur + push; });
    }
  }

  static double project(float a) { return a; }

  [[nodiscard]] const std::vector<float>& ranks() const { return ranks_; }

  [[nodiscard]] std::vector<double> values() const {
    return {ranks_.begin(), ranks_.end()};
  }

  /// values()[v] without building the vector: what a server reads per query.
  [[nodiscard]] double value(VertexId v) const { return ranks_[v]; }

 private:
  float epsilon_;
  float damping_;
  std::vector<float> ranks_;
  std::vector<float> seed_residual_;
};

}  // namespace ndg
