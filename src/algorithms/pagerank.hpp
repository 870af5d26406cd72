#pragma once
// PageRank with local convergence — the paper's fixed-point-iteration
// representative (Section V-A):
//
//   "we implement the algorithm by the concept of local convergence ...
//    Each vertex stores an initial float type weight value of 1 and each edge
//    also stores a float type weight value, whose initial value is 1 divided
//    by the out-degree of the vertex. The update function will read in all
//    weight values of the incoming edges, add them to the weight value of its
//    corresponding vertex, and then divide the summation by the out-degree.
//    The weight values of the out-going edges are finally updated by the
//    quotient from the division."
//
// We use the standard damped recurrence r_v = (1-δ) + δ·Σ_in (as in
// GraphChi's shipped PageRank) so the fixed point exists on every topology.
// Under nondeterministic execution the update reads in-edges that neighbour
// updates are concurrently writing: read-write conflicts only, so Theorem 1
// applies. The algorithm is NOT monotonic — ranks oscillate toward the fixed
// point — so Theorem 2 does not.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "dyn/mutation.hpp"
#include "engine/vertex_program.hpp"
#include "perf/prefetch.hpp"

namespace ndg {

class PageRankProgram {
 public:
  using EdgeData = float;  // rank mass flowing along the edge
  static constexpr bool kMonotonic = false;
  /// Pull mode: gather reads own in-edges, scatter writes own out-edges —
  /// single writer per edge (its source), so conflicts are RW-only and the
  /// damped recurrence's BSP convergence gives Theorem 1.
  static constexpr AccessManifest kManifest{
      .in_edges = SlotAccess::kRead,
      .out_edges = SlotAccess::kWrite,
      .bsp_convergent = true,
      .async_convergent = true,
  };

  explicit PageRankProgram(float epsilon = 1e-3f, float damping = 0.85f)
      : epsilon_(epsilon), damping_(damping) {}

  [[nodiscard]] const char* name() const { return "pagerank"; }

  template <typename GraphT>
  void init(const GraphT& g, EdgeDataArray<float>& edges) {
    ranks_.assign(g.num_vertices(), 1.0f);
    deltas_.assign(g.num_vertices(), 1.0f);  // everyone starts "far" from fix
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const EdgeId deg = g.out_degree(v);
      const float w = deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
      for (EdgeId k = 0; k < deg; ++k) edges.set(g.out_edge_id(v, k), w);
    }
  }

  template <typename GraphT>
  [[nodiscard]] std::vector<VertexId> initial_frontier(const GraphT& g) const {
    std::vector<VertexId> all(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
    return all;
  }

  // --- Dynamic hooks (src/dyn/, docs/DYNAMIC.md) ---
  // Theorem 1 algorithm: the damped recurrence contracts to its fixed point
  // from ANY starting state, so every mutation kind warm-starts.
  [[nodiscard]] bool dyn_warm_ok(const dyn::AppliedMutation&) const {
    return true;
  }

  /// A mutation at (u, v) changes u's out-degree, so the mass invariant
  /// "out-edge value == rank(u) / out_degree(u)" breaks on ALL of u's
  /// out-edges, not only the touched one — rewrite them all, then seed u,
  /// its out-neighbors (their gather sums changed) and the detached target
  /// of a delete (its sum lost a term without appearing in u's adjacency).
  template <typename ViewT>
  void dyn_apply(const ViewT& g, EdgeDataArray<float>& edges,
                 const dyn::AppliedMutation& m, std::vector<VertexId>& seeds) {
    const VertexId u = m.src;
    const auto nbrs = g.out_neighbors(u);
    const float w =
        nbrs.empty() ? 0.0f : ranks_[u] / static_cast<float>(nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      edges.set(g.out_edge_id(u, k), w);
    }
    seeds.push_back(u);
    seeds.insert(seeds.end(), nbrs.begin(), nbrs.end());
    if (m.kind == dyn::MutationKind::kDeleteEdge) seeds.push_back(m.dst);
  }

  /// Live (mid-recompute) vertex read for the serving coordinator's
  /// --live-queries mode:
  /// recompute the damped recurrence from the in-edge mass currently parked
  /// on the wire — exactly the gather an engine thread would perform, each
  /// edge read individually atomic (Lemma 1). Never touches ranks_ (plain
  /// state the engine threads write). At a quiescent point this agrees with
  /// values()[v] up to the local-convergence tolerance: a vertex stops
  /// scattering once its rank moves by less than epsilon.
  template <typename ViewT, typename ReadFn>
  [[nodiscard]] double live_value(const ViewT& g, ReadFn&& read,
                                  VertexId v) const {
    float sum = 0.0f;
    for (const InEdge& ie : g.in_edges(v)) sum += read(ie.id);
    return (1.0f - damping_) + damping_ * sum;
  }

  // Gather / Combine / Apply decomposition (perf/hub_gather.hpp): the gather
  // is a sum over in-edge reads, so it splits into edge chunks whose partial
  // sums recombine associatively. update() below routes through the same
  // pieces, so whole-vertex and edge-parallel execution run identical code.
  using GatherData = float;
  static GatherData gather_identity() { return 0.0f; }
  static GatherData combine(GatherData a, GatherData b) { return a + b; }

  template <typename Ctx>
  GatherData gather_edge(const InEdge& ie, Ctx& ctx) const {
    return ctx.read(ie.id);
  }

  template <typename Ctx>
  void apply(VertexId v, GatherData sum, Ctx& ctx) {
    const float new_rank = (1.0f - damping_) + damping_ * sum;  // Compute
    const float old_rank = ranks_[v];
    ranks_[v] = new_rank;
    // Residual for the priority schedule; atomic_ref because priority(v) is
    // read from other threads while this update runs.
    std::atomic_ref<float>(deltas_[v])
        .store(std::fabs(new_rank - old_rank), std::memory_order_relaxed);

    // Scatter under local convergence: propagate only while still moving by
    // at least ε; the targets are scheduled by ctx.write (Section II rule).
    if (std::fabs(new_rank - old_rank) >= epsilon_) {
      const auto neighbors = ctx.out_neighbors();
      if (!neighbors.empty()) {
        const float out_w = new_rank / static_cast<float>(neighbors.size());
        for (std::size_t k = 0; k < neighbors.size(); ++k) {
          ctx.write(ctx.out_edge_id(k), neighbors[k], out_w);
        }
      }
    }
  }

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    float sum = gather_identity();
    const auto in = ctx.in_edges();
    for (std::size_t i = 0; i < in.size(); ++i) {  // Gather
      if (i + perf::kGatherPrefetchDistance < in.size()) {
        prefetch_edge(ctx, in[i + perf::kGatherPrefetchDistance].id);
      }
      sum = combine(sum, gather_edge(in[i], ctx));
    }
    apply(v, sum, ctx);
  }

  /// Scheduling priority for the bucket worklist: vertices whose rank is
  /// still moving the most go first (residual-driven, à la PrIter / Galois
  /// priority PageRank). Bucket = negated binary exponent of the residual,
  /// so residual ≥ 1 → 0, ~0.5 → 1, ... converged/zero → worst bucket.
  [[nodiscard]] std::uint64_t priority(VertexId v) const {
    const float r = std::atomic_ref<float>(const_cast<float&>(deltas_[v]))
                        .load(std::memory_order_relaxed);
    if (!(r > 0.0f)) return 64;  // fully converged (or NaN): schedule last
    if (r >= 1.0f) return 0;
    const int bucket = -std::ilogb(r);
    return static_cast<std::uint64_t>(bucket > 64 ? 64 : bucket);
  }

  static double project(float w) { return w; }

  [[nodiscard]] const std::vector<float>& ranks() const { return ranks_; }

  /// Result vector for the difference-degree experiments (Tables II & III).
  [[nodiscard]] std::vector<double> values() const {
    return {ranks_.begin(), ranks_.end()};
  }

  /// values()[v] without building the vector: what a server reads per query.
  [[nodiscard]] double value(VertexId v) const { return ranks_[v]; }

  [[nodiscard]] float epsilon() const { return epsilon_; }

 private:
  float epsilon_;
  float damping_;
  std::vector<float> ranks_;
  std::vector<float> deltas_;  // |last rank change|, feeds priority()
};

}  // namespace ndg
