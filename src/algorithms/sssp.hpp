#pragma once
// Single-Source Shortest Path — graph-traversal representative (Section V-A):
//
//   "each vertex stores a distance value ... Each edge stores an initial
//    fixed weight value, which is a random value (between 1 and 10) generated
//    during initialization, and a distance value, which is initially set to
//    be the same as the distance value of its source vertex. The updates pass
//    the computing results via the edges, and when executing
//    nondeterministically, only read-write conflicts happen in the edges."
//
// The 8-byte edge datum packs {weight, candidate distance}. Only the source
// endpoint of an edge ever writes it (scatter to out-edges), so conflicts are
// read-write only — Theorem 1 territory — and distances are monotonically
// non-increasing, so Theorem 2 applies as well.

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "dyn/mutation.hpp"
#include "engine/vertex_program.hpp"
#include "perf/prefetch.hpp"
#include "util/rng.hpp"

namespace ndg {

struct SsspEdge {
  float weight;  // fixed after init
  float dist;    // candidate distance of the edge's source endpoint
};
static_assert(sizeof(SsspEdge) == 8);

class SsspProgram {
 public:
  using EdgeData = SsspEdge;
  static constexpr bool kMonotonic = true;
  /// Out-edges are read back before writing (to preserve the co-located
  /// weight and skip no-op writes) but only the source endpoint ever writes
  /// an edge: RW-only (Theorem 1), with non-increasing distances as the
  /// Theorem 2 bonus.
  static constexpr AccessManifest kManifest{
      .in_edges = SlotAccess::kRead,
      .out_edges = SlotAccess::kReadWrite,
      .monotone = MonotoneClaim::kNonIncreasing,
      .bsp_convergent = true,
      .async_convergent = true,
  };
  /// Push direction (update_push): same slots and invariant (the edge datum
  /// carries the source's candidate distance in both directions), but the
  /// publish folds the improved distance in with an atomic RMW that
  /// preserves the co-located weight — robust to the WW races of a mixed
  /// schedule, hence the .rmw declaration. accumulate() schedules, so the
  /// task rule holds.
  static constexpr AccessManifest kPushManifest{
      .in_edges = SlotAccess::kRead,
      .out_edges = SlotAccess::kReadWrite,
      .rmw = true,
      .monotone = MonotoneClaim::kNonIncreasing,
      .bsp_convergent = true,
      .async_convergent = true,
  };
  static constexpr float kInf = std::numeric_limits<float>::infinity();

  explicit SsspProgram(VertexId source, std::uint64_t weight_seed = 42)
      : source_(source), weight_seed_(weight_seed) {}

  [[nodiscard]] const char* name() const { return "sssp"; }

  /// The weight of canonical edge e, derived from (seed, e) so that the
  /// Dijkstra reference and every engine see identical weights.
  static float edge_weight(std::uint64_t seed, EdgeId e) {
    SplitMix64 sm(seed ^ (e * 0x9e3779b97f4a7c15ULL + 1));
    // "a random value (between 1 and 10)"
    return 1.0f + 9.0f * static_cast<float>(sm.next() >> 40) /
                      static_cast<float>(1 << 24);
  }

  /// Weight of edge id e as seen through graph view GraphT: dynamic views
  /// carry an explicit per-edge weight array (mutations change weights, and
  /// inserted ids would collide with the hash), the static Graph derives the
  /// weight from (seed, e) as in the paper's setup.
  template <typename GraphT>
  [[nodiscard]] float view_weight(const GraphT& g, EdgeId e) const {
    if constexpr (requires(const GraphT& gg, EdgeId ee) {
                    { gg.edge_weight(ee) } -> std::convertible_to<float>;
                  }) {
      return g.edge_weight(e);
    } else {
      (void)g;
      return edge_weight(weight_seed_, e);
    }
  }

  template <typename GraphT>
  void init(const GraphT& g, EdgeDataArray<SsspEdge>& edges) {
    dists_.assign(g.num_vertices(), kInf);
    dists_[source_] = 0.0f;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const EdgeId deg = g.out_degree(v);
      for (EdgeId k = 0; k < deg; ++k) {
        const EdgeId e = g.out_edge_id(v, k);
        edges.set(e, SsspEdge{view_weight(g, e), dists_[v]});
      }
    }
  }

  template <typename GraphT>
  [[nodiscard]] std::vector<VertexId> initial_frontier(const GraphT& g) const {
    // init() already placed the source's distance on its out-edges, so the
    // first updates that make progress are the source's successors.
    std::vector<VertexId> seeds{source_};
    for (const VertexId u : g.out_neighbors(source_)) seeds.push_back(u);
    return seeds;
  }

  // --- Dynamic hooks (src/dyn/, docs/DYNAMIC.md) ---
  // Theorem 2 algorithm: distances only ever DECREASE, so a warm start is
  // sound exactly when the mutation cannot raise any true distance — edge
  // inserts (new paths only shorten) and weight decreases. Deletes and
  // weight increases can raise the fixed point above the current state; the
  // gate falls back to cold recompute for those.
  [[nodiscard]] bool dyn_warm_ok(const dyn::AppliedMutation& m) const {
    switch (m.kind) {
      case dyn::MutationKind::kInsertEdge: return true;
      case dyn::MutationKind::kWeightChange: return m.weight <= m.old_weight;
      case dyn::MutationKind::kDeleteEdge: return false;
    }
    return false;
  }

  /// Stamp the (new) weight and the source's current tentative distance on
  /// the touched edge, then seed the target (its gather gained a candidate)
  /// and the source (cheap, and re-checks the source's own fixed point).
  template <typename ViewT>
  void dyn_apply(const ViewT& g, EdgeDataArray<SsspEdge>& edges,
                 const dyn::AppliedMutation& m, std::vector<VertexId>& seeds) {
    if (m.kind == dyn::MutationKind::kDeleteEdge) {
      seeds.push_back(m.dst);  // defensive: gate forces cold for deletes
      return;
    }
    edges.set(m.id, SsspEdge{view_weight(g, m.id), dists_[m.src]});
    seeds.push_back(m.src);
    seeds.push_back(m.dst);
  }

  /// Live (mid-recompute) vertex read for the serving coordinator's
  /// --live-queries mode:
  /// v's last PUBLISHED tentative distance rides on its out-edges (scatter
  /// writes dist there), and fresher candidates arrive on its in-edges — so
  /// the min over individually-atomic edge reads is a value some serial
  /// order of the racy run could have produced (Lemma 1). Never touches
  /// dists_ (plain state the engine threads write). At a quiescent point
  /// this IS dists_[v]: the fixed point satisfies
  /// dist(v) = min_in(dist(u) + w) for every reachable non-source vertex.
  template <typename ViewT, typename ReadFn>
  [[nodiscard]] double live_value(const ViewT& g, ReadFn&& read,
                                  VertexId v) const {
    float best = (v == source_) ? 0.0f : kInf;
    if (g.out_degree(v) > 0) {
      best = std::min(best, read(g.out_edge_id(v, 0)).dist);
    }
    for (const InEdge& ie : g.in_edges(v)) {
      const SsspEdge e = read(ie.id);
      best = std::min(best, e.dist + e.weight);
    }
    return best;
  }

  // Gather / Combine / Apply decomposition (perf/hub_gather.hpp): the gather
  // is a min over in-edge candidate distances — associative, so a hub's
  // in-edges split into chunks whose partial minima recombine exactly.
  using GatherData = float;
  static GatherData gather_identity() { return kInf; }
  static GatherData combine(GatherData a, GatherData b) {
    return std::min(a, b);
  }

  template <typename Ctx>
  GatherData gather_edge(const InEdge& ie, Ctx& ctx) const {
    const SsspEdge e = ctx.read(ie.id);
    return e.dist + e.weight;
  }

  template <typename Ctx>
  void apply(VertexId v, GatherData best, Ctx& ctx) {
    // The distance cell is accessed through atomic_ref because priority(v)
    // reads it from other threads while this update runs (updates of v
    // itself are serialized by the engines).
    const float cur_dist =
        std::atomic_ref<float>(dists_[v]).load(std::memory_order_relaxed);
    if (best >= cur_dist) return;  // no improvement; nothing new to scatter
    const float d = best;
    std::atomic_ref<float>(dists_[v]).store(d, std::memory_order_relaxed);

    // Scatter: publish the improved distance on the out-edges (reading first
    // to preserve the co-located weight and to skip no-op writes).
    const auto neighbors = ctx.out_neighbors();
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const EdgeId eid = ctx.out_edge_id(k);
      const SsspEdge cur = ctx.read(eid);
      if (cur.dist > d) ctx.write(eid, neighbors[k], SsspEdge{cur.weight, d});
    }
  }

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    float best = gather_identity();
    const auto in = ctx.in_edges();
    for (std::size_t i = 0; i < in.size(); ++i) {  // Gather
      if (i + perf::kGatherPrefetchDistance < in.size()) {
        prefetch_edge(ctx, in[i + perf::kGatherPrefetchDistance].id);
      }
      best = combine(best, gather_edge(in[i], ctx));
    }
    apply(v, best, ctx);
  }

  /// Push entry point (engine/direction.hpp): same gather, but the improved
  /// distance is published with an atomic min-fold that keeps the co-located
  /// weight — so two racing publishes of the same edge (possible in a mixed
  /// pull/push schedule) commit the smaller distance instead of tearing. The
  /// guard read only skips no-improvement publishes; staleness there is
  /// benign because the fold is min.
  template <typename Ctx>
  void update_push(VertexId v, Ctx& ctx) {
    float best = gather_identity();
    const auto in = ctx.in_edges();
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (i + perf::kGatherPrefetchDistance < in.size()) {
        prefetch_edge(ctx, in[i + perf::kGatherPrefetchDistance].id);
      }
      best = combine(best, gather_edge(in[i], ctx));
    }

    const float cur_dist =
        std::atomic_ref<float>(dists_[v]).load(std::memory_order_relaxed);
    if (best >= cur_dist) return;
    const float d = best;
    std::atomic_ref<float>(dists_[v]).store(d, std::memory_order_relaxed);

    const auto neighbors = ctx.out_neighbors();
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const EdgeId eid = ctx.out_edge_id(k);
      if (ctx.read(eid).dist > d) {
        ctx.accumulate(eid, neighbors[k], [d](SsspEdge e) {
          if (e.dist > d) e.dist = d;
          return e;
        });
      }
    }
  }

  /// Scheduling priority for the bucket worklist: delta-stepping with Δ = 2
  /// over the tentative distance (weights are 1–10), so closer vertices
  /// settle first and the NE schedule approximates label-correcting order.
  /// Unreached vertices sort last (the worklist clamps to its final bucket).
  [[nodiscard]] std::uint64_t priority(VertexId v) const {
    // atomic_ref<const T> arrives only in C++26; const_cast for the load.
    const float d = std::atomic_ref<float>(const_cast<float&>(dists_[v]))
                        .load(std::memory_order_relaxed);
    if (!(d < kInf)) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(d / 2.0f);
  }

  static double project(SsspEdge e) { return e.dist; }

  [[nodiscard]] const std::vector<float>& distances() const { return dists_; }

  [[nodiscard]] std::vector<double> values() const {
    return {dists_.begin(), dists_.end()};
  }

  /// values()[v] without building the vector: what a server reads per query.
  [[nodiscard]] double value(VertexId v) const { return dists_[v]; }

  [[nodiscard]] VertexId source() const { return source_; }
  [[nodiscard]] std::uint64_t weight_seed() const { return weight_seed_; }

 private:
  VertexId source_;
  std::uint64_t weight_seed_;
  std::vector<float> dists_;
};

}  // namespace ndg
