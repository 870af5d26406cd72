#pragma once
// Weakly Connected Components by minimum-label propagation — the paper's
// write-write-conflict representative (Section IV, Fig. 2, and the GraphChi
// example the paper patched):
//
//   "The update function in this example first compares the label values of
//    its corresponding vertex and those of its incident edges, computes the
//    minimal label value, and then updates the label value of its
//    corresponding vertex and its incident edges to the minimal value."
//
// Both endpoints of an edge write it, so nondeterministic execution produces
// write-write conflicts; labels only ever decrease (monotonic), so Theorem 2
// guarantees convergence — corrupted edge labels are re-corrected in later
// iterations, and the final result is bit-identical to the deterministic run.

#include <algorithm>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "dyn/mutation.hpp"
#include "engine/vertex_program.hpp"

namespace ndg {

class WccProgram {
 public:
  using EdgeData = std::uint32_t;  // component label carried by the edge
  static constexpr bool kMonotonic = true;
  /// Both endpoints read AND write every incident edge (Fig. 2), so
  /// write-write conflicts are possible and Theorem 1 is off the table; the
  /// non-increasing labels carry Theorem 2.
  static constexpr AccessManifest kManifest{
      .in_edges = SlotAccess::kReadWrite,
      .out_edges = SlotAccess::kReadWrite,
      .monotone = MonotoneClaim::kNonIncreasing,
      .bsp_convergent = true,
      .async_convergent = true,
  };
  /// Push direction (update_push): the same both-sides RW shape — WCC writes
  /// every incident edge in either direction — but published via atomic-min
  /// folds, hence .rmw. Still Theorem 2 (WW possible, labels non-increasing);
  /// the RMW publish just removes lost-update windows a mixed schedule would
  /// otherwise have to recover from over extra iterations.
  static constexpr AccessManifest kPushManifest{
      .in_edges = SlotAccess::kReadWrite,
      .out_edges = SlotAccess::kReadWrite,
      .rmw = true,
      .monotone = MonotoneClaim::kNonIncreasing,
      .bsp_convergent = true,
      .async_convergent = true,
  };
  /// Fig. 2: "the initial label value of the edge (v->u) is infinite".
  static constexpr std::uint32_t kInfiniteLabel = 0xffffffffu;

  [[nodiscard]] const char* name() const { return "wcc"; }

  template <typename GraphT>
  void init(const GraphT& g, EdgeDataArray<std::uint32_t>& edges) {
    labels_.resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) labels_[v] = v;
    edges.fill(kInfiniteLabel);
  }

  template <typename GraphT>
  [[nodiscard]] std::vector<VertexId> initial_frontier(const GraphT& g) const {
    std::vector<VertexId> all(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
    return all;
  }

  // --- Dynamic hooks (src/dyn/, docs/DYNAMIC.md) ---
  // Theorem 2 algorithm: labels only DECREASE. An insert can only merge
  // components (labels fall further — warm-safe); a delete can split one
  // (labels would need to RISE — cold). Weights are irrelevant to WCC, so
  // weight changes warm-start as no-ops.
  [[nodiscard]] bool dyn_warm_ok(const dyn::AppliedMutation& m) const {
    return m.kind != dyn::MutationKind::kDeleteEdge;
  }

  /// New edges start at the infinite label exactly as in Fig. 2 init; the
  /// endpoints re-run and propagate the smaller component label across.
  template <typename ViewT>
  void dyn_apply(const ViewT& g, EdgeDataArray<std::uint32_t>& edges,
                 const dyn::AppliedMutation& m, std::vector<VertexId>& seeds) {
    (void)g;
    if (m.kind == dyn::MutationKind::kInsertEdge) {
      edges.set(m.id, kInfiniteLabel);
      seeds.push_back(m.src);
      seeds.push_back(m.dst);
    } else if (m.kind == dyn::MutationKind::kDeleteEdge) {
      seeds.push_back(m.src);  // defensive: gate forces cold for deletes
      seeds.push_back(m.dst);
    }
  }

  /// Live (mid-recompute) vertex read for the serving coordinator's
  /// --live-queries mode:
  /// min over v's own id and every incident edge label, each read
  /// individually atomic (Lemma 1). Never touches labels_ (plain state the
  /// engine threads write); labels_[v] starts at v and the scatter pushes
  /// every improvement onto v's incident edges, so at a quiescent point this
  /// min IS labels_[v]. Infinite (not-yet-written) edge labels are ignored
  /// the same way Fig. 2's init value is.
  template <typename ViewT, typename ReadFn>
  [[nodiscard]] double live_value(const ViewT& g, ReadFn&& read,
                                  VertexId v) const {
    std::uint32_t m = v;
    for (const InEdge& ie : g.in_edges(v)) m = std::min(m, read(ie.id));
    const EdgeId odeg = g.out_degree(v);
    for (EdgeId k = 0; k < odeg; ++k) {
      m = std::min(m, read(g.out_edge_id(v, k)));
    }
    return m;
  }

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    // Gather: minimum over the vertex label and every incident edge label.
    std::uint32_t m = labels_[v];
    const auto in = ctx.in_edges();
    const auto out = ctx.out_neighbors();
    for (const InEdge& ie : in) m = std::min(m, ctx.read(ie.id));
    for (std::size_t k = 0; k < out.size(); ++k) {
      m = std::min(m, ctx.read(ctx.out_edge_id(k)));
    }

    labels_[v] = m;

    // Scatter: push the minimum to every incident edge that is still above
    // it (the "if e satisfies some criteria" predicate of Algorithm 1).
    for (const InEdge& ie : in) {
      if (ctx.read(ie.id) > m) ctx.write(ie.id, ie.src, m);
    }
    for (std::size_t k = 0; k < out.size(); ++k) {
      const EdgeId e = ctx.out_edge_id(k);
      if (ctx.read(e) > m) ctx.write(e, out[k], m);
    }
  }

  /// Push entry point (engine/direction.hpp): same gather-min over the
  /// vertex and incident edge labels, but the scatter folds the minimum in
  /// with atomic-min accumulates. Both endpoint sides still write (WCC's
  /// defining WW shape), but racing folds commute, so a mixed pull/push
  /// schedule loses no label improvements; Theorem 2 covers the rest.
  template <typename Ctx>
  void update_push(VertexId v, Ctx& ctx) {
    std::uint32_t m = labels_[v];
    const auto in = ctx.in_edges();
    const auto out = ctx.out_neighbors();
    for (const InEdge& ie : in) m = std::min(m, ctx.read(ie.id));
    for (std::size_t k = 0; k < out.size(); ++k) {
      m = std::min(m, ctx.read(ctx.out_edge_id(k)));
    }

    labels_[v] = m;

    const auto fold = [m](std::uint32_t x) { return std::min(x, m); };
    for (const InEdge& ie : in) {
      if (ctx.read(ie.id) > m) ctx.accumulate(ie.id, ie.src, fold);
    }
    for (std::size_t k = 0; k < out.size(); ++k) {
      const EdgeId e = ctx.out_edge_id(k);
      if (ctx.read(e) > m) ctx.accumulate(e, out[k], fold);
    }
  }

  static double project(std::uint32_t label) { return label; }

  /// labels()[v] converges to the minimum vertex id in v's weakly connected
  /// component.
  [[nodiscard]] const std::vector<std::uint32_t>& labels() const {
    return labels_;
  }

  [[nodiscard]] std::vector<double> values() const {
    return {labels_.begin(), labels_.end()};
  }

  /// values()[v] without building the vector: what a server reads per query.
  [[nodiscard]] double value(VertexId v) const { return labels_[v]; }

 private:
  std::vector<std::uint32_t> labels_;
};

}  // namespace ndg
