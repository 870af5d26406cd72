#include "graph/graph.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace ndg {

Graph Graph::build(VertexId num_vertices, EdgeList edges,
                   const GraphBuildOptions& opts) {
  const std::size_t m = edges.size();
  Graph g;
  g.num_vertices_ = num_vertices;
  // Every array the Graph keeps is an exact-size arena buffer placed per
  // opts.mem; the E-sized scratch below is freed before build returns.
  g.out_offsets_ = mem::Buffer<EdgeId>(num_vertices + 1, opts.mem);
  g.in_offsets_ = mem::Buffer<EdgeId>(num_vertices + 1, opts.mem);

  // Degree histograms. Each endpoint is checked before it indexes a bucket.
  for (const Edge& e : edges) {
    NDG_ASSERT_MSG(e.src < num_vertices && e.dst < num_vertices,
                   "edge endpoint out of range");
    ++g.out_offsets_[e.src + 1];
    ++g.in_offsets_[e.dst + 1];
  }
  std::partial_sum(g.out_offsets_.begin(), g.out_offsets_.end(),
                   g.out_offsets_.begin());
  std::partial_sum(g.in_offsets_.begin(), g.in_offsets_.end(),
                   g.in_offsets_.begin());

  // Canonical order is (src, dst): it fixes edge ids independent of the
  // order the loader/generator emitted edges in. Two counting passes give
  // it in O(E + V). First bucket the sources by dst...
  auto src_by_dst = std::make_unique_for_overwrite<VertexId[]>(m);
  {
    std::vector<EdgeId> next(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (const Edge& e : edges) src_by_dst[next[e.dst]++] = e.src;
  }
  edges = EdgeList();
  // ...then walk the dst buckets in ascending order and append each dst to
  // its source's row. The pass is stable, so every row comes out sorted by
  // dst and duplicates sit next to each other.
  mem::Buffer<VertexId> targets(m, opts.mem);
  {
    std::vector<EdgeId> next(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
    for (VertexId d = 0; d < num_vertices; ++d) {
      for (EdgeId k = g.in_offsets_[d]; k < g.in_offsets_[d + 1]; ++k) {
        targets[next[src_by_dst[k]]++] = d;
      }
    }
  }
  src_by_dst.reset();

  // Drop self-loops and duplicates row by row, compacting in place. A
  // duplicate is only ever the previous target kept in the same row.
  EdgeId kept = m;
  if (opts.remove_self_loops || opts.remove_duplicate_edges) {
    kept = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      const EdgeId begin = g.out_offsets_[v];
      const EdgeId end = g.out_offsets_[v + 1];
      g.out_offsets_[v] = kept;
      for (EdgeId k = begin; k < end; ++k) {
        const VertexId d = targets[k];
        if (opts.remove_self_loops && d == v) continue;
        if (opts.remove_duplicate_edges && kept > g.out_offsets_[v] &&
            targets[kept - 1] == d) {
          continue;
        }
        targets[kept++] = d;
      }
    }
    g.out_offsets_[num_vertices] = kept;
  }
  if (kept != m) {
    targets = targets.resized(kept);
    std::fill(g.in_offsets_.begin(), g.in_offsets_.end(), EdgeId{0});
    for (EdgeId id = 0; id < kept; ++id) ++g.in_offsets_[targets[id] + 1];
    std::partial_sum(g.in_offsets_.begin(), g.in_offsets_.end(),
                     g.in_offsets_.begin());
  }
  g.num_edges_ = kept;
  g.out_targets_ = std::move(targets);

  // Edge id == CSR slot. Filling the CSC in ascending id order lists each
  // vertex's in-edges by ascending id.
  g.in_edges_ = mem::Buffer<InEdge>(kept, opts.mem);
  std::vector<EdgeId> next_in(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (EdgeId id = g.out_offsets_[v]; id < g.out_offsets_[v + 1]; ++id) {
      const VertexId d = g.out_targets_[id];
      g.in_edges_[next_in[d]++] = InEdge{v, id};
    }
  }
  return g;
}

VertexId Graph::edge_source(EdgeId e) const {
  NDG_ASSERT(e < num_edges_);
  // First offset strictly greater than e belongs to source+1.
  const auto it = std::upper_bound(out_offsets_.begin(), out_offsets_.end(), e);
  return static_cast<VertexId>(std::distance(out_offsets_.begin(), it) - 1);
}

EdgeList symmetrize(const EdgeList& edges) {
  EdgeList out;
  out.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    out.push_back(e);
    out.push_back(Edge{e.dst, e.src});
  }
  return out;
}

}  // namespace ndg
