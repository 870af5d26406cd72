#pragma once
// Immutable in-memory directed graph in CSR (out-edges) + CSC (in-edges) form.
//
// This is the stand-in for GraphChi's in-memory graph representation: the
// paper's experiments keep every graph fully memory-resident, so we drop
// GraphChi's out-of-core shards and keep the part that matters for the study —
// a per-edge data slot shared between the edge's two endpoint update
// functions. Edge ids are dense in [0, num_edges) in source-major CSR order;
// per-edge algorithm data lives in external arrays indexed by edge id (see
// atomics/edge_data.hpp), so both the out-edge view (CSR) and the in-edge
// view (CSC, which carries the canonical edge id) address the *same* slot.
// That sharing is exactly what creates the read-write and write-write
// conflicts the paper studies.

#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "mem/numa_arena.hpp"
#include "util/types.hpp"

namespace ndg {

/// An in-edge as seen from its destination: the source vertex plus the
/// canonical (CSR) edge id used to index per-edge data arrays. Packed to
/// 12 bytes (4-byte aligned) so the CSC stream the pull gather reads carries
/// no padding; `id` stays 64-bit, so a const reference to it binds a copy.
struct [[gnu::packed, gnu::aligned(4)]] InEdge {
  VertexId src;
  EdgeId id;
};
static_assert(sizeof(InEdge) == 12 && alignof(InEdge) == 4);

struct GraphBuildOptions {
  bool remove_self_loops = true;
  bool remove_duplicate_edges = true;
  /// Placement for the topology arrays (hugepages / NUMA interleave / bind —
  /// see mem/mem_policy.hpp and docs/PERF.md). Best-effort.
  MemSpec mem{};
};

class Graph {
 public:
  Graph() = default;

  /// Builds CSR+CSC from an edge list in O(E + V). Edges are canonicalized
  /// to (src, dst) order by two stable counting passes (bucket by dst, then
  /// by src), so the same edge list always yields the same edge ids.
  /// `num_vertices` must exceed every endpoint id, self-loops included;
  /// an out-of-range endpoint aborts before any bucket is indexed.
  static Graph build(VertexId num_vertices, EdgeList edges,
                     const GraphBuildOptions& opts = {});

  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }
  [[nodiscard]] EdgeId num_edges() const { return num_edges_; }

  [[nodiscard]] EdgeId out_degree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  [[nodiscard]] EdgeId in_degree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Out-edges of v: targets; the edge id of the k-th out-edge is
  /// out_edges_begin(v) + k.
  [[nodiscard]] std::span<const VertexId> out_neighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            static_cast<std::size_t>(out_degree(v))};
  }
  [[nodiscard]] EdgeId out_edges_begin(VertexId v) const { return out_offsets_[v]; }

  /// Edge id of the k-th out-edge of v. This is the accessor generic graph
  /// views share (the dynamic overlay in src/dyn/ has non-contiguous out-edge
  /// ids, so contexts must not assume out_edges_begin(v) + k).
  [[nodiscard]] EdgeId out_edge_id(VertexId v, std::size_t k) const {
    return out_offsets_[v] + k;
  }

  /// In-edges of v with canonical edge ids.
  [[nodiscard]] std::span<const InEdge> in_edges(VertexId v) const {
    return {in_edges_.data() + in_offsets_[v],
            static_cast<std::size_t>(in_degree(v))};
  }

  /// Target of a canonical edge id.
  [[nodiscard]] VertexId edge_target(EdgeId e) const { return out_targets_[e]; }

  /// Source of a canonical edge id: O(log V) binary search over the CSR
  /// offsets, since no edge-id -> source array is stored. To ask whether a
  /// given vertex is the source, use the O(1) is_out_edge instead.
  [[nodiscard]] VertexId edge_source(EdgeId e) const;

  /// Whether e is an out-edge of v (v is e's source): an offset-range test.
  [[nodiscard]] bool is_out_edge(VertexId v, EdgeId e) const {
    return out_offsets_[v] <= e && e < out_offsets_[v + 1];
  }

 private:
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  // Topology arrays are flat PODs in arena buffers so GraphBuildOptions::mem
  // (hugepage / NUMA placement) covers them; all are exact-size.
  mem::Buffer<EdgeId> out_offsets_;    // size V+1
  mem::Buffer<VertexId> out_targets_;  // size E (CSR order == edge id order)
  mem::Buffer<EdgeId> in_offsets_;     // size V+1
  mem::Buffer<InEdge> in_edges_;       // size E
};

/// Adds the reverse of every edge, turning a directed edge list into a
/// symmetric one (the paper represents undirected edges as two opposite
/// directed edges).
EdgeList symmetrize(const EdgeList& edges);

}  // namespace ndg
