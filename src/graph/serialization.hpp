#pragma once
// Compact binary graph format ("NDGB"): a fixed header, the CSR arrays, and
// an FNV-1a checksum. Parsing a multi-gigabyte SNAP text file once and
// reloading the binary afterwards turns minutes of I/O into a bulk read —
// the same reason GraphChi preprocesses edge lists into shards.
//
// Layout (little-endian):
//   magic "NDGB" | u32 version | u64 num_vertices | u64 num_edges
//   u64 out_offsets[num_vertices + 1]
//   u32 out_targets[num_edges]
//   u64 fnv1a(payload)

#include <string>

#include "graph/graph.hpp"

namespace ndg {

/// Writes g to `path`. Throws std::runtime_error on I/O failure.
void save_binary_graph(const std::string& path, const Graph& g);

/// Loads a graph written by save_binary_graph. Throws std::runtime_error on
/// I/O failure, bad magic/version, or checksum mismatch.
Graph load_binary_graph(const std::string& path);

/// Loads `path` as a binary graph when it ends in .ndgb, otherwise as a SNAP
/// edge list (load_edge_list).
Graph load_any_graph(const std::string& path);

}  // namespace ndg
