#pragma once
// On-disk shard storage: one raw binary file of 64-bit logical edge words
// (detail::to_slot) per shard, parallel to ShardPlan::shard_edges[s].
// Windows are read and written as contiguous file ranges — the real I/O
// pattern of GraphChi's sliding windows, not an in-memory simulation of it.

#include <cstdint>
#include <string>
#include <vector>

#include "ooc/shard_plan.hpp"

namespace ndg {

class ShardStore {
 public:
  /// Creates/overwrites the store under `directory` (created if missing).
  ShardStore(std::string directory, const ShardPlan& plan);

  /// Splits a full edge-value array (indexed by canonical edge id) into the
  /// shard files. Called once after Program::init.
  void write_initial(const std::vector<std::uint64_t>& edge_values);

  /// Reads a whole shard (the interval's memory shard).
  [[nodiscard]] std::vector<std::uint64_t> load_shard(std::size_t s) const;
  void store_shard(std::size_t s, const std::vector<std::uint64_t>& values) const;

  /// Reads/writes the contiguous window [begin, end) of shard s.
  [[nodiscard]] std::vector<std::uint64_t> load_window(std::size_t s,
                                                       std::size_t begin,
                                                       std::size_t end) const;
  void store_window(std::size_t s, std::size_t begin,
                    const std::vector<std::uint64_t>& values) const;

  /// Gathers all shard files back into a canonical-edge-id-indexed array.
  void read_back(std::vector<std::uint64_t>& edge_values) const;

  /// Bytes currently on disk across all shard files.
  [[nodiscard]] std::uint64_t bytes_on_disk() const;

 private:
  [[nodiscard]] std::string shard_path(std::size_t s) const;

  std::string dir_;
  const ShardPlan* plan_;
};

}  // namespace ndg
