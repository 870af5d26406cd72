#include "ooc/shard_plan.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ndg {

std::size_t ShardPlan::position_in_shard(std::size_t s, EdgeId e) const {
  NDG_ASSERT(s < shard_edges.size());
  const auto& edges = shard_edges[s];
  const auto it = std::lower_bound(edges.begin(), edges.end(), e);
  NDG_ASSERT_MSG(it != edges.end() && *it == e, "edge not in shard");
  return static_cast<std::size_t>(std::distance(edges.begin(), it));
}

ShardPlan make_shard_plan(const Graph& g, std::size_t num_shards) {
  NDG_ASSERT(num_shards >= 1);
  ShardPlan plan;
  plan.intervals = make_intervals(g, num_shards);

  plan.shard_edges.assign(num_shards, {});
  // Canonical ids ascend with (source, target); walking them in order keeps
  // every shard source-sorted for free.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    plan.shard_edges[plan.intervals.interval_of(g.edge_target(e))].push_back(e);
  }

  plan.windows.assign(num_shards, {});
  for (std::size_t s = 0; s < num_shards; ++s) {
    const auto& edges = plan.shard_edges[s];
    plan.windows[s].resize(num_shards);
    std::size_t pos = 0;
    for (std::size_t j = 0; j < num_shards; ++j) {
      const std::size_t begin = pos;
      // An edge's source is below hi exactly when its id is below hi's
      // first out-edge id.
      const EdgeId hi = g.out_edges_begin(plan.intervals.boundaries[j + 1]);
      while (pos < edges.size() && edges[pos] < hi) ++pos;
      plan.windows[s][j] = {begin, pos};
    }
    NDG_ASSERT_MSG(pos == edges.size(), "windows must tile the shard");
  }
  return plan;
}

}  // namespace ndg
