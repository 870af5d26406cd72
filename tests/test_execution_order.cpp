// White-box scheduling tests: a recorder program captures the exact update
// invocation order and asserts each engine's documented discipline —
// ascending labels for DE, interval-major for PSW/OOC, color-major for
// chromatic, block dispatch + small-label-first per thread for NE.

#include <gtest/gtest.h>

#include <mutex>

#include "engine/chromatic.hpp"
#include "engine/deterministic.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/psw.hpp"
#include "graph/generators.hpp"
#include "ooc/ooc_engine.hpp"
#include "temp_path.hpp"

namespace ndg {
namespace {

/// Records (vertex, iteration) for every update; runs exactly one iteration
/// (nothing is ever scheduled), so the record is the dispatch order of S_0.
class RecorderProgram {
 public:
  using EdgeData = std::uint32_t;
  static constexpr bool kMonotonic = true;

  [[nodiscard]] const char* name() const { return "recorder"; }

  void init(const Graph& g, EdgeDataArray<std::uint32_t>& edges) {
    edges.fill(0);
    (void)g;
    order.clear();
  }

  [[nodiscard]] std::vector<VertexId> initial_frontier(const Graph& g) const {
    std::vector<VertexId> all(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
    return all;
  }

  template <typename Ctx>
  void update(VertexId v, Ctx&) {
    const std::lock_guard<std::mutex> lock(mu_);
    order.push_back(v);
  }

  static double project(std::uint32_t x) { return x; }

  std::vector<VertexId> order;

 private:
  std::mutex mu_;
};

Graph order_graph() { return Graph::build(64, gen::cycle(64)); }

TEST(ExecutionOrder, DeterministicIsAscendingLabels) {
  const Graph g = order_graph();
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  run_deterministic(g, prog, edges);
  ASSERT_EQ(prog.order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(prog.order.begin(), prog.order.end()));
}

TEST(ExecutionOrder, PswIsIntervalMajor) {
  const Graph g = order_graph();
  const IntervalPlan plan = make_intervals(g, 4);
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 1;
  run_psw_deterministic(g, prog, edges, plan, opts);
  ASSERT_EQ(prog.order.size(), 64u);
  // Interval ids along the recorded order must be non-decreasing.
  std::size_t prev = 0;
  for (const VertexId v : prog.order) {
    const std::size_t iv = plan.interval_of(v);
    EXPECT_GE(iv, prev) << "v=" << v;
    prev = iv;
  }
}

TEST(ExecutionOrder, OocIsIntervalMajorAndSkipsNothingOnFullFrontier) {
  const Graph g = order_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  const TempPath dir("ndg_order_ooc");
  const OocResult r = run_ooc_deterministic(g, prog, edges, plan, dir.str());
  ASSERT_EQ(prog.order.size(), 64u);
  EXPECT_EQ(r.intervals_skipped, 0u);
  std::size_t prev = 0;
  for (const VertexId v : prog.order) {
    const std::size_t iv = plan.intervals.interval_of(v);
    EXPECT_GE(iv, prev);
    prev = iv;
  }
}

TEST(ExecutionOrder, ChromaticIsColorMajor) {
  const Graph g = order_graph();
  const Coloring coloring = greedy_color(g);
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 1;
  run_chromatic(g, prog, edges, coloring, opts);
  ASSERT_EQ(prog.order.size(), 64u);
  std::uint32_t prev = 0;
  for (const VertexId v : prog.order) {
    EXPECT_GE(coloring.color[v], prev) << "v=" << v;
    prev = coloring.color[v];
  }
}

TEST(ExecutionOrder, NondeterministicSingleThreadIsAscending) {
  const Graph g = order_graph();
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 1;
  run_nondeterministic(g, prog, edges, opts);
  ASSERT_EQ(prog.order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(prog.order.begin(), prog.order.end()));
}

TEST(ExecutionOrder, NondeterministicThreadsAreSmallLabelFirstPerBlock) {
  // With T threads, each thread's block must be visited ascending. The
  // interleaving ACROSS blocks is the nondeterminism; within a block the
  // Fig. 1 rule fixes the order. Verify per-block subsequences are sorted.
  const Graph g = order_graph();
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 4;
  run_nondeterministic(g, prog, edges, opts);
  ASSERT_EQ(prog.order.size(), 64u);
  for (std::size_t t = 0; t < 4; ++t) {
    const auto [b, e] = static_block(64, 4, t);
    std::vector<VertexId> block_seq;
    for (const VertexId v : prog.order) {
      if (v >= b && v < e) block_seq.push_back(v);
    }
    EXPECT_EQ(block_seq.size(), e - b);
    EXPECT_TRUE(std::is_sorted(block_seq.begin(), block_seq.end()))
        << "thread " << t;
  }
}

TEST(ExecutionOrder, EveryVertexRunsExactlyOncePerIteration) {
  const Graph g = order_graph();
  RecorderProgram prog;
  EdgeDataArray<std::uint32_t> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 3;
  run_nondeterministic(g, prog, edges, opts);
  std::vector<int> seen(64, 0);
  for (const VertexId v : prog.order) ++seen[v];
  for (VertexId v = 0; v < 64; ++v) EXPECT_EQ(seen[v], 1) << "v=" << v;
}

}  // namespace
}  // namespace ndg
