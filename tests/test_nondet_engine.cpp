// Nondeterministic (threaded) engine tests: the paper's central empirical
// claim, as properties. For every atomicity mode and thread count:
//   * WCC — monotonic, write-write conflicts — must converge to EXACTLY the
//     deterministic result (Theorem 2: "their nondeterministic executions
//     will produce the same final results as their deterministic executions");
//   * SSSP/BFS — read-write conflicts — must converge to the exact shortest
//     distances (absolute convergence conditions);
//   * PageRank — fixed-point iteration — must converge with values close to
//     the deterministic fixed point (approximate convergence; Theorem 1).

#include <gtest/gtest.h>

#include <tuple>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "engine/deterministic.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"

namespace ndg {
namespace {

Graph test_graph() {
  // Skewed digraph with several weakly connected components.
  EdgeList edges = gen::rmat(512, 3000, 1234);
  auto extra = gen::chain(32);  // attach a deep path on low ids
  edges.insert(edges.end(), extra.begin(), extra.end());
  return Graph::build(512, std::move(edges));
}

class NondetParam
    : public ::testing::TestWithParam<std::tuple<AtomicityMode, std::size_t>> {
 protected:
  [[nodiscard]] EngineOptions options() const {
    EngineOptions opts;
    opts.mode = std::get<0>(GetParam());
    opts.num_threads = std::get<1>(GetParam());
    return opts;
  }
};

TEST_P(NondetParam, WccMatchesUnionFindExactly) {
  const Graph g = test_graph();
  const auto expected = ref::wcc(g);

  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = run_nondeterministic(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.labels(), expected);
}

TEST_P(NondetParam, SsspMatchesDijkstraExactly) {
  const Graph g = test_graph();
  SsspProgram prog(/*source=*/0, /*weight_seed=*/7);

  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(7, e);
  }
  const auto expected = ref::sssp(g, 0, weights);

  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = run_nondeterministic(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(prog.distances().size(), expected.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FLOAT_EQ(prog.distances()[v], expected[v]) << "v=" << v;
  }
}

TEST_P(NondetParam, BfsMatchesReferenceExactly) {
  const Graph g = test_graph();
  BfsProgram prog(/*source=*/0);
  const auto expected = ref::bfs(g, 0);

  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = run_nondeterministic(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.levels(), expected);
}

TEST_P(NondetParam, PageRankConvergesNearFixedPoint) {
  const Graph g = test_graph();
  const auto expected = ref::pagerank(g, 0.85, 1e-10);

  PageRankProgram prog(/*epsilon=*/1e-4f);
  EdgeDataArray<PageRankProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = run_nondeterministic(g, prog, edges, options());
  EXPECT_TRUE(r.converged);

  // Local convergence with threshold ε leaves each vertex within a small
  // multiple of ε·(in-degree mass); use a generous but meaningful bound.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(prog.ranks()[v], expected[v], 0.05 * expected[v] + 0.01)
        << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndThreads, NondetParam,
    ::testing::Combine(::testing::Values(AtomicityMode::kLocked,
                                         AtomicityMode::kAligned,
                                         AtomicityMode::kRelaxed,
                                         AtomicityMode::kSeqCst),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_t" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(NondetEngine, SingleThreadMatchesDeterministicBitwise) {
  // With one thread the NE engine degenerates to the DE schedule.
  const Graph g = test_graph();

  WccProgram de;
  EdgeDataArray<WccProgram::EdgeData> de_edges(g.num_edges());
  de.init(g, de_edges);
  const EngineResult rd = run_deterministic(g, de, de_edges);

  WccProgram ne;
  EdgeDataArray<WccProgram::EdgeData> ne_edges(g.num_edges());
  ne.init(g, ne_edges);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.mode = AtomicityMode::kAligned;
  const EngineResult rn = run_nondeterministic(g, ne, ne_edges, opts);

  EXPECT_EQ(rd.iterations, rn.iterations);
  EXPECT_EQ(rd.updates, rn.updates);
  EXPECT_EQ(de.labels(), ne.labels());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(de_edges.get(e), ne_edges.get(e));
  }
}

TEST(NondetEngine, EmptyInitialFrontierConvergesImmediately) {
  const Graph g = Graph::build(4, gen::chain(4));
  BfsProgram prog(/*source=*/3);  // sink: no out-neighbors
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 4;  // more threads than frontier entries
  const EngineResult r = run_nondeterministic(g, prog, edges, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.levels()[3], 0u);
  EXPECT_EQ(prog.levels()[0], BfsProgram::kUnreached);
}

TEST(NondetEngine, MoreThreadsThanVertices) {
  const Graph g = Graph::build(3, gen::cycle(3));
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 16;
  const EngineResult r = run_nondeterministic(g, prog, edges, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.labels(), (std::vector<std::uint32_t>{0, 0, 0}));
}

}  // namespace
}  // namespace ndg
