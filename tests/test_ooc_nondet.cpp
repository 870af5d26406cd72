// Tests for nondeterministic execution inside the out-of-core PSW engine —
// the paper's actual patched-GraphChi configuration. The correctness
// guarantees must be exactly those of the in-memory NE engine: traversals
// exact, fixed points ε-close, under every atomicity method.

#include <gtest/gtest.h>

#include <tuple>

#include "algorithms/bfs.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "graph/generators.hpp"
#include "ooc/ooc_nondet.hpp"
#include "temp_path.hpp"

namespace ndg {
namespace {

TempPath fresh_dir(const std::string& name) {
  return TempPath("ndg_oocne_" + name);
}

Graph ooc_graph() {
  EdgeList edges = gen::rmat(300, 2000, 616);
  auto tail = gen::chain(20);
  edges.insert(edges.end(), tail.begin(), tail.end());
  return Graph::build(300, std::move(edges));
}

class OocNeParam
    : public ::testing::TestWithParam<std::tuple<AtomicityMode, std::size_t>> {
 protected:
  [[nodiscard]] EngineOptions options() const {
    EngineOptions opts;
    opts.mode = std::get<0>(GetParam());
    opts.num_threads = std::get<1>(GetParam());
    return opts;
  }
  [[nodiscard]] TempPath dir(const char* algo) const {
    return fresh_dir(std::string(algo) + "_" +
                     to_string(std::get<0>(GetParam())) + "_" +
                     std::to_string(std::get<1>(GetParam())));
  }
};

TEST_P(OocNeParam, WccExact) {
  const Graph g = ooc_graph();
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 4);
  const OocResult r = run_ooc_nondeterministic(g, prog, edges, plan,
                                               dir("wcc").str(), options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.labels(), ref::wcc(g));
}

TEST_P(OocNeParam, BfsExact) {
  const Graph g = ooc_graph();
  BfsProgram prog(0);
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 3);
  const OocResult r = run_ooc_nondeterministic(g, prog, edges, plan,
                                               dir("bfs").str(), options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.levels(), ref::bfs(g, 0));
}

TEST_P(OocNeParam, PageRankNearFixedPoint) {
  const Graph g = ooc_graph();
  const auto expected = ref::pagerank(g, 0.85, 1e-10);
  PageRankProgram prog(1e-4f);
  EdgeDataArray<float> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 4);
  const OocResult r = run_ooc_nondeterministic(g, prog, edges, plan,
                                               dir("pr").str(), options());
  EXPECT_TRUE(r.converged);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(prog.ranks()[v], expected[v], 0.05 * expected[v] + 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndThreads, OocNeParam,
    ::testing::Combine(::testing::Values(AtomicityMode::kLocked,
                                         AtomicityMode::kAligned,
                                         AtomicityMode::kRelaxed),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_t" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(OocNondet, SsspExactWithSeqCst) {
  const Graph g = ooc_graph();
  SsspProgram prog(0, 77);
  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(77, e);
  }
  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 4);
  EngineOptions opts;
  opts.mode = AtomicityMode::kSeqCst;
  opts.num_threads = 4;
  const OocResult r = run_ooc_nondeterministic(g, prog, edges, plan,
                                               fresh_dir("sssp").str(), opts);
  EXPECT_TRUE(r.converged);
  const auto expected = ref::sssp(g, 0, weights);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FLOAT_EQ(prog.distances()[v], expected[v]);
  }
}

TEST(OocNondet, DualEdgeAlgorithmsExactUnderRacyPsw) {
  // k-core and MIS race on half-owned edge words inside the loaded windows;
  // the repair discipline must hold under the PSW execution pattern too.
  const Graph g = ooc_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  EngineOptions opts;
  opts.num_threads = 4;
  opts.mode = AtomicityMode::kRelaxed;
  {
    KCoreProgram prog;
    EdgeDataArray<DualEdge> edges(g.num_edges());
    prog.init(g, edges);
    const OocResult r = run_ooc_nondeterministic(
        g, prog, edges, plan, fresh_dir("kcore").str(), opts);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(prog.core_numbers(), ref::kcore(g));
  }
  {
    MisProgram prog;
    EdgeDataArray<DualEdge> edges(g.num_edges());
    prog.init(g, edges);
    const OocResult r = run_ooc_nondeterministic(
        g, prog, edges, plan, fresh_dir("mis").str(), opts);
    EXPECT_TRUE(r.converged);
    const auto expected = ref::greedy_mis(g);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(prog.states()[v] == MisProgram::kIn, expected[v]) << "v=" << v;
    }
  }
}

TEST(OocNondet, SingleThreadEqualsOocDeterministicBitwise) {
  const Graph g = ooc_graph();
  const ShardPlan plan = make_shard_plan(g, 4);

  WccProgram de;
  EdgeDataArray<WccProgram::EdgeData> de_edges(g.num_edges());
  de.init(g, de_edges);
  const OocResult rd =
      run_ooc_deterministic(g, de, de_edges, plan, fresh_dir("de").str());

  WccProgram ne;
  EdgeDataArray<WccProgram::EdgeData> ne_edges(g.num_edges());
  ne.init(g, ne_edges);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.mode = AtomicityMode::kAligned;
  const OocResult rn = run_ooc_nondeterministic(g, ne, ne_edges, plan,
                                                fresh_dir("ne1").str(), opts);

  EXPECT_EQ(rd.iterations, rn.iterations);
  EXPECT_EQ(rd.updates, rn.updates);
  EXPECT_EQ(de.labels(), ne.labels());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(de_edges.get(e), ne_edges.get(e));
  }
}

}  // namespace
}  // namespace ndg
