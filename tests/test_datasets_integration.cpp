// Cross-dataset integration sweep: for every Table I stand-in, the
// traversal algorithms must produce exact reference results under
// nondeterministic threaded execution — the repo-level version of the
// paper's Figure 3 correctness premise.

#include <gtest/gtest.h>

#include "algorithms/bfs.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/simulator.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_stats.hpp"

namespace ndg {
namespace {

constexpr unsigned kScale = 1024;  // tiny but structure-preserving

class DatasetSweep : public ::testing::TestWithParam<DatasetId> {
 protected:
  void SetUp() override {
    dataset_ = make_dataset(GetParam(), kScale);
    source_ = max_out_degree_vertex(dataset_.graph);
  }

  Dataset dataset_;
  VertexId source_ = 0;
};

TEST_P(DatasetSweep, WccExactUnderThreadedNe) {
  const Graph& g = dataset_.graph;
  const auto expected = ref::wcc(g);
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 4;
  opts.mode = AtomicityMode::kRelaxed;
  const EngineResult r = run_nondeterministic(g, prog, edges, opts);
  EXPECT_TRUE(r.converged) << dataset_.name;
  EXPECT_EQ(prog.labels(), expected) << dataset_.name;
}

TEST_P(DatasetSweep, BfsExactUnderThreadedNe) {
  const Graph& g = dataset_.graph;
  const auto expected = ref::bfs(g, source_);
  BfsProgram prog(source_);
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts;
  opts.num_threads = 4;
  opts.mode = AtomicityMode::kAligned;
  const EngineResult r = run_nondeterministic(g, prog, edges, opts);
  EXPECT_TRUE(r.converged) << dataset_.name;
  EXPECT_EQ(prog.levels(), expected) << dataset_.name;
  // Source choice must give nontrivial coverage on every dataset.
  std::size_t reached = 0;
  for (const auto l : prog.levels()) reached += l != BfsProgram::kUnreached;
  EXPECT_GT(reached, g.num_vertices() / 20) << dataset_.name;
}

TEST_P(DatasetSweep, SsspExactUnderSimulatedRaces) {
  const Graph& g = dataset_.graph;
  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(13, e);
  }
  const auto expected = ref::sssp(g, source_, weights);

  SsspProgram prog(source_, 13);
  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  SimOptions opts;
  opts.num_procs = 8;
  opts.delay = 4;
  opts.seed = 3;
  const SimResult r = run_simulated(g, prog, edges, opts);
  EXPECT_TRUE(r.converged) << dataset_.name;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_FLOAT_EQ(prog.distances()[v], expected[v])
        << dataset_.name << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::ValuesIn(all_datasets()),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ndg
