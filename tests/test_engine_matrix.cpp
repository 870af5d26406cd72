// The engine-equivalence matrix: every execution configuration the library
// offers — deterministic, PSW, BSP, chromatic, nondeterministic (threaded),
// pure-async, simulated, distributed, out-of-core deterministic and
// out-of-core nondeterministic — must drive WCC to the identical fixed point
// (and SSSP to exact distances) on randomly generated graphs. This is the
// repo-level statement of the paper's thesis: for eligible algorithms, HOW
// you execute does not change WHAT you compute.

#include <gtest/gtest.h>

#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "engine/bsp.hpp"
#include "engine/chromatic.hpp"
#include "engine/deterministic.hpp"
#include "engine/distributed.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/psw.hpp"
#include "engine/pure_async.hpp"
#include "engine/simulator.hpp"
#include "graph/generators.hpp"
#include "ooc/ooc_nondet.hpp"
#include "temp_path.hpp"

namespace ndg {
namespace {

TempPath fresh_dir(const std::string& name) {
  return TempPath("ndg_matrix_" + name);
}

class EngineMatrix : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    const std::uint64_t seed = GetParam();
    EdgeList edges = gen::rmat(200, 1100, seed);
    auto tail = gen::chain(16);
    edges.insert(edges.end(), tail.begin(), tail.end());
    graph_ = Graph::build(200, std::move(edges));
  }

  template <typename Runner>
  std::vector<std::uint32_t> wcc_labels(Runner&& run) {
    WccProgram prog;
    EdgeDataArray<WccProgram::EdgeData> edges(graph_.num_edges());
    prog.init(graph_, edges);
    const bool converged = run(prog, edges);
    EXPECT_TRUE(converged);
    return prog.labels();
  }

  Graph graph_;
};

TEST_P(EngineMatrix, AllTenConfigurationsAgreeOnWcc) {
  const auto expected = ref::wcc(graph_);
  const std::string tag = std::to_string(GetParam());

  // 1. deterministic (sequential Gauss–Seidel)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              return run_deterministic(graph_, p, e).converged;
            }),
            expected)
      << "deterministic";

  // 2. PSW external deterministic scheduler
  const IntervalPlan intervals = make_intervals(graph_, 4);
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              EngineOptions o;
              o.num_threads = 3;
              return run_psw_deterministic(graph_, p, e, intervals, o).converged;
            }),
            expected)
      << "psw";

  // 3. synchronous (BSP)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              return run_bsp(graph_, p, e).converged;
            }),
            expected)
      << "bsp";

  // 4. chromatic deterministic-parallel
  const Coloring coloring = greedy_color(graph_);
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              EngineOptions o;
              o.num_threads = 3;
              return run_chromatic(graph_, p, e, coloring, o).converged;
            }),
            expected)
      << "chromatic";

  // 5. nondeterministic threaded (relaxed atomics)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              EngineOptions o;
              o.num_threads = 4;
              o.mode = AtomicityMode::kRelaxed;
              return run_nondeterministic(graph_, p, e, o).converged;
            }),
            expected)
      << "nondeterministic";

  // 6. pure asynchronous (no barriers)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              EngineOptions o;
              o.num_threads = 4;
              return run_pure_async(graph_, p, e, o).converged;
            }),
            expected)
      << "pure-async";

  // 7. logical-processor simulator (adversarial schedule)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              SimOptions o;
              o.num_procs = 8;
              o.delay = 6;
              o.seed = GetParam();
              return run_simulated(graph_, p, e, o).converged;
            }),
            expected)
      << "simulator";

  // 8. distributed (4 machines, delay 2)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              DistOptions o;
              o.num_machines = 4;
              o.network_delay = 2;
              o.seed = GetParam();
              return run_distributed(graph_, p, e, o).converged;
            }),
            expected)
      << "distributed";

  // 9. out-of-core deterministic (file-backed PSW)
  const ShardPlan shards = make_shard_plan(graph_, 3);
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              return run_ooc_deterministic(graph_, p, e, shards,
                                           fresh_dir("de_" + tag).str())
                  .converged;
            }),
            expected)
      << "ooc-deterministic";

  // 10. out-of-core nondeterministic (the paper's patched GraphChi)
  EXPECT_EQ(wcc_labels([&](auto& p, auto& e) {
              EngineOptions o;
              o.num_threads = 4;
              o.mode = AtomicityMode::kRelaxed;
              return run_ooc_nondeterministic(graph_, p, e, shards,
                                              fresh_dir("ne_" + tag).str(), o)
                  .converged;
            }),
            expected)
      << "ooc-nondeterministic";
}

TEST_P(EngineMatrix, SsspExactOnRepresentativeConfigurations) {
  const VertexId src = 0;
  const std::uint64_t wseed = GetParam() + 99;
  std::vector<float> weights(graph_.num_edges());
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(wseed, e);
  }
  const auto expected = ref::sssp(graph_, src, weights);

  auto check = [&](auto&& run, const char* tag) {
    SsspProgram prog(src, wseed);
    EdgeDataArray<SsspProgram::EdgeData> edges(graph_.num_edges());
    prog.init(graph_, edges);
    EXPECT_TRUE(run(prog, edges)) << tag;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      ASSERT_FLOAT_EQ(prog.distances()[v], expected[v]) << tag << " v=" << v;
    }
  };

  check([&](auto& p, auto& e) {
    EngineOptions o;
    o.num_threads = 4;
    o.mode = AtomicityMode::kAligned;
    return run_nondeterministic(graph_, p, e, o).converged;
  }, "ne-aligned");
  check([&](auto& p, auto& e) {
    EngineOptions o;
    o.num_threads = 4;
    return run_pure_async(graph_, p, e, o).converged;
  }, "pure-async");
  check([&](auto& p, auto& e) {
    DistOptions o;
    o.num_machines = 3;
    o.network_delay = 2;
    return run_distributed(graph_, p, e, o).converged;
  }, "distributed");
}

INSTANTIATE_TEST_SUITE_P(GraphSeeds, EngineMatrix,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace ndg
