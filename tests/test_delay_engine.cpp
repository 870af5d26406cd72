// Delayed-engine tests (docs/DELAY.md): d=0 parity with the undelayed
// baselines, exact fixed points under d>0 bounded staleness across atomicity
// modes and thread counts, the staleness ceiling, and registry-wide
// convergence parity between the delayed engine and the logical simulator
// at the same d (the cross-validation that grounds the hardware delay layer
// in the paper's schedule model).

#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "delay/delayed_engine.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/pure_async.hpp"
#include "graph/generators.hpp"

namespace ndg {
namespace {

Graph delay_graph() {
  EdgeList edges = gen::rmat(256, 1500, 77);
  auto tail = gen::chain(24);
  edges.insert(edges.end(), tail.begin(), tail.end());
  return Graph::build(256, std::move(edges));
}

std::vector<float> sssp_weights(const Graph& g, std::uint64_t seed) {
  std::vector<float> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    w[e] = SsspProgram::edge_weight(seed, e);
  }
  return w;
}

DelaySpec fixed(std::size_t d) {
  DelaySpec spec;
  spec.steps = d;
  return spec;
}

// --- d = 0 parity: the delayed entry points ARE the baselines ---

TEST(DelayedEngineZero, NeMatchesBaselineExactly) {
  const Graph g = delay_graph();
  EngineOptions opts;
  opts.num_threads = 4;

  WccProgram base_prog;
  EdgeDataArray<WccProgram::EdgeData> base_edges(g.num_edges());
  base_prog.init(g, base_edges);
  const EngineResult base = run_nondeterministic(g, base_prog, base_edges, opts);

  WccProgram del_prog;
  EdgeDataArray<WccProgram::EdgeData> del_edges(g.num_edges());
  del_prog.init(g, del_edges);
  const EngineResult del = delay::run_delayed(g, del_prog, del_edges, opts);

  EXPECT_TRUE(base.converged);
  EXPECT_TRUE(del.converged);
  EXPECT_EQ(del_prog.labels(), base_prog.labels());
  EXPECT_EQ(del.delayed_writes, 0u);
  EXPECT_EQ(del.max_staleness, 0u);
}

TEST(DelayedEngineZero, AsyncMatchesBaselineExactly) {
  const Graph g = delay_graph();
  EngineOptions opts;
  opts.num_threads = 4;

  SsspProgram base_prog(0, 21);
  EdgeDataArray<SsspProgram::EdgeData> base_edges(g.num_edges());
  base_prog.init(g, base_edges);
  const EngineResult base = run_pure_async(g, base_prog, base_edges, opts);

  SsspProgram del_prog(0, 21);
  EdgeDataArray<SsspProgram::EdgeData> del_edges(g.num_edges());
  del_prog.init(g, del_edges);
  const EngineResult del = delay::run_delayed_async(g, del_prog, del_edges, opts);

  EXPECT_TRUE(base.converged);
  EXPECT_TRUE(del.converged);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FLOAT_EQ(del_prog.distances()[v], base_prog.distances()[v])
        << "v=" << v;
  }
  EXPECT_EQ(del.delayed_writes, 0u);
}

// --- d > 0: staleness slows convergence but never corrupts the fixed point ---

class DelayedParam : public ::testing::TestWithParam<
                         std::tuple<AtomicityMode, std::size_t, std::size_t>> {
 protected:
  [[nodiscard]] EngineOptions options() const {
    EngineOptions opts;
    opts.mode = std::get<0>(GetParam());
    opts.num_threads = std::get<1>(GetParam());
    opts.delay = fixed(std::get<2>(GetParam()));
    return opts;
  }
};

TEST_P(DelayedParam, WccExactUnderDelay) {
  const Graph g = delay_graph();
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.labels(), ref::wcc(g));
  EXPECT_LE(r.max_staleness, options().delay.max_steps());
}

TEST_P(DelayedParam, SsspExactUnderDelay) {
  const Graph g = delay_graph();
  SsspProgram prog(0, 21);
  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  const auto expected = ref::sssp(g, 0, sssp_weights(g, 21));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FLOAT_EQ(prog.distances()[v], expected[v]) << "v=" << v;
  }
}

TEST_P(DelayedParam, BfsExactUnderDelayAsync) {
  const Graph g = delay_graph();
  BfsProgram prog(0);
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed_async(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.levels(), ref::bfs(g, 0));
  EXPECT_LE(r.max_staleness, options().delay.max_steps());
}

TEST_P(DelayedParam, PageRankNearFixedPointUnderDelay) {
  const Graph g = delay_graph();
  const auto expected = ref::pagerank(g, 0.85, 1e-10);
  PageRankProgram prog(1e-4f);
  EdgeDataArray<float> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed(g, prog, edges, options());
  EXPECT_TRUE(r.converged);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(prog.ranks()[v], expected[v], 0.05 * expected[v] + 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesThreadsDelays, DelayedParam,
    ::testing::Combine(::testing::Values(AtomicityMode::kRelaxed,
                                         AtomicityMode::kLocked),
                       ::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_t" +
             std::to_string(std::get<1>(param_info.param)) + "_d" +
             std::to_string(std::get<2>(param_info.param));
    });

// --- Delay policies ---

TEST(DelayedEngine, PoliciesConvergeAndRespectCeiling) {
  const Graph g = delay_graph();
  for (const DelayKind kind :
       {DelayKind::kFixed, DelayKind::kUniform, DelayKind::kPerThread}) {
    DelaySpec spec = fixed(4);
    spec.kind = kind;
    spec.jitter = 2;
    spec.seed = 13;
    EngineOptions opts;
    opts.num_threads = 4;
    opts.delay = spec;
    WccProgram prog;
    EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
    prog.init(g, edges);
    const EngineResult r = delay::run_delayed(g, prog, edges, opts);
    EXPECT_TRUE(r.converged) << to_string(kind);
    EXPECT_EQ(prog.labels(), ref::wcc(g)) << to_string(kind);
    EXPECT_LE(r.max_staleness, spec.max_steps()) << to_string(kind);
    EXPECT_GT(r.delayed_writes, 0u) << to_string(kind);
  }
}

TEST(DelayedEngine, TelemetryHistogramAccounts) {
  const Graph g = delay_graph();
  EngineOptions opts;
  opts.num_threads = 4;
  opts.delay = fixed(3);
  PageRankProgram prog(1e-4f);
  EdgeDataArray<float> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed(g, prog, edges, opts);
  EXPECT_TRUE(r.converged);
  std::uint64_t hist_sum = 0;
  for (const std::uint64_t c : r.staleness_hist) hist_sum += c;
  EXPECT_EQ(hist_sum, r.delayed_writes);
  EXPECT_GE(r.mean_staleness(), 0.0);
  EXPECT_LE(r.mean_staleness(),
            static_cast<double>(opts.delay.max_steps()));
}

// --- The skeleton's write-sink hook (engine/nondeterministic.hpp
// run_barriered) under shared worklists, and its per-iteration record ---

TEST(DelayedEngine, SharedWorklistsExactWithoutHubSplits) {
  const Graph g = delay_graph();
  const std::vector<std::uint32_t> expected_wcc = ref::wcc(g);
  const std::vector<float> expected_sssp = ref::sssp(g, 0, sssp_weights(g, 21));
  for (const SchedulerKind kind :
       {SchedulerKind::kStealing, SchedulerKind::kBucket}) {
    for (const std::size_t d : {1u, 5u}) {
      EngineOptions opts;
      opts.num_threads = 4;
      opts.scheduler = kind;
      opts.delay = fixed(d);
      // delay_graph()'s hubs exceed 4 in-edges, so SSSP (a gather program)
      // would split them under plain NE with these settings.
      opts.hub_threshold = 4;
      opts.hub_chunk_edges = 2;

      WccProgram wcc;
      EdgeDataArray<WccProgram::EdgeData> wcc_edges(g.num_edges());
      wcc.init(g, wcc_edges);
      const EngineResult rw = delay::run_delayed(g, wcc, wcc_edges, opts);
      EXPECT_TRUE(rw.converged) << to_string(kind) << " d=" << d;
      EXPECT_EQ(wcc.labels(), expected_wcc) << to_string(kind) << " d=" << d;
      EXPECT_GT(rw.delayed_writes, 0u);
      EXPECT_LE(rw.max_staleness, opts.delay.max_steps());

      SsspProgram sssp(0, 21);
      EdgeDataArray<SsspProgram::EdgeData> sssp_edges(g.num_edges());
      sssp.init(g, sssp_edges);
      const EngineResult rs = delay::run_delayed(g, sssp, sssp_edges, opts);
      EXPECT_TRUE(rs.converged) << to_string(kind) << " d=" << d;
      EXPECT_EQ(sssp.distances(), expected_sssp)
          << to_string(kind) << " d=" << d;
      EXPECT_EQ(rs.hub_splits, 0u);
      EXPECT_EQ(rs.hub_chunks, 0u);

      // Plain NE (d = 0 dispatches to it) on the same Graph still splits.
      EngineOptions plain = opts;
      plain.delay = fixed(0);
      SsspProgram base(0, 21);
      EdgeDataArray<SsspProgram::EdgeData> base_edges(g.num_edges());
      base.init(g, base_edges);
      const EngineResult rp = delay::run_delayed(g, base, base_edges, plain);
      EXPECT_EQ(base.distances(), expected_sssp);
      EXPECT_GT(rp.hub_splits, 0u);
    }
  }
}

// One thread makes the delayed run deterministic, so its per-iteration
// record can be pinned. d = 16 leaves a drain round (the 0 in the sizes) and
// a spread of observed staleness. The values were recorded before the three
// NE loops were folded into run_barriered.
TEST(DelayedEngine, SingleThreadRecordIsPinned) {
  const Graph g = delay_graph();
  EngineOptions opts;
  opts.num_threads = 1;
  opts.delay = fixed(16);
  SsspProgram prog(0, 21);
  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const EngineResult r = delay::run_delayed(g, prog, edges, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(r.updates, 487u);
  EXPECT_EQ(r.delayed_writes, 1654u);
  EXPECT_EQ(r.frontier_sizes,
            (std::vector<std::uint64_t>{13, 0, 124, 152, 139, 58, 1}));
  EXPECT_EQ(r.staleness_hist,
            (std::vector<std::uint64_t>{0, 11, 4, 16, 5, 25, 76, 44, 36, 5,
                                        15, 38, 1, 0, 0, 0, 1378}));
}

// --- Cross-validation against the logical simulator ---

TEST(DelayedEngine, SimulatorConvergenceParityAcrossRegistry) {
  // The delayed engine and the schedule-model simulator must hand every
  // registry program the same convergence outcome at the same d. For the
  // proven-eligible programs (Theorems 1 & 2) that outcome must be
  // "converged" at every bounded d — the delay-oblivious claim itself.
  const Graph g = delay_graph();
  for (const auto& entry : algorithm_registry(/*source=*/0, 200000)) {
    if (entry.static_verdict == EligibilityVerdict::kNotProven ||
        entry.static_conditional) {
      continue;  // no convergence guarantee to compare on either side
    }
    for (const std::size_t d : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      EngineOptions eopts;
      eopts.num_threads = 4;
      eopts.delay = fixed(d);
      const EngineResult eng = entry.run_delayed(g, eopts);

      SimOptions sopts;
      sopts.num_procs = 4;
      sopts.delay = d;
      sopts.seed = 3;
      const SimResult sim = entry.run_sim(g, sopts);

      EXPECT_TRUE(eng.converged) << entry.name << " d=" << d;
      EXPECT_TRUE(sim.converged) << entry.name << " d=" << d;
      EXPECT_EQ(eng.converged, sim.converged) << entry.name << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace ndg
