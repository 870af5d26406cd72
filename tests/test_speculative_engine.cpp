// Speculative engine tests (docs/SPECULATION.md): the rollback engine's whole
// contract is that its parallel result equals the sequential greedy-by-id
// oracle EXACTLY — at every thread count, on every graph shape — and that its
// round/commit/abort telemetry is timing-independent (a function of
// footprints and id order only). Also pins golden counts, checks the resolve
// sweep on hand-built lanes, and covers the engine's round-cap behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "algorithms/greedy_coloring.hpp"
#include "algorithms/matching.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/reference/references.hpp"
#include "engine/speculative.hpp"
#include "graph/generators.hpp"

namespace ndg {
namespace {

// The three shapes: a scale-free multigraph (hubs, duplicate edges, self
// loops from rmat), a regular planar-ish grid, and a chain (the worst case
// for id-ordered decisions: a single dependency path).
Graph rmat_graph() { return Graph::build(256, gen::rmat(256, 2000, 7)); }
Graph grid_graph() { return Graph::build(12 * 11, gen::grid2d(12, 11)); }
Graph chain_graph() { return Graph::build(96, gen::chain(96)); }

EngineOptions opts_for(std::size_t threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.max_iterations = 500000;
  return opts;
}

template <typename Program>
EngineResult run_spec(const Graph& g, Program& prog, std::size_t threads) {
  EdgeDataArray<typename Program::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  return run_speculative(g, prog, edges, opts_for(threads));
}

// ---------------------------------------------------------------------------
// Oracle exactness at 1, 4, and 8 threads (pinned), per algorithm x shape.

void expect_matching_exact(const Graph& g, std::size_t threads) {
  MatchingProgram prog;
  const EngineResult r = run_spec(g, prog, threads);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.match(), ref::greedy_matching(g))
      << "threads=" << threads;
}

void expect_coloring_exact(const Graph& g, std::size_t threads) {
  GreedyColoringProgram prog;
  const EngineResult r = run_spec(g, prog, threads);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.colors(), ref::greedy_coloring(g)) << "threads=" << threads;
}

void expect_mis_exact(const Graph& g, std::size_t threads) {
  MisProgram prog;
  const EngineResult r = run_spec(g, prog, threads);
  EXPECT_TRUE(r.converged);
  const auto ref_in = ref::greedy_mis(g);
  ASSERT_EQ(ref_in.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(prog.states()[v] == MisProgram::kIn, ref_in[v] != 0)
        << "v=" << v << " threads=" << threads;
  }
}

TEST(SpeculativeOracle, MatchingExactAllThreadCounts) {
  for (const std::size_t nt : {1u, 4u, 8u}) {
    expect_matching_exact(rmat_graph(), nt);
    expect_matching_exact(grid_graph(), nt);
    expect_matching_exact(chain_graph(), nt);
  }
}

TEST(SpeculativeOracle, ColoringExactAllThreadCounts) {
  for (const std::size_t nt : {1u, 4u, 8u}) {
    expect_coloring_exact(rmat_graph(), nt);
    expect_coloring_exact(grid_graph(), nt);
    expect_coloring_exact(chain_graph(), nt);
  }
}

TEST(SpeculativeOracle, MisExactAllThreadCounts) {
  for (const std::size_t nt : {1u, 4u, 8u}) {
    expect_mis_exact(rmat_graph(), nt);
    expect_mis_exact(grid_graph(), nt);
    expect_mis_exact(chain_graph(), nt);
  }
}

// ---------------------------------------------------------------------------
// Telemetry is deterministic: rounds, commits, and aborts are decided by
// footprints and id order alone, so every thread count reports the SAME
// numbers — which is what lets CI gate them (unlike wall time).

TEST(SpeculativeTelemetry, RoundsCommitsAbortsThreadCountInvariant) {
  const Graph g = rmat_graph();
  GreedyColoringProgram base;
  const EngineResult ref_r = run_spec(g, base, 1);
  for (const std::size_t nt : {2u, 4u, 8u}) {
    GreedyColoringProgram prog;
    const EngineResult r = run_spec(g, prog, nt);
    EXPECT_EQ(r.iterations, ref_r.iterations) << "threads=" << nt;
    EXPECT_EQ(r.spec_commits, ref_r.spec_commits) << "threads=" << nt;
    EXPECT_EQ(r.spec_aborts, ref_r.spec_aborts) << "threads=" << nt;
  }
}

TEST(SpeculativeTelemetry, CommitsPlusAbortsIsUpdates) {
  const Graph g = grid_graph();
  MatchingProgram prog;
  const EngineResult r = run_spec(g, prog, 4);
  EXPECT_GT(r.spec_commits, 0u);
  // A grid has plenty of adjacent same-round speculation: conflicts (and so
  // aborts) must actually occur, or the conflict detector is dead code.
  EXPECT_GT(r.spec_aborts, 0u);
  EXPECT_EQ(r.spec_commits + r.spec_aborts, r.updates);
  EXPECT_GT(r.abort_rate(), 0.0);
  EXPECT_LT(r.abort_rate(), 1.0);
}

TEST(SpeculativeTelemetry, AbortRateZeroWhenUntouched) {
  const EngineResult r{};
  EXPECT_EQ(r.abort_rate(), 0.0);
}

// The round cap is honoured: one round cannot finish a chain's id-ordered
// decision cascade, so the run reports non-convergence (and still keeps the
// partial telemetry consistent).
TEST(SpeculativeEngine, RoundCapReportsNonConvergence) {
  const Graph g = chain_graph();
  MisProgram prog;
  EdgeDataArray<MisProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  EngineOptions opts = opts_for(4);
  opts.max_iterations = 1;
  const EngineResult r = run_speculative(g, prog, edges, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(r.spec_commits + r.spec_aborts, r.updates);
}

// Smallest-id progress guarantee: even on the pure dependency chain every
// round commits at least one vertex, so the engine terminates in <= |V|-ish
// rounds rather than livelocking on conflicts.
TEST(SpeculativeEngine, ChainTerminatesWithinLinearRounds) {
  const Graph g = chain_graph();
  GreedyColoringProgram prog;
  const EngineResult r = run_spec(g, prog, 8);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, static_cast<std::size_t>(g.num_vertices()) + 2);
}

// Tiny hand-checkable instance: path 0-1-2. Greedy by id: 0 matches 1,
// 2 stays free; colors 0,1,0; MIS {0,2}.
TEST(SpeculativeEngine, HandCheckedPath3) {
  const Graph g = Graph::build(3, gen::chain(3));
  {
    MatchingProgram prog;
    run_spec(g, prog, 4);
    EXPECT_EQ(prog.match()[0], 1u);
    EXPECT_EQ(prog.match()[1], 0u);
    EXPECT_EQ(prog.match()[2], kInvalidVertex);
  }
  {
    GreedyColoringProgram prog;
    run_spec(g, prog, 4);
    const std::vector<std::uint32_t> want{0, 1, 0};
    EXPECT_EQ(prog.colors(), want);
  }
  {
    MisProgram prog;
    run_spec(g, prog, 4);
    EXPECT_EQ(prog.states()[0], MisProgram::kIn);
    EXPECT_EQ(prog.states()[1], MisProgram::kOut);
    EXPECT_EQ(prog.states()[2], MisProgram::kIn);
  }
}

// Golden counts on the web-google-sim stand-in at scale 256 (the perfbench
// spec-coloring and ablation_speculative input). Round, commit and abort
// counts are a function of footprints and id order alone, so an engine
// rewrite that changes any of them changed a commit/abort decision.
struct GoldenCounts {
  std::size_t rounds;
  std::uint64_t commits;
  std::uint64_t aborts;
};

template <typename Program>
void expect_golden(const Graph& g, const GoldenCounts& want) {
  for (const std::size_t nt : {1u, 2u, 4u}) {
    Program prog;
    const EngineResult r = run_spec(g, prog, nt);
    EXPECT_TRUE(r.converged) << "threads=" << nt;
    EXPECT_EQ(r.iterations, want.rounds) << "threads=" << nt;
    EXPECT_EQ(r.spec_commits, want.commits) << "threads=" << nt;
    EXPECT_EQ(r.spec_aborts, want.aborts) << "threads=" << nt;
    EXPECT_EQ(r.frontier_sizes.size(), want.rounds) << "threads=" << nt;
    ASSERT_EQ(r.per_thread_updates.size(), nt);
    EXPECT_EQ(std::accumulate(r.per_thread_updates.begin(),
                              r.per_thread_updates.end(), std::uint64_t{0}),
              r.updates)
        << "threads=" << nt;
  }
}

TEST(SpeculativeTelemetry, GoldenCountsWebGoogleScale256) {
  const Graph g = Graph::build(3579, gen::rmat(3579, 19941, 20150708));
  expect_golden<MatchingProgram>(g, {791, 3579, 1043266});
  expect_golden<GreedyColoringProgram>(g, {928, 20620, 1160970});
  expect_golden<MisProgram>(g, {928, 20620, 1160970});
}

// ---------------------------------------------------------------------------
// The resolve sweep on hand-built lanes over the path 0 -> 1 -> 2 -> 3 -> 4,
// where N(2) = {1, 3} through one in-edge and one out-edge.

class ResolveLane : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRound = 3;

  void add(VertexId v, std::initializer_list<VertexId> reads,
           std::initializer_list<VertexId> writes) {
    lane_.reads.insert(lane_.reads.end(), reads);
    lane_.writes.insert(lane_.writes.end(), writes);
    lane_.items.push_back(
        SpecItem{v, static_cast<std::uint32_t>(lane_.reads.size()),
                 static_cast<std::uint32_t>(lane_.writes.size()), false});
  }

  void resolve() { resolve_speculative_lane(g_, lane_, dirty_, kRound, res_); }

  [[nodiscard]] std::vector<VertexId> dirtied() const {
    std::vector<VertexId> out;
    for (VertexId u = 0; u < dirty_.size(); ++u) {
      if (dirty_[u] == kRound) out.push_back(u);
    }
    return out;
  }

  Graph g_ = Graph::build(5, gen::chain(5));
  std::vector<std::uint32_t> dirty_ = std::vector<std::uint32_t>(5, 0);
  SpecLog lane_;
  SpecResolution res_;
};

TEST_F(ResolveLane, FirstReadDirtyAbortsAndPoisonsNeighborhood) {
  dirty_[1] = kRound;  // a smaller item dirtied 1 earlier this round
  add(2, {1, 3}, {3});
  resolve();
  EXPECT_FALSE(lane_.items[0].committed);
  EXPECT_EQ(res_.aborts, 1u);
  EXPECT_EQ(res_.commits, 0u);
  EXPECT_EQ(dirtied(), (std::vector<VertexId>{1, 2, 3}));
}

TEST_F(ResolveLane, CommitWithoutWritesLeavesVertexClean) {
  dirty_[2] = kRound - 1;  // stale stamp from an earlier round
  add(2, {1, 3}, {});
  resolve();
  EXPECT_TRUE(lane_.items[0].committed);
  EXPECT_EQ(res_.commits, 1u);
  EXPECT_EQ(dirty_[2], kRound - 1);
  EXPECT_TRUE(dirtied().empty());
}

TEST_F(ResolveLane, CommitWithWritesDirtiesVertexAndWriteLogOnly) {
  add(2, {1, 3}, {3});
  resolve();
  EXPECT_TRUE(lane_.items[0].committed);
  EXPECT_EQ(res_.commits, 1u);
  EXPECT_EQ(dirtied(), (std::vector<VertexId>{2, 3}));
}

// Items slice the lane's logs by the previous item's ends: a later item sees
// an earlier one's marks, and its own read slice decides its fate.
TEST_F(ResolveLane, LaterItemSeesEarlierWrites) {
  add(0, {1}, {});   // commits, marks nothing
  add(2, {1, 3}, {3});  // commits, marks 2 and 3
  add(4, {3}, {});   // reads 3: aborts, poisons {3, 4}
  resolve();
  EXPECT_TRUE(lane_.items[0].committed);
  EXPECT_TRUE(lane_.items[1].committed);
  EXPECT_FALSE(lane_.items[2].committed);
  EXPECT_EQ(res_.commits, 2u);
  EXPECT_EQ(res_.aborts, 1u);
  EXPECT_EQ(dirtied(), (std::vector<VertexId>{2, 3, 4}));
}

}  // namespace
}  // namespace ndg
