// Direction-optimizing engine tests (engine/direction.hpp): exactness of
// pull / push / auto against the sequential references across thread counts
// and frontier-density divisors, the per-iteration direction telemetry, the
// pull-pinning of push-incapable programs, and an intra-iteration MIXED
// pull/push schedule (some vertices pulled, some pushed, concurrently) —
// the schedule the kSwitchable verdict licenses — run racy at 4 threads and
// checked exact, plus manifest-enforced under the merged manifest.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "analysis/direction_eligibility.hpp"
#include "analysis/validate.hpp"
#include "engine/direction.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"

namespace ndg {
namespace {

Graph test_graph() { return Graph::build(256, gen::rmat(256, 2048, 11)); }

template <typename Program, typename... Args>
EngineResult run_dir(const Graph& g, const EngineOptions& opts, Program& prog) {
  EdgeDataArray<typename Program::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  return run_direction_optimizing(g, prog, edges, opts);
}

EngineOptions make_opts(std::size_t threads, DirectionMode dir,
                        std::size_t divisor = 8) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.direction = dir;
  opts.frontier_dense_divisor = divisor;
  return opts;
}

TEST(DirectionEngine, BfsExactInEveryDirectionAndThreadCount) {
  const Graph g = test_graph();
  const VertexId source = 0;
  const std::vector<std::uint32_t> expected = ref::bfs(g, source);
  for (const std::size_t threads : {1u, 4u}) {
    for (const DirectionMode dir :
         {DirectionMode::kPull, DirectionMode::kPush, DirectionMode::kAuto}) {
      BfsProgram prog(source);
      const EngineResult r = run_dir(g, make_opts(threads, dir), prog);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(prog.levels(), expected)
          << "threads=" << threads << " dir=" << to_string(dir);
      // Telemetry invariants.
      ASSERT_EQ(r.direction_push.size(), r.iterations);
      if (dir == DirectionMode::kPull) {
        EXPECT_EQ(r.push_iterations(), 0u);
        EXPECT_EQ(r.direction_switches, 0u);
      }
      if (dir == DirectionMode::kPush) {
        EXPECT_EQ(r.push_iterations(), r.iterations);
        EXPECT_EQ(r.direction_switches, 0u);
      }
      if (dir == DirectionMode::kAuto) {
        // The auto decision IS the density signal, iteration by iteration.
        ASSERT_EQ(r.frontier_dense.size(), r.iterations);
        for (std::size_t i = 0; i < r.iterations; ++i) {
          EXPECT_EQ(r.direction_push[i] == 1, r.frontier_dense[i] == 0) << i;
        }
      }
    }
  }
}

TEST(DirectionEngine, SsspExactInEveryDirection) {
  const Graph g = test_graph();
  const VertexId source = 0;
  const std::uint64_t wseed = 42;
  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(wseed, e);
  }
  const std::vector<float> expected = ref::sssp(g, source, weights);
  for (const std::size_t threads : {1u, 4u}) {
    for (const DirectionMode dir :
         {DirectionMode::kPull, DirectionMode::kPush, DirectionMode::kAuto}) {
      SsspProgram prog(source, wseed);
      const EngineResult r = run_dir(g, make_opts(threads, dir), prog);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(prog.distances(), expected)
          << "threads=" << threads << " dir=" << to_string(dir);
    }
  }
}

TEST(DirectionEngine, WccExactInEveryDirection) {
  const Graph g = test_graph();
  const std::vector<std::uint32_t> expected = ref::wcc(g);
  for (const std::size_t threads : {1u, 4u}) {
    for (const DirectionMode dir :
         {DirectionMode::kPull, DirectionMode::kPush, DirectionMode::kAuto}) {
      WccProgram prog;
      const EngineResult r = run_dir(g, make_opts(threads, dir), prog);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(prog.labels(), expected)
          << "threads=" << threads << " dir=" << to_string(dir);
    }
  }
}

TEST(DirectionEngine, DivisorMovesTheSwitchPointExactly) {
  // The divisor scales the dense threshold (|S|*divisor > V), so sweeping it
  // moves auto's pull/push split; the committed result must not move at all.
  const Graph g = test_graph();
  const std::vector<std::uint32_t> expected = ref::bfs(g, 0);
  std::vector<std::uint64_t> push_iters;
  for (const std::size_t divisor : {1u, 4u, 64u}) {
    BfsProgram prog(0);
    const EngineResult r =
        run_dir(g, make_opts(4, DirectionMode::kAuto, divisor), prog);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(prog.levels(), expected) << "divisor=" << divisor;
    push_iters.push_back(r.push_iterations());
  }
  // A larger divisor makes the frontier go dense earlier → no more push
  // iterations than with a smaller divisor (weakly monotone).
  EXPECT_LE(push_iters[2], push_iters[0]);
}

TEST(DirectionEngine, PushIncapableProgramsArePinnedToPull) {
  const Graph g = test_graph();
  PageRankProgram prog(1e-3f);
  const EngineResult r = run_dir(g, make_opts(4, DirectionMode::kAuto), prog);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.direction_push.size(), r.iterations);
  EXPECT_EQ(r.push_iterations(), 0u);
  EXPECT_EQ(r.direction_switches, 0u);
}

// The schedule kSwitchable actually licenses: directions mixed WITHIN one
// iteration. Even vertices run the pull body, odd vertices the push body,
// concurrently on the plain NE engine — the access shape of this schedule is
// exactly the merged manifest, which is what the cross-direction check
// proved a theorem for. Run racy at 4 threads (the TSan CI job executes this
// test), and checked exact.
template <typename P>
class MixedScheduleProgram {
 public:
  using EdgeData = typename P::EdgeData;
  static constexpr bool kMonotonic = P::kMonotonic;
  static constexpr AccessManifest kManifest =
      StaticDirectionEligibility<P>::kMixedManifest;

  template <typename... Args>
  explicit MixedScheduleProgram(Args... args) : inner_(args...) {}

  [[nodiscard]] const char* name() const { return "mixed-schedule"; }

  void init(const Graph& g, EdgeDataArray<EdgeData>& edges) {
    inner_.init(g, edges);
  }

  [[nodiscard]] std::vector<VertexId> initial_frontier(const Graph& g) const {
    return inner_.initial_frontier(g);
  }

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    if (v % 2 == 0) {
      inner_.update(v, ctx);
    } else {
      inner_.update_push(v, ctx);
    }
  }

  static double project(EdgeData e) { return P::project(e); }

  [[nodiscard]] const P& inner() const { return inner_; }

 private:
  P inner_;
};

TEST(DirectionEngine, IntraIterationMixedScheduleIsExactUnderNE) {
  const Graph g = test_graph();
  const std::vector<std::uint32_t> expected_bfs = ref::bfs(g, 0);
  const std::vector<std::uint32_t> expected_wcc = ref::wcc(g);

  EngineOptions opts;
  opts.num_threads = 4;

  MixedScheduleProgram<BfsProgram> bfs(VertexId{0});
  {
    EdgeDataArray<std::uint32_t> edges(g.num_edges());
    bfs.init(g, edges);
    const EngineResult r = run_nondeterministic(g, bfs, edges, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(bfs.inner().levels(), expected_bfs);
  }

  MixedScheduleProgram<WccProgram> wcc;
  {
    EdgeDataArray<std::uint32_t> edges(g.num_edges());
    wcc.init(g, edges);
    const EngineResult r = run_nondeterministic(g, wcc, edges, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(wcc.inner().labels(), expected_wcc);
  }
}

TEST(DirectionEngine, MergedManifestCoversTheMixedSchedule) {
  // The manifest-enforcement bridge for the mixed argument: one
  // deterministic run of the parity-mixed schedule under VerifyingAccess
  // against the MERGED manifest stays violation-free — the union shape
  // really does bound every pull/push pairing.
  const Graph g = test_graph();
  MixedScheduleProgram<BfsProgram> bfs(VertexId{0});
  EXPECT_TRUE(validate_manifest(g, bfs, 1000).ok());
  MixedScheduleProgram<WccProgram> wcc;
  EXPECT_TRUE(validate_manifest(g, wcc, 1000).ok());
}

// --- The skeleton's direction hook (engine/nondeterministic.hpp
// run_barriered) under shared worklists, and its per-iteration record ---

EngineOptions shared_opts(SchedulerKind kind, DirectionMode dir) {
  EngineOptions opts = make_opts(4, dir);
  opts.scheduler = kind;
  // test_graph() has in-degrees far above 8, so a gather program splits hubs
  // under plain NE with these settings.
  opts.hub_threshold = 8;
  opts.hub_chunk_edges = 4;
  return opts;
}

std::vector<float> sssp_weights(const Graph& g, std::uint64_t seed) {
  std::vector<float> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    w[e] = SsspProgram::edge_weight(seed, e);
  }
  return w;
}

TEST(DirectionEngine, SharedWorklistsExactWithoutHubSplits) {
  const Graph g = test_graph();
  const std::vector<std::uint32_t> expected_bfs = ref::bfs(g, 0);
  const std::vector<std::uint32_t> expected_wcc = ref::wcc(g);
  const std::vector<float> expected_sssp = ref::sssp(g, 0, sssp_weights(g, 42));
  for (const SchedulerKind kind :
       {SchedulerKind::kStealing, SchedulerKind::kBucket}) {
    for (const DirectionMode dir : {DirectionMode::kAuto, DirectionMode::kPush}) {
      const EngineOptions opts = shared_opts(kind, dir);
      const std::string label =
          std::string(to_string(kind)) + "/" + to_string(dir);

      BfsProgram bfs(0);
      const EngineResult rb = run_dir(g, opts, bfs);
      EXPECT_TRUE(rb.converged) << label;
      EXPECT_EQ(bfs.levels(), expected_bfs) << label;
      ASSERT_EQ(rb.direction_push.size(), rb.iterations) << label;
      if (dir == DirectionMode::kPush) {
        EXPECT_EQ(rb.push_iterations(), rb.iterations) << label;
      }

      WccProgram wcc;
      const EngineResult rw = run_dir(g, opts, wcc);
      EXPECT_TRUE(rw.converged) << label;
      EXPECT_EQ(wcc.labels(), expected_wcc) << label;
      ASSERT_EQ(rw.direction_push.size(), rw.iterations) << label;

      // SSSP declares the gather decomposition, so only the hook keeps the
      // direction engine from splitting its hubs.
      SsspProgram sssp(0, 42);
      const EngineResult rs = run_dir(g, opts, sssp);
      EXPECT_TRUE(rs.converged) << label;
      EXPECT_EQ(sssp.distances(), expected_sssp) << label;
      EXPECT_EQ(rs.hub_splits, 0u) << label;
      EXPECT_EQ(rs.hub_chunks, 0u) << label;
    }
  }

  // Plain NE on the same Graph, program and options still splits.
  SsspProgram sssp(0, 42);
  EdgeDataArray<SsspProgram::EdgeData> edges(g.num_edges());
  sssp.init(g, edges);
  const EngineResult r = run_nondeterministic(
      g, sssp, edges, shared_opts(SchedulerKind::kStealing, DirectionMode::kAuto));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(sssp.distances(), expected_sssp);
  EXPECT_GT(r.hub_splits, 0u);
  EXPECT_TRUE(r.direction_push.empty());
}

// One thread makes the run deterministic, so the per-iteration record can be
// pinned. The values were recorded before the three NE loops were folded
// into run_barriered.
TEST(DirectionEngine, SingleThreadRecordIsPinned) {
  const Graph g = test_graph();
  const std::vector<std::uint64_t> kSizes = {5, 100, 172, 90, 2};

  BfsProgram dir_prog(0);
  const EngineResult dir =
      run_dir(g, make_opts(1, DirectionMode::kAuto), dir_prog);
  EXPECT_EQ(dir.frontier_sizes, kSizes);
  EXPECT_EQ(dir.direction_push, (std::vector<std::uint8_t>{1, 0, 0, 0, 1}));
  EXPECT_EQ(dir.direction_switches, 2u);
  EXPECT_EQ(dir.updates, 369u);

  // Plain NE ignores opts.direction: same rounds, no direction record.
  BfsProgram plain_prog(0);
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  plain_prog.init(g, edges);
  const EngineResult plain = run_nondeterministic(
      g, plain_prog, edges, make_opts(1, DirectionMode::kPush));
  EXPECT_EQ(plain.frontier_sizes, kSizes);
  EXPECT_TRUE(plain.direction_push.empty());
  EXPECT_EQ(plain.direction_switches, 0u);
  EXPECT_EQ(plain.updates, 369u);
}

}  // namespace
}  // namespace ndg
