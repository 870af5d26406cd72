// Hybrid frontier (engine/frontier.hpp): representation switching must be
// invisible to everything but the clock. Covers the sparse<->dense switch
// points, the ascending-label guarantee in both representations, the
// seed/advance/empty invariants, interval queries for the out-of-core
// engine, concurrent schedule() into the two-level schedule bitmap, and an
// engine matrix asserting identical converged results across every
// FrontierPolicy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "engine/bsp.hpp"
#include "engine/frontier.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/rng.hpp"
#include "util/thread_team.hpp"

namespace ndg {
namespace {

std::vector<VertexId> drain(const Frontier& f) {
  std::vector<VertexId> out;
  f.for_each([&](std::size_t v) { out.push_back(static_cast<VertexId>(v)); });
  return out;
}

TEST(FrontierHybrid, ParsesAndPrintsPolicies) {
  EXPECT_EQ(parse_frontier_policy("sparse"), FrontierPolicy::kSparse);
  EXPECT_EQ(parse_frontier_policy("dense"), FrontierPolicy::kDense);
  EXPECT_EQ(parse_frontier_policy("auto"), FrontierPolicy::kAuto);
  EXPECT_FALSE(parse_frontier_policy("bitmap").has_value());
  EXPECT_STREQ(to_string(FrontierPolicy::kSparse), "sparse");
  EXPECT_STREQ(to_string(FrontierPolicy::kDense), "dense");
  EXPECT_STREQ(to_string(FrontierPolicy::kAuto), "auto");
}

TEST(FrontierHybrid, SeedInvariantsBothRepresentations) {
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense}) {
    Frontier f(100, policy);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    // Duplicates and disorder must be tolerated.
    f.seed({7, 3, 3, 99, 7, 0});
    EXPECT_FALSE(f.empty());
    EXPECT_EQ(f.size(), 4u);
    EXPECT_EQ(f.dense(), policy == FrontierPolicy::kDense);
    EXPECT_EQ(drain(f), (std::vector<VertexId>{0, 3, 7, 99}));
  }
}

TEST(FrontierHybrid, AutoSwitchesAtTheDivisorThreshold) {
  // V = 800, divisor = 8: dense iff |S_n| * 8 > 800, i.e. |S_n| >= 101.
  Frontier f(800, FrontierPolicy::kAuto, 8);

  std::vector<VertexId> small(100);
  for (VertexId v = 0; v < 100; ++v) small[v] = v * 7;
  f.seed(small);
  EXPECT_FALSE(f.dense()) << "|S| * divisor == V must stay sparse";
  EXPECT_EQ(f.size(), 100u);

  std::vector<VertexId> big(101);
  for (VertexId v = 0; v < 101; ++v) big[v] = v * 7;
  f.seed(big);
  EXPECT_TRUE(f.dense()) << "|S| * divisor > V must go dense";
  EXPECT_EQ(f.size(), 101u);

  // And advance() re-decides every iteration: a dense frontier that shrinks
  // must come back sparse.
  f.schedule(42);
  f.advance();
  EXPECT_FALSE(f.dense());
  EXPECT_EQ(drain(f), (std::vector<VertexId>{42}));
}

TEST(FrontierHybrid, AdvanceIsAscendingInBothRepresentations) {
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense}) {
    Frontier f(1000, policy);
    // Schedule in adversarial (descending, straddling word boundaries) order.
    for (const VertexId v : {999u, 64u, 63u, 65u, 0u, 512u, 1u}) {
      f.schedule(v);
    }
    f.advance();
    const auto got = drain(f);
    EXPECT_EQ(got, (std::vector<VertexId>{0, 1, 63, 64, 65, 512, 999}))
        << to_string(policy);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << to_string(policy);
    // Word-partitioned dense sweeps must concatenate to the same ascending
    // sequence (this is what gives each thread a contiguous label block).
    if (f.dense()) {
      std::vector<VertexId> stitched;
      const std::size_t mid = f.num_words() / 2;
      f.for_each_in_words(0, mid, [&](std::size_t v) {
        stitched.push_back(static_cast<VertexId>(v));
      });
      f.for_each_in_words(mid, f.num_words(), [&](std::size_t v) {
        stitched.push_back(static_cast<VertexId>(v));
      });
      EXPECT_EQ(stitched, got);
    }
  }
}

TEST(FrontierHybrid, AdvanceDrainsToEmpty) {
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense,
        FrontierPolicy::kAuto}) {
    Frontier f(64, policy);
    f.seed({1, 2, 3});
    f.advance();  // nothing scheduled -> S_{n+1} empty
    EXPECT_TRUE(f.empty()) << to_string(policy);
    EXPECT_EQ(f.size(), 0u) << to_string(policy);
    EXPECT_EQ(drain(f), std::vector<VertexId>{}) << to_string(policy);
  }
}

TEST(FrontierHybrid, CollectRangeMatchesBothRepresentations) {
  const std::vector<VertexId> members = {0, 1, 63, 64, 65, 100, 130, 199};
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense}) {
    Frontier f(200, policy);
    for (const VertexId v : members) f.schedule(v);
    f.advance();
    // Interval boundaries chosen to hit word-aligned and unaligned cases.
    const std::pair<VertexId, VertexId> ranges[] = {
        {0, 200}, {0, 64}, {64, 128}, {63, 66}, {101, 130}, {150, 160}};
    for (const auto& [lo, hi] : ranges) {
      std::vector<VertexId> got;
      f.collect_range(lo, hi, got);
      std::vector<VertexId> want;
      for (const VertexId v : members) {
        if (v >= lo && v < hi) want.push_back(v);
      }
      EXPECT_EQ(got, want) << to_string(policy) << " [" << lo << "," << hi
                           << ")";
    }
  }
}

// Four threads schedule random, overlapping sets into S_{n+1} (each thread
// also replays its neighbour's list, so the same bits and summary bits race),
// over consecutive advance() calls. Sizes straddle partial words (V = 1, 63,
// 4097) and partial summary words (V = 4097, 262145: 65 and 4097 words). The
// round after the full set is an empty advance: a stale word or summary bit
// left by the dense hand-off would show up there or in the round after it.
TEST(FrontierHybrid, ConcurrentScheduleYieldsSortedUnion) {
  constexpr std::size_t kThreads = 4;
  // Per-thread draws per round, as a fraction of V; -1 schedules every vertex.
  constexpr double kRounds[] = {0.5, 0.001, -1, 0, 0.001, 0.3, 0.01};
  for (const VertexId n : {1u, 63u, 64u, 4097u, 262145u}) {
    for (const FrontierPolicy policy :
         {FrontierPolicy::kSparse, FrontierPolicy::kDense,
          FrontierPolicy::kAuto}) {
      Frontier f(n, policy);
      Xoshiro256 rng(n * 3 + static_cast<std::uint64_t>(policy));
      for (std::size_t round = 0; round < std::size(kRounds); ++round) {
        const std::string label = std::string(to_string(policy)) + " V=" +
                                  std::to_string(n) + " round " +
                                  std::to_string(round);
        const double frac = kRounds[round];
        const std::size_t k =
            frac > 0 ? static_cast<std::size_t>(frac * n) + 1 : 0;
        std::vector<std::vector<VertexId>> draws(kThreads);
        std::vector<VertexId> want;
        for (auto& list : draws) {
          if (frac < 0) {
            for (VertexId v = n; v-- > 0;) list.push_back(v);
          }
          for (std::size_t i = 0; i < k; ++i) {
            list.push_back(static_cast<VertexId>(rng.next() % n));
          }
          want.insert(want.end(), list.begin(), list.end());
        }
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());

        run_team(kThreads, [&](std::size_t tid) {
          for (const VertexId v : draws[tid]) f.schedule(v);
          for (const VertexId v : draws[(tid + 1) % kThreads]) f.schedule(v);
        });
        f.advance();

        ASSERT_EQ(f.size(), want.size()) << label;
        ASSERT_EQ(f.empty(), want.empty()) << label;
        const bool dense =
            policy == FrontierPolicy::kDense  ? !want.empty()
            : policy == FrontierPolicy::kAuto ? want.size() * 8 > n
                                              : false;
        ASSERT_EQ(f.dense(), dense) << label;
        if (f.dense()) {
          std::vector<VertexId> got;
          const std::size_t mid = f.num_words() / 2;
          for (const auto& [wb, we] : {std::pair{std::size_t{0}, mid},
                                       std::pair{mid, f.num_words()}}) {
            f.for_each_in_words(wb, we, [&](std::size_t v) {
              got.push_back(static_cast<VertexId>(v));
            });
          }
          ASSERT_EQ(got, want) << label;
        } else {
          ASSERT_EQ(f.current(), want) << label;
        }
        ASSERT_EQ(drain(f), want) << label;
      }
    }
  }
}

// Engine matrix: PageRank and SSSP must converge to identical fixed points
// under every frontier policy — on NE (multi-threaded, shared worklist too)
// and on BSP (bit-exact because the update order is representation-blind).
TEST(FrontierHybrid, EngineResultsIdenticalAcrossPolicies) {
  EdgeList el = gen::rmat(/*n=*/512, /*m=*/4096, /*seed=*/99);
  const Graph g = Graph::build(512, std::move(el));
  const auto expected_pr = ref::pagerank(g, 0.85, 1e-10);
  const VertexId source = max_out_degree_vertex(g);
  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(42, e);
  }
  const auto expected_sssp = ref::sssp(g, source, weights);

  std::vector<float> bsp_baseline_ranks;
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense,
        FrontierPolicy::kAuto}) {
    const std::string label = to_string(policy);
    EngineOptions opts;
    opts.num_threads = 4;
    opts.scheduler = SchedulerKind::kStealing;
    opts.frontier_policy = policy;

    {
      PageRankProgram prog(1e-4f);
      EdgeDataArray<float> edges(g.num_edges());
      prog.init(g, edges);
      const EngineResult r = run_nondeterministic(g, prog, edges, opts);
      ASSERT_TRUE(r.converged) << label;
      ASSERT_EQ(r.frontier_dense.size(), r.frontier_sizes.size()) << label;
      if (policy == FrontierPolicy::kDense) {
        EXPECT_NE(std::count(r.frontier_dense.begin(), r.frontier_dense.end(),
                             std::uint8_t{1}),
                  0)
            << label;
      }
      if (policy == FrontierPolicy::kSparse) {
        EXPECT_EQ(std::count(r.frontier_dense.begin(), r.frontier_dense.end(),
                             std::uint8_t{1}),
                  0)
            << label;
      }
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_NEAR(prog.ranks()[v], expected_pr[v],
                    0.05 * expected_pr[v] + 0.01)
            << label << " vertex " << v;
      }
    }
    {
      SsspProgram prog(source, 42);
      EdgeDataArray<SsspEdge> edges(g.num_edges());
      prog.init(g, edges);
      const EngineResult r = run_nondeterministic(g, prog, edges, opts);
      ASSERT_TRUE(r.converged) << label;
      EXPECT_EQ(prog.distances(), expected_sssp) << label;
    }
    {
      // BSP is deterministic, so across policies the ranks must be BIT-exact.
      PageRankProgram prog(1e-4f);
      EdgeDataArray<float> edges(g.num_edges());
      prog.init(g, edges);
      EngineOptions bsp_opts;
      bsp_opts.frontier_policy = policy;
      const EngineResult r = run_bsp(g, prog, edges, bsp_opts);
      ASSERT_TRUE(r.converged) << label;
      if (bsp_baseline_ranks.empty()) {
        bsp_baseline_ranks = prog.ranks();
      } else {
        EXPECT_EQ(prog.ranks(), bsp_baseline_ranks) << label;
      }
    }
  }
}

}  // namespace
}  // namespace ndg
