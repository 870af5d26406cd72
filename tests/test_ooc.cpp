// Out-of-core engine tests: shard planning invariants, the disk store's
// window I/O, and — the headline — bit-identical results with the in-memory
// deterministic engine under real file-backed sliding-window execution.

#include <gtest/gtest.h>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "engine/deterministic.hpp"
#include "graph/generators.hpp"
#include "ooc/ooc_engine.hpp"
#include "temp_path.hpp"

namespace ndg {
namespace {

TempPath fresh_dir(const std::string& name) {
  return TempPath("ndg_ooc_" + name);
}

TEST(ShardPlan, ShardsPartitionTheEdgeSet) {
  const Graph g = Graph::build(300, gen::rmat(300, 2000, 44));
  const ShardPlan plan = make_shard_plan(g, 4);
  std::vector<bool> seen(g.num_edges(), false);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (const EdgeId e : plan.shard_edges[s]) {
      EXPECT_FALSE(seen[e]);
      seen[e] = true;
      // Membership rule: target in interval s.
      EXPECT_EQ(plan.intervals.interval_of(g.edge_target(e)), s);
    }
    EXPECT_TRUE(std::is_sorted(plan.shard_edges[s].begin(),
                               plan.shard_edges[s].end()));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_TRUE(seen[e]);
}

TEST(ShardPlan, WindowsTileEachShardBySourceInterval) {
  const Graph g = Graph::build(200, gen::erdos_renyi(200, 1500, 9));
  const ShardPlan plan = make_shard_plan(g, 5);
  for (std::size_t s = 0; s < 5; ++s) {
    std::size_t expect_begin = 0;
    for (std::size_t j = 0; j < 5; ++j) {
      const auto [b, e] = plan.windows[s][j];
      EXPECT_EQ(b, expect_begin);
      expect_begin = e;
      for (std::size_t k = b; k < e; ++k) {
        EXPECT_EQ(plan.intervals.interval_of(
                      g.edge_source(plan.shard_edges[s][k])),
                  j);
      }
    }
    EXPECT_EQ(expect_begin, plan.shard_edges[s].size());
  }
}

TEST(ShardPlan, PositionInShardInverts) {
  const Graph g = Graph::build(100, gen::rmat(100, 600, 2));
  const ShardPlan plan = make_shard_plan(g, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t k = 0; k < plan.shard_edges[s].size(); ++k) {
      EXPECT_EQ(plan.position_in_shard(s, plan.shard_edges[s][k]), k);
    }
  }
}

TEST(ShardStore, RoundTripAndWindowUpdates) {
  const Graph g = Graph::build(64, gen::cycle(64));
  const ShardPlan plan = make_shard_plan(g, 4);
  const TempPath dir = fresh_dir("roundtrip");
  ShardStore store(dir.str(), plan);

  std::vector<std::uint64_t> values(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) values[e] = 1000 + e;
  store.write_initial(values);
  EXPECT_EQ(store.bytes_on_disk(), g.num_edges() * sizeof(std::uint64_t));

  // Whole-file round trip.
  std::vector<std::uint64_t> back(g.num_edges(), 0);
  store.read_back(back);
  EXPECT_EQ(back, values);

  // Window update: rewrite one window of shard 0 and check only it changed.
  std::size_t target_shard = 0;
  std::size_t target_window = 0;
  for (std::size_t s = 0; s < 4 && target_window == 0; ++s) {
    for (std::size_t j = 0; j < 4; ++j) {
      const auto [b, e] = plan.windows[s][j];
      if (e - b >= 2) {
        target_shard = s;
        target_window = j;
        break;
      }
    }
  }
  const auto [wb, we] = plan.windows[target_shard][target_window];
  std::vector<std::uint64_t> patch(we - wb, 7777);
  store.store_window(target_shard, wb, patch);
  const auto win = store.load_window(target_shard, wb, we);
  EXPECT_EQ(win, patch);
  store.read_back(back);
  std::size_t changed = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) changed += back[e] != values[e];
  EXPECT_EQ(changed, we - wb);
}

template <typename Program, typename Seed>
void expect_bitwise_equal_to_in_memory(const Graph& g, Seed make_prog,
                                       const char* tag) {
  Program in_mem = make_prog();
  EdgeDataArray<typename Program::EdgeData> mem_edges(g.num_edges());
  in_mem.init(g, mem_edges);
  const EngineResult rm = run_deterministic(g, in_mem, mem_edges);

  Program ooc = make_prog();
  EdgeDataArray<typename Program::EdgeData> ooc_edges(g.num_edges());
  ooc.init(g, ooc_edges);
  const ShardPlan plan = make_shard_plan(g, 4);
  const OocResult ro =
      run_ooc_deterministic(g, ooc, ooc_edges, plan, fresh_dir(tag).str());

  EXPECT_EQ(rm.converged, ro.converged) << tag;
  EXPECT_EQ(rm.iterations, ro.iterations) << tag;
  EXPECT_EQ(rm.updates, ro.updates) << tag;
  EXPECT_GT(ro.bytes_read, 0u) << tag;
  EXPECT_GT(ro.bytes_written, 0u) << tag;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(mem_edges.slots()[e].load(), ooc_edges.slots()[e].load())
        << tag << " edge " << e;
  }
}

TEST(OocEngine, WccBitwiseEqualToInMemory) {
  const Graph g = Graph::build(400, gen::rmat(400, 2600, 21));
  expect_bitwise_equal_to_in_memory<WccProgram>(
      g, [] { return WccProgram(); }, "wcc");
}

TEST(OocEngine, PageRankBitwiseEqualToInMemory) {
  const Graph g = Graph::build(300, gen::erdos_renyi(300, 1800, 5));
  expect_bitwise_equal_to_in_memory<PageRankProgram>(
      g, [] { return PageRankProgram(1e-3f); }, "pagerank");
}

TEST(OocEngine, SsspBitwiseEqualToInMemory) {
  const Graph g = Graph::build(300, gen::rmat(300, 1800, 33));
  expect_bitwise_equal_to_in_memory<SsspProgram>(
      g, [] { return SsspProgram(0, 5); }, "sssp");
}

TEST(OocEngine, ResultsMatchReferences) {
  const Graph g = Graph::build(350, gen::rmat(350, 2200, 8));
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 6);
  const OocResult r =
      run_ooc_deterministic(g, prog, edges, plan, fresh_dir("refs").str());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.labels(), ref::wcc(g));
}

TEST(OocEngine, SelectiveSchedulingSkipsIdleIntervals) {
  // BFS from one corner of a long chain: most intervals are inactive in most
  // iterations, so the engine must skip far more interval visits than it
  // processes — GraphChi's selective-scheduling I/O win.
  const Graph g = Graph::build(512, gen::chain(512));
  BfsProgram prog(0);
  EdgeDataArray<BfsProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 8);
  const OocResult r =
      run_ooc_deterministic(g, prog, edges, plan, fresh_dir("skip").str());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(prog.levels(), ref::bfs(g, 0));
  EXPECT_GT(r.intervals_skipped, r.intervals_processed);
}

TEST(OocEngine, SingleShardDegeneratesGracefully) {
  const Graph g = Graph::build(64, gen::cycle(64));
  WccProgram prog;
  EdgeDataArray<WccProgram::EdgeData> edges(g.num_edges());
  prog.init(g, edges);
  const ShardPlan plan = make_shard_plan(g, 1);
  const OocResult r =
      run_ooc_deterministic(g, prog, edges, plan, fresh_dir("one").str());
  EXPECT_TRUE(r.converged);
  for (const auto l : prog.labels()) EXPECT_EQ(l, 0u);
}

}  // namespace
}  // namespace ndg
