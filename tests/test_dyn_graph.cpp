// DynGraph tests: the mutated view must be indistinguishable (adjacency-wise)
// from a CSR rebuilt from scratch over the live edge set, mutations must be
// validated with precise reject reasons, parallel batch apply must equal the
// serial one, and compaction must preserve adjacency + weights under the id
// remap.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "dyn/dyn_graph.hpp"
#include "dyn/mutation.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ndg::dyn {
namespace {

Mutation ins(VertexId u, VertexId v, float w = 1.0f) {
  return Mutation{MutationKind::kInsertEdge, u, v, w};
}
Mutation del(VertexId u, VertexId v) {
  return Mutation{MutationKind::kDeleteEdge, u, v, 0.0f};
}
Mutation rew(VertexId u, VertexId v, float w) {
  return Mutation{MutationKind::kWeightChange, u, v, w};
}

MutationBatch batch_of(std::vector<Mutation> ms, std::uint64_t epoch = 1) {
  return MutationBatch{epoch, std::move(ms)};
}

Graph base_graph() {
  return Graph::build(128, gen::rmat(128, 700, 99));
}

/// The view must agree with a from-scratch CSR over the live edges: same
/// degrees, same sorted neighbor spans, same in-edge sources.
void expect_view_equals_rebuild(const DynGraph& dg) {
  const Graph rebuilt = Graph::build(dg.num_vertices(), dg.live_edge_list());
  ASSERT_EQ(dg.num_live_edges(), rebuilt.num_edges());
  for (VertexId v = 0; v < dg.num_vertices(); ++v) {
    ASSERT_EQ(dg.out_degree(v), rebuilt.out_degree(v)) << "vertex " << v;
    ASSERT_EQ(dg.in_degree(v), rebuilt.in_degree(v)) << "vertex " << v;
    const auto a = dg.out_neighbors(v);
    const auto b = rebuilt.out_neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "out-neighbors differ at vertex " << v;
    const auto ia = dg.in_edges(v);
    const auto ib = rebuilt.in_edges(v);
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t k = 0; k < ia.size(); ++k) {
      EXPECT_EQ(ia[k].src, ib[k].src) << "in-edge src differs at " << v;
    }
  }
}

/// (src, dst) -> weight over the live edge set, via the public lookup path.
std::map<std::pair<VertexId, VertexId>, float> weight_map(const DynGraph& dg) {
  std::map<std::pair<VertexId, VertexId>, float> out;
  for (const Edge& e : dg.live_edge_list()) {
    const EdgeId id = dg.find_edge(e.src, e.dst);
    EXPECT_NE(id, kInvalidEdge);
    out[{e.src, e.dst}] = dg.edge_weight(id);
  }
  return out;
}

TEST(DynGraph, FreshViewMatchesBase) {
  DynGraph dg(base_graph());
  EXPECT_EQ(dg.num_edges(), dg.base().num_edges());
  EXPECT_EQ(dg.num_live_edges(), dg.base().num_edges());
  expect_view_equals_rebuild(dg);
}

TEST(DynGraph, MixedBatchUpdatesTheView) {
  DynGraph dg(base_graph());
  const EdgeList live = dg.live_edge_list();
  ASSERT_GE(live.size(), 4u);

  std::vector<Mutation> ms;
  // Two deletes of existing edges, a reweight, and inserts (one guaranteed
  // fresh pair per target vertex).
  ms.push_back(del(live[0].src, live[0].dst));
  ms.push_back(del(live[1].src, live[1].dst));
  ms.push_back(rew(live[2].src, live[2].dst, 7.5f));
  for (VertexId v = 0; v < 20; ++v) {
    if (!dg.has_edge(127, v) && v != 127) ms.push_back(ins(127, v, 2.0f));
  }
  ASSERT_GE(ms.size(), 10u);

  ApplyStats stats;
  const auto applied = dg.apply(batch_of(ms), &stats, 2);
  EXPECT_EQ(stats.applied, ms.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(applied.size(), ms.size());

  expect_view_equals_rebuild(dg);
  EXPECT_FALSE(dg.has_edge(live[0].src, live[0].dst));
  const EdgeId rw = dg.find_edge(live[2].src, live[2].dst);
  ASSERT_NE(rw, kInvalidEdge);
  EXPECT_FLOAT_EQ(dg.edge_weight(rw), 7.5f);
  const EdgeId in0 = dg.find_edge(127, 0);
  if (in0 != kInvalidEdge) {
    EXPECT_FLOAT_EQ(dg.edge_weight(in0), 2.0f);
  }
}

TEST(DynGraph, AppliedRecordsCarryIdsAndOldWeights) {
  DynGraph dg(Graph::build(8, EdgeList{{0, 1}, {1, 2}}),
              DynGraphOptions{.base_weight = [](EdgeId) { return 3.0f; }});
  const auto applied = dg.apply(
      batch_of({ins(2, 3, 1.5f), rew(0, 1, 0.5f), del(1, 2)}), nullptr, 1);
  ASSERT_EQ(applied.size(), 3u);

  EXPECT_EQ(applied[0].kind, MutationKind::kInsertEdge);
  EXPECT_EQ(applied[0].id, 2u);  // first id above the 2 base edges
  EXPECT_FLOAT_EQ(applied[0].weight, 1.5f);

  EXPECT_EQ(applied[1].kind, MutationKind::kWeightChange);
  EXPECT_FLOAT_EQ(applied[1].old_weight, 3.0f);
  EXPECT_FLOAT_EQ(applied[1].weight, 0.5f);

  EXPECT_EQ(applied[2].kind, MutationKind::kDeleteEdge);
  EXPECT_EQ(dg.num_live_edges(), 2u);
  EXPECT_EQ(dg.num_edges(), 3u);  // retired id stays allocated until compact
}

TEST(DynGraph, RejectsInvalidMutationsWithPreciseReasons) {
  DynGraph dg(Graph::build(4, EdgeList{{0, 1}, {1, 2}}));
  ApplyStats stats;
  const auto applied = dg.apply(
      batch_of({
          ins(0, 9),        // out-of-range dst
          ins(9, 0),        // out-of-range src
          ins(2, 2),        // self-loop
          ins(0, 1),        // duplicate of a base edge
          del(2, 3),        // missing edge
          rew(3, 0, 1.0f),  // missing edge
          ins(2, 3),        // fine
          del(2, 3),        // conflicts with the insert in this batch
      }),
      &stats, 1);
  EXPECT_EQ(applied.size(), 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.rejected, 7u);
  EXPECT_EQ(stats.by_reason[static_cast<int>(RejectReason::kOutOfRange)], 2u);
  EXPECT_EQ(stats.by_reason[static_cast<int>(RejectReason::kSelfLoop)], 1u);
  EXPECT_EQ(stats.by_reason[static_cast<int>(RejectReason::kDuplicateEdge)],
            1u);
  EXPECT_EQ(stats.by_reason[static_cast<int>(RejectReason::kMissingEdge)], 2u);
  EXPECT_EQ(stats.by_reason[static_cast<int>(RejectReason::kConflictInBatch)],
            1u);
  EXPECT_TRUE(dg.has_edge(2, 3));
  expect_view_equals_rebuild(dg);
}

TEST(DynGraph, ParallelApplyEqualsSerialApply) {
  // Same base, same batch, 1 thread vs 4 threads: identical live edge set,
  // identical ids (assigned serially at validation), identical weights.
  std::vector<Mutation> ms;
  SplitMix64 rng(7);
  const Graph proto = base_graph();
  DynGraph a(base_graph());
  DynGraph b(base_graph());
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next() % proto.num_vertices());
    const auto v = static_cast<VertexId>(rng.next() % proto.num_vertices());
    if (u == v) continue;
    if (a.has_edge(u, v)) {
      ms.push_back(i % 2 == 0 ? del(u, v)
                              : rew(u, v, static_cast<float>(i % 9 + 1)));
    } else {
      ms.push_back(ins(u, v, static_cast<float>(i % 5 + 1)));
    }
  }

  ApplyStats sa;
  ApplyStats sb;
  const auto ra = a.apply(batch_of(ms), &sa, 1);
  const auto rb = b.apply(batch_of(ms), &sb, 4);
  EXPECT_EQ(sa.applied, sb.applied);
  EXPECT_EQ(sa.rejected, sb.rejected);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].src, rb[i].src);
    EXPECT_EQ(ra[i].dst, rb[i].dst);
  }

  const EdgeList la = a.live_edge_list();
  const EdgeList lb = b.live_edge_list();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].src, lb[i].src);
    EXPECT_EQ(la[i].dst, lb[i].dst);
  }
  EXPECT_EQ(weight_map(a), weight_map(b));
  expect_view_equals_rebuild(b);
}

TEST(DynGraph, CompactionPreservesAdjacencyAndWeights) {
  DynGraphOptions opts;
  opts.base_weight = [](EdgeId e) { return static_cast<float>(e % 13) + 1.0f; };
  opts.compact_threshold = 0.05;
  DynGraph dg(base_graph(), opts);

  // Delete-heavy on purpose: inserts drain the freelist before growing the
  // id space, so only the delete surplus leaves retired slots behind and
  // pushes overflow_ratio past the threshold.
  std::vector<Mutation> ms;
  const EdgeList live = dg.live_edge_list();
  for (std::size_t i = 0; i < 60; ++i) {
    ms.push_back(del(live[i * 3].src, live[i * 3].dst));
  }
  for (VertexId v = 100; v < 120; ++v) {
    if (!dg.has_edge(0, v)) ms.push_back(ins(0, v, 4.25f));
  }
  ApplyStats stats;
  (void)dg.apply(batch_of(ms), &stats, 3);
  ASSERT_EQ(stats.rejected, 0u);
  EXPECT_TRUE(dg.should_compact());

  const auto before_adj = dg.live_edge_list();
  const auto before_w = weight_map(dg);
  const EdgeId before_live = dg.num_live_edges();

  const DynGraph::CompactResult r = dg.compact();
  EXPECT_EQ(r.new_num_edges, before_live);
  EXPECT_EQ(r.old_to_new.size(), r.old_edge_bound);

  EXPECT_EQ(dg.num_edges(), dg.num_live_edges());  // id space is exact again
  EXPECT_DOUBLE_EQ(dg.overflow_ratio(), 0.0);
  EXPECT_FALSE(dg.should_compact());
  EXPECT_EQ(dg.compactions(), 1u);

  const auto after_adj = dg.live_edge_list();
  ASSERT_EQ(before_adj.size(), after_adj.size());
  for (std::size_t i = 0; i < before_adj.size(); ++i) {
    EXPECT_EQ(before_adj[i].src, after_adj[i].src);
    EXPECT_EQ(before_adj[i].dst, after_adj[i].dst);
  }
  EXPECT_EQ(before_w, weight_map(dg));
  expect_view_equals_rebuild(dg);

  // The remap table sends every live old id to the id the rebuilt CSR
  // assigns to the same (src, dst) pair, and retired ids to kInvalidEdge.
  for (const auto& [key, w] : before_w) {
    (void)w;
    const EdgeId now = dg.find_edge(key.first, key.second);
    ASSERT_NE(now, kInvalidEdge);
  }
}

TEST(DynGraph, InsertAfterCompactReusesFreshIdSpace) {
  DynGraph dg(Graph::build(4, EdgeList{{0, 1}, {1, 2}, {2, 3}}));
  (void)dg.apply(batch_of({del(1, 2)}), nullptr, 1);
  (void)dg.compact();
  ASSERT_EQ(dg.num_edges(), 2u);
  const auto applied = dg.apply(batch_of({ins(1, 3)}, 2), nullptr, 1);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].id, 2u);  // bump restarts at the compacted bound
  expect_view_equals_rebuild(dg);
}

TEST(DynGraph, FreelistReusesRetiredIdsMostRecentFirst) {
  DynGraph dg(Graph::build(6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  // Retire ids 1 then 3 across two epochs: the freelist holds them in
  // retirement order and inserts pop the MOST RECENTLY retired id first.
  (void)dg.apply(batch_of({del(1, 2)}, 1), nullptr, 1);
  (void)dg.apply(batch_of({del(3, 4)}, 2), nullptr, 1);
  EXPECT_EQ(dg.freelist_size(), 2u);
  EXPECT_EQ(dg.num_edges(), 4u);  // id-space bound unchanged by deletes

  auto applied = dg.apply(batch_of({ins(0, 5), ins(4, 5)}, 3), nullptr, 1);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].id, 3u);  // LIFO: last retired, first reused
  EXPECT_EQ(applied[1].id, 1u);
  EXPECT_EQ(dg.freelist_size(), 0u);
  EXPECT_EQ(dg.num_edges(), 4u);  // fully reused: no id-space growth
  EXPECT_FLOAT_EQ(dg.edge_weight(applied[0].id), 1.0f);
  expect_view_equals_rebuild(dg);

  // Freelist empty again: the next insert falls back to the bump counter.
  applied = dg.apply(batch_of({ins(5, 0)}, 4), nullptr, 1);
  EXPECT_EQ(applied[0].id, 4u);
  EXPECT_EQ(dg.num_edges(), 5u);
}

TEST(DynGraph, FreelistDrainsWithinOneBatchAndIsClearedByCompact) {
  DynGraph dg(Graph::build(8, EdgeList{{0, 1}, {1, 2}, {2, 3}}));
  // Delete + inserts in ONE batch: the delete's retired id is visible to
  // the later inserts of the same batch (serial validation in batch order).
  auto applied = dg.apply(
      batch_of({del(1, 2), ins(4, 5), ins(5, 6)}, 1), nullptr, 1);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[1].id, 1u);  // reuses the id retired one record earlier
  EXPECT_EQ(applied[2].id, 3u);  // freelist dry: bump counter
  expect_view_equals_rebuild(dg);

  // Compact rebuilds an exact id space — stale freelist entries would alias
  // live canonical ids, so compaction must drop them.
  (void)dg.apply(batch_of({del(4, 5)}, 2), nullptr, 1);
  EXPECT_EQ(dg.freelist_size(), 1u);
  (void)dg.compact();
  EXPECT_EQ(dg.freelist_size(), 0u);
  applied = dg.apply(batch_of({ins(6, 7)}, 3), nullptr, 1);
  EXPECT_EQ(applied[0].id, dg.num_edges() - 1);  // fresh top-of-space id
  expect_view_equals_rebuild(dg);
}

TEST(DynGraph, ApplyReplicatedTracksOriginalAcrossBatchesAndCompaction) {
  // Leader validates + assigns ids; follower replays the shipped records
  // verbatim. After every epoch — including an in-stream compaction fence —
  // the two must agree on adjacency, ids, and weights.
  DynGraph leader(base_graph());
  DynGraph follower(base_graph());
  SplitMix64 rng(21);

  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    std::vector<Mutation> ms;
    for (int i = 0; i < 40; ++i) {
      const auto u =
          static_cast<VertexId>(rng.next() % leader.num_vertices());
      const auto v =
          static_cast<VertexId>(rng.next() % leader.num_vertices());
      if (u == v) continue;
      if (leader.has_edge(u, v)) {
        ms.push_back(i % 3 == 0 ? rew(u, v, static_cast<float>(i + 1))
                                : del(u, v));
      } else {
        ms.push_back(ins(u, v, static_cast<float>(i % 7 + 1)));
      }
    }
    // Leader validates serially; follower replays with a parallel fan-out —
    // the topology phases must commute with thread count.
    const auto shipped = leader.apply(batch_of(ms, epoch), nullptr, 1);
    const ApplyStats rs = follower.apply_replicated(shipped, 4);
    EXPECT_EQ(rs.applied, shipped.size());
    EXPECT_EQ(rs.rejected, 0u);

    ASSERT_EQ(leader.num_edges(), follower.num_edges());
    ASSERT_EQ(leader.num_live_edges(), follower.num_live_edges());
    EXPECT_EQ(weight_map(leader), weight_map(follower));

    if (epoch == 3) {
      // In-stream compaction: both sides compact at the same point, so the
      // canonical rebuild leaves them with identical id spaces.
      (void)leader.compact();
      (void)follower.compact();
      const EdgeList ll = leader.live_edge_list();
      for (const Edge& e : ll) {
        EXPECT_EQ(leader.find_edge(e.src, e.dst),
                  follower.find_edge(e.src, e.dst));
      }
    }
  }
  expect_view_equals_rebuild(follower);

  // Ids must match edge-for-edge, not just set-wise.
  for (const Edge& e : leader.live_edge_list()) {
    EXPECT_EQ(leader.find_edge(e.src, e.dst),
              follower.find_edge(e.src, e.dst));
  }
}

TEST(DynGraph, OverflowRatioTracksRetiredAndGrownIds) {
  DynGraph dg(base_graph());
  EXPECT_DOUBLE_EQ(dg.overflow_ratio(), 0.0);
  const EdgeList live = dg.live_edge_list();
  (void)dg.apply(batch_of({del(live[0].src, live[0].dst)}), nullptr, 1);
  const double after_del = dg.overflow_ratio();
  EXPECT_GT(after_del, 0.0);
  std::vector<Mutation> more;
  for (VertexId v = 1; v < 10; ++v) {
    if (!dg.has_edge(127, v)) more.push_back(ins(127, v));
  }
  (void)dg.apply(batch_of(more, 2), nullptr, 1);
  EXPECT_GT(dg.overflow_ratio(), after_del);
}

// The canonical-snapshot invariant (edge k of the (src, dst)-sorted live
// list carries id k) is tracked by an explicit flag, NOT inferred from
// overflow_ratio(): a delete whose id a later insert reuses returns the
// ratio to exactly 0 while the reused id sits out of canonical order.
TEST(DynGraph, IdsCanonicalTracksReuseWhereOverflowRatioCannot) {
  DynGraph dg(Graph::build(4, EdgeList{{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_TRUE(dg.ids_canonical());

  // Weight changes never touch ids.
  (void)dg.apply(batch_of({rew(0, 1, 2.5f)}), nullptr, 1);
  EXPECT_TRUE(dg.ids_canonical());

  // Retire id 0 ((0,1) is the canonically-first edge)...
  (void)dg.apply(batch_of({del(0, 1)}), nullptr, 1);
  EXPECT_FALSE(dg.ids_canonical());

  // ...and reuse it for (3, 0), which sorts LAST. Id space is hole-free
  // again (ratio exactly 0) but id 0 no longer matches canonical order.
  (void)dg.apply(batch_of({ins(3, 0)}, 2), nullptr, 1);
  EXPECT_DOUBLE_EQ(dg.overflow_ratio(), 0.0);
  EXPECT_EQ(dg.find_edge(3, 0), 0u);
  EXPECT_FALSE(dg.ids_canonical());

  // compact() restores canonical ids: (1,2) -> 0, (2,3) -> 1, (3,0) -> 2.
  (void)dg.compact();
  EXPECT_TRUE(dg.ids_canonical());
  EXPECT_EQ(dg.find_edge(1, 2), 0u);
  EXPECT_EQ(dg.find_edge(2, 3), 1u);
  EXPECT_EQ(dg.find_edge(3, 0), 2u);
}

}  // namespace
}  // namespace ndg::dyn
