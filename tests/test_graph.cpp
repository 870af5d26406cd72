// Unit tests for the graph substrate: CSR/CSC construction, canonical edge
// ids, loaders, generators, and structural statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_stats.hpp"
#include "graph/loader.hpp"
#include "temp_path.hpp"
#include "util/rng.hpp"

namespace ndg {
namespace {

Graph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return Graph::build(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Graph, BasicCounts) {
  const Graph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(Graph, CsrOrderDefinesEdgeIds) {
  const Graph g = diamond();
  // Sorted edge list: (0,1)=id0 (0,2)=id1 (1,3)=id2 (2,3)=id3.
  EXPECT_EQ(g.edge_target(0), 1u);
  EXPECT_EQ(g.edge_target(1), 2u);
  EXPECT_EQ(g.edge_target(2), 3u);
  EXPECT_EQ(g.edge_target(3), 3u);
  EXPECT_EQ(g.out_edges_begin(0), 0u);
  EXPECT_EQ(g.out_edges_begin(1), 2u);
  EXPECT_EQ(g.out_edges_begin(2), 3u);
}

TEST(Graph, EdgeSourceInvertsEdgeIds) {
  const Graph g = diamond();
  EXPECT_EQ(g.edge_source(0), 0u);
  EXPECT_EQ(g.edge_source(1), 0u);
  EXPECT_EQ(g.edge_source(2), 1u);
  EXPECT_EQ(g.edge_source(3), 2u);
}

TEST(Graph, InEdgesCarryCanonicalIds) {
  const Graph g = diamond();
  const auto in3 = g.in_edges(3);
  ASSERT_EQ(in3.size(), 2u);
  // In-edges of 3: from 1 (edge id 2) and from 2 (edge id 3).
  EXPECT_EQ(in3[0].src, 1u);
  EXPECT_EQ(in3[0].id, 2u);
  EXPECT_EQ(in3[1].src, 2u);
  EXPECT_EQ(in3[1].id, 3u);
}

TEST(Graph, InOutViewsShareEdgeIds) {
  // The same edge id reached via CSR and CSC must address the same slot.
  const Graph g = Graph::build(5, gen::erdos_renyi(5, 30, 99));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const InEdge& ie : g.in_edges(v)) {
      EXPECT_EQ(g.edge_target(ie.id), v);
      EXPECT_EQ(g.edge_source(ie.id), ie.src);
    }
  }
}

TEST(Graph, BuildRemovesSelfLoopsAndDuplicates) {
  const Graph g = Graph::build(3, {{0, 1}, {0, 1}, {1, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);  // (0,1) deduped, (1,1) dropped
}

TEST(Graph, BuildCanKeepSelfLoopsAndDuplicates) {
  GraphBuildOptions opts;
  opts.remove_self_loops = false;
  opts.remove_duplicate_edges = false;
  const Graph g = Graph::build(3, {{0, 1}, {0, 1}, {1, 1}}, opts);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, EdgeIdsIndependentOfInputOrder) {
  const Graph a = Graph::build(4, {{0, 1}, {2, 3}, {1, 2}});
  const Graph b = Graph::build(4, {{1, 2}, {0, 1}, {2, 3}});
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_target(e), b.edge_target(e));
    EXPECT_EQ(a.edge_source(e), b.edge_source(e));
  }
}

TEST(Graph, SymmetrizeDoublesEdges) {
  const EdgeList sym = symmetrize({{0, 1}, {1, 2}});
  EXPECT_EQ(sym.size(), 4u);
  const Graph g = Graph::build(3, sym);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);
}

TEST(GraphDeathTest, BuildRejectsOutOfRangeEndpoint) {
  // The check must run before an endpoint indexes a degree bucket: the
  // counting passes would otherwise write out of bounds.
  EXPECT_DEATH(Graph::build(3, EdgeList{{0, 1}, {1, 3}}),
               "edge endpoint out of range");
  EXPECT_DEATH(Graph::build(3, EdgeList{{3, 0}}), "edge endpoint out of range");
  EXPECT_DEATH(Graph::build(0, EdgeList{{0, 1}}), "edge endpoint out of range");
}

// ---- Bit-identity pins -----------------------------------------------------
// FNV-1a hashes of what gen::rmat and Graph::build emit, recorded from a
// comparison-sort builder so the counting passes are held to its output. A
// changed RNG draw, canonical (src, dst) order, edge id or dedup rule moves
// a pin.

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_edges(const EdgeList& edges) {
  Fnv1a h;
  h.add(edges.size());
  for (const Edge& e : edges) {
    h.add(e.src);
    h.add(e.dst);
  }
  return h.value();
}

/// One hash per Graph array, read back through the public accessors.
struct GraphHashes {
  std::uint64_t out_offsets, out_targets, in_offsets, in_edges, edge_src;
  friend bool operator==(const GraphHashes&, const GraphHashes&) = default;
  friend std::ostream& operator<<(std::ostream& os, const GraphHashes& h) {
    return os << std::hex << std::showbase << "{" << h.out_offsets << ", "
              << h.out_targets << ", " << h.in_offsets << ", " << h.in_edges
              << ", " << h.edge_src << "}" << std::dec;
  }
};

GraphHashes hash_graph(const Graph& g) {
  Fnv1a out_offsets, out_targets, in_offsets, in_edges, edge_src;
  EdgeId in_offset = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out_offsets.add(g.out_edges_begin(v));
    in_offsets.add(in_offset);
    in_offset += g.in_degree(v);
    for (const InEdge& ie : g.in_edges(v)) {
      in_edges.add(ie.src);
      in_edges.add(ie.id);
    }
  }
  out_offsets.add(g.num_edges());
  in_offsets.add(in_offset);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out_targets.add(g.edge_target(e));
    edge_src.add(g.edge_source(e));
  }
  return {out_offsets.value(), out_targets.value(), in_offsets.value(),
          in_edges.value(), edge_src.value()};
}

GraphBuildOptions keep_all() {
  GraphBuildOptions opts;
  opts.remove_self_loops = false;
  opts.remove_duplicate_edges = false;
  return opts;
}

TEST(Generators, RmatEdgeListsArePinned) {
  struct Pin {
    VertexId n;  // 1024 takes no clamp; 1000 rounds up to 1024 and clamps
    bool permute;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {1024, true, 1, 0x29b87b90aee98ae6},  {1024, true, 2, 0x783cfe4a4fd40806},
      {1024, true, 3, 0x32fe491dde6382db},  {1024, false, 1, 0x27ddd7d0825dd9a9},
      {1024, false, 2, 0xaa0d3bf0bd18043d}, {1024, false, 3, 0x96d2d9d54fe79812},
      {1000, true, 1, 0x6a9df6d21b7b635f},  {1000, true, 2, 0x9a84b2a4e2e7d517},
      {1000, true, 3, 0xecac046cd01ae587},  {1000, false, 1, 0xdbf878f9d148c7c9},
      {1000, false, 2, 0x426d0f262a168c40}, {1000, false, 3, 0xd7b0a55374135ff7},
  };
  for (const Pin& p : pins) {
    gen::RmatOptions opts;
    opts.permute = p.permute;
    EXPECT_EQ(hash_edges(gen::rmat(p.n, 16000, p.seed, opts)), p.hash)
        << "n=" << p.n << " permute=" << p.permute << " seed=" << p.seed;
  }
}

TEST(Graph, BuildOfRmatIsPinned) {
  // V = 1000 clamps, so the lists carry self-loops and duplicates; the
  // keep-all builds are the path load_binary_graph takes.
  const GraphHashes dedup[] = {
      {0x76499150902187cf, 0xe076f050e0840360, 0x3cbb24b7c06a5e71,
       0x2ad24e2539de102e, 0x7aa522125e9c57ef},
      {0x5dbcead5aae136fc, 0xd7606576fdef3d0a, 0x62a1342627132674,
       0x19a901eaee788036, 0x60e0040f5af56c05},
      {0xaefe04a2660aeec2, 0xa1ac4592fdd7a2aa, 0x581dbd3aba38c4e5,
       0xf0e5848bcf931415, 0x8b5501184cae1103},
  };
  const GraphHashes kept[] = {
      {0xee2ba763a7ca7a9a, 0x7c37a489488cc061, 0xb31b87a3befc5fbf,
       0x05c63359ff67a655, 0x3644b9427769e259},
      {0x78963151f2070f92, 0xd5912b5b3f1544a1, 0x76643ce70cda8165,
       0xea49623a26548bf9, 0x41ba6a770b4bc029},
      {0xf8fd1d79a1add623, 0xe6284131c0a68865, 0xb55ff64607007765,
       0xec31a41b54e47fcd, 0xc33ddb95375e7785},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const EdgeList edges = gen::rmat(1000, 16000, seed);
    EXPECT_EQ(hash_graph(Graph::build(1000, edges)), dedup[seed - 1])
        << "seed=" << seed;
    EXPECT_EQ(hash_graph(Graph::build(1000, edges, keep_all())),
              kept[seed - 1])
        << "seed=" << seed;
  }
}

TEST(Graph, EdgeOwnershipAgreesAcrossViews) {
  // The O(1) offset-range test, the edge_source search and the CSC's `src`
  // must name the same source for every edge. V = 1000 clamps, so the
  // keep-all build carries self-loops and duplicates.
  const EdgeList edges = gen::rmat(1000, 16000, 5);
  for (const GraphBuildOptions& opts : {GraphBuildOptions{}, keep_all()}) {
    const Graph g = Graph::build(1000, edges, opts);
    const VertexId n = g.num_vertices();
    EdgeId in_seen = 0;
    std::size_t self_loops = 0;
    for (VertexId v = 0; v < n; ++v) {
      for (EdgeId k = 0; k < g.out_degree(v); ++k) {
        const EdgeId e = g.out_edges_begin(v) + k;
        ASSERT_EQ(g.edge_source(e), v) << "e=" << e;
        ASSERT_TRUE(g.is_out_edge(v, e)) << "v=" << v << " e=" << e;
        // The range test names one owner: not the neighbouring rows.
        EXPECT_FALSE(v > 0 && g.is_out_edge(v - 1, e)) << "e=" << e;
        EXPECT_FALSE(v + 1 < n && g.is_out_edge(v + 1, e)) << "e=" << e;
        self_loops += g.edge_target(e) == v ? 1 : 0;
      }
      for (const InEdge& ie : g.in_edges(v)) {
        ASSERT_EQ(g.edge_target(ie.id), v);
        ASSERT_EQ(g.edge_source(ie.id), ie.src) << "e=" << ie.id;
        ASSERT_TRUE(g.is_out_edge(ie.src, ie.id)) << "e=" << ie.id;
        ++in_seen;
      }
    }
    EXPECT_EQ(in_seen, g.num_edges());
    EXPECT_EQ(self_loops > 0, !opts.remove_self_loops);
  }
}

TEST(Graph, BuildOfShuffledInputIsPinned) {
  // Loader-style input: both directions of every edge, in no useful order.
  const EdgeList sorted = symmetrize(gen::rmat(512, 4096, 4));
  EdgeList shuffled = sorted;
  Xoshiro256 rng(11);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.next_below(i + 1)]);
  }
  const GraphHashes pin{0x862894b015165d47, 0x3b81d4229f3004f8,
                        0x862894b015165d47, 0xad8e3d5b51f4f049,
                        0xe3d742714d968c84};
  EXPECT_EQ(hash_graph(Graph::build(512, shuffled)), pin);
  EXPECT_EQ(hash_graph(Graph::build(512, sorted)), pin);
}

TEST(Graph, BuildOfDegenerateInputsIsPinned) {
  const EdgeList one_vertex{{0, 0}, {0, 0}};
  const EdgeList self_loops{{2, 2}, {0, 0}, {3, 3}, {0, 0}, {1, 1}};
  // An empty CSR hashes each empty array to the FNV offset basis.
  constexpr std::uint64_t kEmpty = 0xcbf29ce484222325;
  EXPECT_EQ(hash_graph(Graph::build(0, {})),
            (GraphHashes{0xa8c7f832281a39c5, kEmpty, 0xa8c7f832281a39c5, kEmpty,
                         kEmpty}));
  EXPECT_EQ(hash_graph(Graph::build(4, {})),
            (GraphHashes{0x40d69e0cf0f65c45, kEmpty, 0x40d69e0cf0f65c45, kEmpty,
                         kEmpty}));
  EXPECT_EQ(hash_graph(Graph::build(1, one_vertex)),
            (GraphHashes{0x88201fb960ff6465, kEmpty, 0x88201fb960ff6465, kEmpty,
                         kEmpty}));
  EXPECT_EQ(hash_graph(Graph::build(1, one_vertex, keep_all())),
            (GraphHashes{0xc615adcb76ddf8a7, 0x88201fb960ff6465,
                         0xc615adcb76ddf8a7, 0xed87496f429bab84,
                         0x88201fb960ff6465}));
  EXPECT_EQ(hash_graph(Graph::build(4, self_loops)),
            (GraphHashes{0x40d69e0cf0f65c45, kEmpty, 0x40d69e0cf0f65c45, kEmpty,
                         kEmpty}));
  EXPECT_EQ(hash_graph(Graph::build(4, self_loops, keep_all())),
            (GraphHashes{0x367e9433e8fd2fc5, 0x993059584ec75845,
                         0x367e9433e8fd2fc5, 0xae020cb713560521,
                         0x993059584ec75845}));
}

TEST(Loader, ParsesSnapFormat) {
  const auto loaded = parse_edge_list(
      "# comment line\n"
      "% other comment\n"
      "0\t1\n"
      "  2 3\n"
      "\n"
      "4 0\n");
  EXPECT_EQ(loaded.edges.size(), 3u);
  EXPECT_EQ(loaded.num_vertices, 5u);
  EXPECT_EQ(loaded.edges[0], (Edge{0, 1}));
  EXPECT_EQ(loaded.edges[1], (Edge{2, 3}));
  EXPECT_EQ(loaded.edges[2], (Edge{4, 0}));
}

TEST(Loader, ThrowsOnMalformedLine) {
  EXPECT_THROW(parse_edge_list("0 x\n"), std::runtime_error);
}

TEST(Loader, ThrowsOnMissingFile) {
  EXPECT_THROW(load_edge_list("/nonexistent/path/file.txt"), std::runtime_error);
}

TEST(Loader, RoundTripsThroughFile) {
  const TempPath path("ndg_edges.txt");
  const EdgeList edges{{0, 1}, {1, 2}, {2, 0}};
  save_edge_list(path.str(), edges, "test graph");
  const auto loaded = load_edge_list(path.str());
  EXPECT_EQ(loaded.edges, edges);
  EXPECT_EQ(loaded.num_vertices, 3u);
}

TEST(Generators, ChainCycleStarShapes) {
  const Graph chain = Graph::build(5, gen::chain(5));
  EXPECT_EQ(chain.num_edges(), 4u);
  EXPECT_EQ(chain.out_degree(4), 0u);

  const Graph cyc = Graph::build(5, gen::cycle(5));
  EXPECT_EQ(cyc.num_edges(), 5u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(cyc.out_degree(v), 1u);
    EXPECT_EQ(cyc.in_degree(v), 1u);
  }

  const Graph st = Graph::build(6, gen::star(6));
  EXPECT_EQ(st.out_degree(0), 5u);
  EXPECT_EQ(st.in_degree(0), 0u);
}

TEST(Generators, CompleteHasAllPairs) {
  const Graph g = Graph::build(4, gen::complete(4));
  EXPECT_EQ(g.num_edges(), 12u);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(g.out_degree(v), 3u);
    EXPECT_EQ(g.in_degree(v), 3u);
  }
}

TEST(Generators, Grid2dDegrees) {
  const Graph g = Graph::build(9, gen::grid2d(3, 3));
  // Interior-ish vertex 0 has right+down; corner 8 has none.
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(8), 0u);
  EXPECT_EQ(g.num_edges(), 12u);
}

TEST(Generators, RmatIsDeterministicPerSeed) {
  const auto a = gen::rmat(64, 500, 7);
  const auto b = gen::rmat(64, 500, 7);
  const auto c = gen::rmat(64, 500, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 500u);
  for (const Edge& e : a) {
    EXPECT_LT(e.src, 64u);
    EXPECT_LT(e.dst, 64u);
  }
}

TEST(Generators, RmatIsSkewed) {
  // R-MAT with Graph500 parameters must concentrate edges on few vertices.
  const Graph g = Graph::build(1024, gen::rmat(1024, 16384, 5));
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.top1pct_out_edge_share, 0.08);  // far above the uniform 1%
}

TEST(Generators, ErdosRenyiIsNotSkewed) {
  const Graph g = Graph::build(1024, gen::erdos_renyi(1024, 16384, 5));
  const GraphStats s = compute_stats(g);
  EXPECT_LT(s.top1pct_out_edge_share, 0.08);
}

TEST(Generators, SmallWorldDegreeNearK) {
  const Graph g = Graph::build(500, gen::small_world(500, 4, 0.05, 3));
  // Every vertex emits k = 4 edges (some lost to dedup/self-loop removal).
  const GraphStats s = compute_stats(g);
  EXPECT_NEAR(s.avg_out_degree, 4.0, 0.3);
  EXPECT_LT(s.max_out_degree, 16u);
}

TEST(Generators, RandomDagIsAcyclicByConstruction) {
  const auto edges = gen::random_dag(200, 3.0, 11);
  for (const Edge& e : edges) EXPECT_LT(e.src, e.dst);
}

TEST(GraphStats, CountsSourcesSinksAndEccentricity) {
  const Graph g = Graph::build(5, gen::chain(5));
  const GraphStats s = compute_stats(g, 0);
  EXPECT_EQ(s.num_sources, 1u);
  EXPECT_EQ(s.num_sinks, 1u);
  EXPECT_EQ(s.bfs_eccentricity, 4u);
  EXPECT_EQ(s.max_out_degree, 1u);
}

TEST(GraphStats, ReciprocityDistinguishesSymmetrizedGraphs) {
  const Graph directed = Graph::build(10, gen::chain(10));
  EXPECT_DOUBLE_EQ(compute_stats(directed).reciprocity, 0.0);
  const Graph sym = Graph::build(10, symmetrize(gen::chain(10)));
  EXPECT_DOUBLE_EQ(compute_stats(sym).reciprocity, 1.0);
  // Cycle of 2: both edges reciprocal.
  const Graph pair = Graph::build(2, {{0, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(compute_stats(pair).reciprocity, 1.0);
}

TEST(GraphStats, DegreeHistogramBucketsCorrectly) {
  // star(9): hub has out-degree 8 (bucket 3), leaves 0 (bucket 0).
  const Graph g = Graph::build(9, gen::star(9));
  const GraphStats s = compute_stats(g);
  ASSERT_EQ(s.out_degree_histogram.size(), 4u);
  EXPECT_EQ(s.out_degree_histogram[0], 8u);  // degrees 0..1
  EXPECT_EQ(s.out_degree_histogram[3], 1u);  // degree 8
  std::uint64_t total = 0;
  for (const auto c : s.out_degree_histogram) total += c;
  EXPECT_EQ(total, 9u);
}

TEST(GraphStats, RmatHistogramHasLongTail) {
  const Graph g = Graph::build(1024, gen::rmat(1024, 16384, 5));
  const GraphStats s = compute_stats(g);
  // Power-law-ish: occupied buckets far beyond the mean degree's bucket.
  EXPECT_GE(s.out_degree_histogram.size(), 7u);  // some vertex with deg >= 64
}

TEST(GraphStats, EccentricityIgnoresDirection) {
  // Probe from the sink: undirected BFS must still span the chain.
  const Graph g = Graph::build(5, gen::chain(5));
  const GraphStats s = compute_stats(g, 4);
  EXPECT_EQ(s.bfs_eccentricity, 4u);
}

TEST(Datasets, AllStandInsBuildAndMatchScaledSizes) {
  for (const DatasetId id : all_datasets()) {
    const Dataset d = make_dataset(id, 256);
    EXPECT_GT(d.graph.num_vertices(), 0u) << d.name;
    EXPECT_GT(d.graph.num_edges(), 0u) << d.name;
  }
  // Scaled |V| tracks the paper's Table I divided by the scale factor.
  const Dataset berk = make_dataset(DatasetId::kWebBerkStan, 256);
  EXPECT_NEAR(static_cast<double>(berk.graph.num_vertices()), 685231.0 / 256, 2.0);
}

TEST(Datasets, Cage15StandInIsNearRegular) {
  const Dataset cage = make_dataset(DatasetId::kCage15, 2048);
  const GraphStats s = compute_stats(cage.graph);
  EXPECT_LT(s.top1pct_out_edge_share, 0.05);
  EXPECT_NEAR(s.avg_out_degree, 18.0, 2.0);
}

TEST(Datasets, WebStandInsAreSkewed) {
  const Dataset web = make_dataset(DatasetId::kWebBerkStan, 256);
  const GraphStats s = compute_stats(web.graph);
  EXPECT_GT(s.top1pct_out_edge_share, 0.08);
}

TEST(Datasets, FromFileMatchesLoader) {
  const TempPath path("ndg_ds.txt");
  save_edge_list(path.str(), {{0, 1}, {1, 2}});
  const Dataset d = make_dataset_from_file("tiny", path.str());
  EXPECT_EQ(d.name, "tiny");
  EXPECT_EQ(d.graph.num_vertices(), 3u);
  EXPECT_EQ(d.graph.num_edges(), 2u);
}

}  // namespace
}  // namespace ndg
