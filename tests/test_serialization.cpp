// Binary graph format tests: round-trip fidelity, determinism of edge ids,
// and rejection of corrupted/truncated/foreign files.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/generators.hpp"
#include "graph/serialization.hpp"
#include "temp_path.hpp"

namespace ndg {
namespace {

TEST(Serialization, RoundTripPreservesTopologyAndEdgeIds) {
  const Graph g = Graph::build(300, gen::rmat(300, 2000, 9));
  const TempPath path("roundtrip.ndgb");
  save_binary_graph(path.str(), g);
  const Graph h = load_binary_graph(path.str());

  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge_target(e), g.edge_target(e));
    EXPECT_EQ(h.edge_source(e), g.edge_source(e));
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(h.in_degree(v), g.in_degree(v));
    EXPECT_EQ(h.out_degree(v), g.out_degree(v));
  }
}

TEST(Serialization, RoundTripEmptyGraph) {
  const Graph g = Graph::build(5, EdgeList{});
  const TempPath path("empty.ndgb");
  save_binary_graph(path.str(), g);
  const Graph h = load_binary_graph(path.str());
  EXPECT_EQ(h.num_vertices(), 5u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(Serialization, RejectsBadMagic) {
  const TempPath path("badmagic.ndgb");
  std::ofstream(path.str()) << "definitely not a graph file";
  EXPECT_THROW(load_binary_graph(path.str()), std::runtime_error);
}

TEST(Serialization, RejectsTruncation) {
  const Graph g = Graph::build(50, gen::cycle(50));
  const TempPath path("trunc.ndgb");
  save_binary_graph(path.str(), g);
  // Chop the file in half.
  std::ifstream in(path.str(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path.str(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(load_binary_graph(path.str()), std::runtime_error);
}

TEST(Serialization, RejectsBitFlip) {
  const Graph g = Graph::build(50, gen::cycle(50));
  const TempPath path("bitflip.ndgb");
  save_binary_graph(path.str(), g);
  std::fstream f(path.str(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64);
  char c = 0;
  f.seekg(64);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(64);
  f.write(&c, 1);
  f.close();
  EXPECT_THROW(load_binary_graph(path.str()), std::runtime_error);
}

TEST(Serialization, RejectsMissingFile) {
  EXPECT_THROW(load_binary_graph("/nonexistent/nope.ndgb"), std::runtime_error);
}

TEST(Serialization, PreservesSelfLoopFreeCanonicalForm) {
  // What was canonicalized at build time stays exactly as-is on reload.
  const Graph g = Graph::build(10, {{1, 2}, {2, 1}, {1, 2}, {3, 3}});
  ASSERT_EQ(g.num_edges(), 2u);
  const TempPath path("canon.ndgb");
  save_binary_graph(path.str(), g);
  const Graph h = load_binary_graph(path.str());
  EXPECT_EQ(h.num_edges(), 2u);
}

}  // namespace
}  // namespace ndg
