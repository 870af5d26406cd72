#include "graph/serialization.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/loader.hpp"

namespace ndg {

namespace {

constexpr char kMagic[4] = {'N', 'D', 'G', 'B'};
constexpr std::uint32_t kVersion = 1;

class Fnv1a {
 public:
  void feed(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

template <typename T>
void write_pod(std::ofstream& out, Fnv1a& sum, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
  sum.feed(&v, sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& out, Fnv1a& sum, const std::vector<T>& v) {
  const auto bytes = static_cast<std::streamsize>(v.size() * sizeof(T));
  out.write(reinterpret_cast<const char*>(v.data()), bytes);
  sum.feed(v.data(), static_cast<std::size_t>(bytes));
}

template <typename T>
void read_pod(std::ifstream& in, Fnv1a& sum, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("NDGB: truncated file");
  sum.feed(&v, sizeof(T));
}

template <typename T>
void read_vec(std::ifstream& in, Fnv1a& sum, std::vector<T>& v) {
  const auto bytes = static_cast<std::streamsize>(v.size() * sizeof(T));
  in.read(reinterpret_cast<char*>(v.data()), bytes);
  if (!in) throw std::runtime_error("NDGB: truncated file");
  sum.feed(v.data(), static_cast<std::size_t>(bytes));
}

}  // namespace

void save_binary_graph(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("NDGB: cannot open for writing: " + path);

  Fnv1a sum;
  out.write(kMagic, 4);
  sum.feed(kMagic, 4);
  write_pod(out, sum, kVersion);
  write_pod(out, sum, static_cast<std::uint64_t>(g.num_vertices()));
  write_pod(out, sum, static_cast<std::uint64_t>(g.num_edges()));

  std::vector<std::uint64_t> offsets(g.num_vertices() + 1);
  offsets[0] = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    offsets[v + 1] = offsets[v] + g.out_degree(v);
  }
  write_vec(out, sum, offsets);

  std::vector<std::uint32_t> targets(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) targets[e] = g.edge_target(e);
  write_vec(out, sum, targets);

  const std::uint64_t checksum = sum.value();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) throw std::runtime_error("NDGB: write failed: " + path);
}

Graph load_binary_graph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("NDGB: cannot open: " + path);

  Fnv1a sum;
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("NDGB: bad magic: " + path);
  }
  sum.feed(magic, 4);

  std::uint32_t version = 0;
  read_pod(in, sum, version);
  if (version != kVersion) throw std::runtime_error("NDGB: unsupported version");

  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  read_pod(in, sum, num_vertices);
  read_pod(in, sum, num_edges);

  std::vector<std::uint64_t> offsets(num_vertices + 1);
  read_vec(in, sum, offsets);
  std::vector<std::uint32_t> targets(num_edges);
  read_vec(in, sum, targets);

  std::uint64_t stored_sum = 0;
  in.read(reinterpret_cast<char*>(&stored_sum), sizeof(stored_sum));
  if (!in || stored_sum != sum.value()) {
    throw std::runtime_error("NDGB: checksum mismatch: " + path);
  }

  // CSR was saved in canonical order, so the rebuilt edge list is pre-sorted
  // and Graph::build assigns identical edge ids.
  EdgeList edges;
  edges.reserve(num_edges);
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    for (std::uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      edges.push_back(Edge{static_cast<VertexId>(v), targets[e]});
    }
  }
  // Keep exactly what was saved (it already went through canonicalization).
  GraphBuildOptions opts;
  opts.remove_self_loops = false;
  opts.remove_duplicate_edges = false;
  return Graph::build(static_cast<VertexId>(num_vertices), std::move(edges),
                      opts);
}

Graph load_any_graph(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".ndgb") == 0) {
    return load_binary_graph(path);
  }
  auto loaded = load_edge_list(path);
  return Graph::build(loaded.num_vertices, std::move(loaded.edges));
}

}  // namespace ndg
