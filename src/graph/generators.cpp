#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ndg::gen {

namespace {

/// Rounds n up to the next power of two (R-MAT recursion needs 2^k vertices).
VertexId next_pow2(VertexId n) {
  VertexId p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EdgeList rmat(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
              const RmatOptions& opts) {
  NDG_ASSERT(num_vertices >= 2);
  const VertexId n = next_pow2(num_vertices);
  int levels = 0;
  for (VertexId p = 1; p < n; p <<= 1) ++levels;

  Xoshiro256 rng(seed);
  const double ab = opts.a + opts.b;
  const double abc = ab + opts.c;

  EdgeList edges;
  edges.reserve(num_edges);
  for (EdgeId i = 0; i < num_edges; ++i) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int l = 0; l < levels; ++l) {
      // One draw picks the quadrant: [0, a) neither bit, [a, ab) dst,
      // [ab, abc) src, [abc, 1) both. Computed without a branch, because
      // the CPU cannot predict which quadrant a draw lands in.
      const double r = rng.next_double();
      const bool ge_a = r >= opts.a;
      const bool ge_ab = r >= ab;
      const bool ge_abc = r >= abc;
      src = (src << 1) | static_cast<VertexId>(ge_ab);
      dst = (dst << 1) | static_cast<VertexId>(ge_a ^ ge_ab ^ ge_abc);
    }
    edges.push_back(Edge{src, dst});
  }

  if (opts.permute) {
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    // Fisher-Yates with the same stream keeps the generator fully seeded.
    for (VertexId i = n - 1; i > 0; --i) {
      const auto j = static_cast<VertexId>(rng.next_below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    for (Edge& e : edges) {
      e.src = perm[e.src];
      e.dst = perm[e.dst];
    }
  }
  // Clamp sampled ids into [0, num_vertices) when n > num_vertices.
  if (n != num_vertices) {
    for (Edge& e : edges) {
      e.src %= num_vertices;
      e.dst %= num_vertices;
    }
  }
  return edges;
}

EdgeList erdos_renyi(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed) {
  NDG_ASSERT(num_vertices >= 2);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (EdgeId i = 0; i < num_edges; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(num_vertices));
    const auto dst = static_cast<VertexId>(rng.next_below(num_vertices));
    edges.push_back(Edge{src, dst});
  }
  return edges;
}

EdgeList small_world(VertexId num_vertices, unsigned k, double beta,
                     std::uint64_t seed) {
  NDG_ASSERT(num_vertices > k);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (unsigned j = 1; j <= k; ++j) {
      VertexId dst = static_cast<VertexId>((v + j) % num_vertices);
      if (rng.next_double() < beta) {
        dst = static_cast<VertexId>(rng.next_below(num_vertices));
      }
      edges.push_back(Edge{v, dst});
    }
  }
  return edges;
}

EdgeList grid2d(VertexId rows, VertexId cols) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(Edge{id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back(Edge{id(r, c), id(r + 1, c)});
    }
  }
  return edges;
}

EdgeList chain(VertexId num_vertices) {
  EdgeList edges;
  if (num_vertices < 2) return edges;
  edges.reserve(num_vertices - 1);
  for (VertexId v = 0; v + 1 < num_vertices; ++v) edges.push_back(Edge{v, v + 1});
  return edges;
}

EdgeList cycle(VertexId num_vertices) {
  EdgeList edges = chain(num_vertices);
  if (num_vertices >= 2) edges.push_back(Edge{num_vertices - 1, 0});
  return edges;
}

EdgeList star(VertexId num_vertices) {
  EdgeList edges;
  if (num_vertices < 2) return edges;
  edges.reserve(num_vertices - 1);
  for (VertexId v = 1; v < num_vertices; ++v) edges.push_back(Edge{0, v});
  return edges;
}

EdgeList complete(VertexId num_vertices) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * (num_vertices - 1));
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (u != v) edges.push_back(Edge{u, v});
    }
  }
  return edges;
}

EdgeList random_dag(VertexId num_vertices, double avg_degree, std::uint64_t seed) {
  NDG_ASSERT(num_vertices >= 2);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices * avg_degree));
  for (VertexId u = 0; u + 1 < num_vertices; ++u) {
    const VertexId span = num_vertices - u - 1;
    // Expected avg_degree edges forward; cap by available targets.
    const auto count = static_cast<VertexId>(
        std::min<double>(span, std::floor(avg_degree + rng.next_double())));
    for (VertexId j = 0; j < count; ++j) {
      const auto dst = static_cast<VertexId>(u + 1 + rng.next_below(span));
      edges.push_back(Edge{u, dst});
    }
  }
  return edges;
}

EdgeList barabasi_albert(VertexId num_vertices, unsigned m, std::uint64_t seed) {
  NDG_ASSERT(num_vertices > m && m >= 1);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * m);
  // endpoint_pool holds every edge endpoint seen so far; sampling uniformly
  // from it IS degree-proportional sampling.
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(static_cast<std::size_t>(num_vertices) * m * 2);

  // Seed clique over the first m+1 vertices.
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = 0; v <= m; ++v) {
      if (u == v) continue;
      edges.push_back(Edge{u, v});
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  for (VertexId v = m + 1; v < num_vertices; ++v) {
    for (unsigned k = 0; k < m; ++k) {
      const VertexId target =
          endpoint_pool[rng.next_below(endpoint_pool.size())];
      edges.push_back(Edge{v, target});
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  return edges;
}

}  // namespace ndg::gen
