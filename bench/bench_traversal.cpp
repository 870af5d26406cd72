// Traversal/memory-locality bench for the perf layer (docs/PERF.md):
//
//   1. PageRank + SSSP on an UNPERMUTED R-MAT (vertex id correlates with
//      degree, so locality effects are visible) across the new knobs:
//      frontier policy {sparse, dense, auto} × hub splitting {off, on} on the
//      stealing worklist, plus the --mem placement policies on the default
//      engine config.
//   2. SSSP on a grid2d (--grid side, source 0): a high-diameter solve of
//      ~2*side barriered iterations with sparse frontiers, so the
//      per-iteration frontier hand-off dominates. Distances are checked
//      against ref::sssp; a mismatch exits 1.
//   3. A microbenchmark of Graph::build wall time at exact-size allocation.
//
// Emits a machine-readable manifest (default BENCH_traversal.json) consumed
// by scripts/bench_diff.py in the CI bench-smoke job — keep the `config`
// column values stable, they are the diff keys.
//
// Flags: --n=16384 --m=131072 (R-MAT size; n must be a power of two),
//        --grid=512 (grid side), --threads=4, --repeats=3, --eps=1e-3,
//        --hub-threshold=64, --json=BENCH_traversal.json

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "bench_common.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ndg {
namespace {

struct Knobs {
  std::size_t threads = 4;
  int repeats = 3;
  float eps = 1e-3f;
  std::size_t hub_threshold = 64;
};

/// Median seconds over `repeats` runs; `run` re-initializes each time.
template <typename Runner>
double median_secs(const Runner& run, int repeats) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) times.push_back(run());
  return percentile(times, 50);
}

template <typename MakeProgram>
void bench_engine_grid(const Graph& g, const char* algo,
                       MakeProgram make_prog, const Knobs& k,
                       TextTable& table) {
  using Program = decltype(make_prog());
  using ED = typename Program::EdgeData;

  const auto run_with = [&](const EngineOptions& opts, std::string config) {
    Program prog = make_prog();
    EdgeDataArray<ED> edges(g.num_edges(), ED{}, opts.mem);
    EngineResult last;
    const double secs = median_secs(
        [&] {
          prog.init(g, edges);
          last = run_nondeterministic(g, prog, edges, opts);
          return last.seconds;
        },
        k.repeats);
    table.add_row(
        {algo, std::move(config), std::to_string(opts.num_threads),
         TextTable::num(secs * 1e3, 2),
         TextTable::num(static_cast<double>(last.updates) / secs / 1e6, 2),
         std::to_string(last.iterations), std::to_string(last.hub_splits),
         std::to_string(last.hub_chunks), last.converged ? "yes" : "no"});
  };

  // Frontier policy × hub splitting, on the stealing worklist (hub chunks
  // need a shared queue to be co-scheduled on).
  for (const FrontierPolicy policy :
       {FrontierPolicy::kSparse, FrontierPolicy::kDense,
        FrontierPolicy::kAuto}) {
    for (const bool hubs : {false, true}) {
      EngineOptions opts;
      opts.num_threads = k.threads;
      opts.mode = AtomicityMode::kRelaxed;
      opts.scheduler = SchedulerKind::kStealing;
      opts.frontier_policy = policy;
      opts.hub_threshold = hubs ? k.hub_threshold : 0;
      run_with(opts, std::string("frontier-") + to_string(policy) +
                         (hubs ? "+hubs" : ""));
    }
  }

  // Memory placement policies on the default engine config. On hosts
  // without NUMA support these fall back transparently; the row is still
  // emitted so the diff keys are stable.
  for (const MemPolicy mp :
       {MemPolicy::kDefault, MemPolicy::kHugepage, MemPolicy::kInterleave}) {
    EngineOptions opts;
    opts.num_threads = k.threads;
    opts.mode = AtomicityMode::kRelaxed;
    opts.frontier_policy = FrontierPolicy::kAuto;
    opts.mem.policy = mp;
    run_with(opts, std::string("mem-") + to_string(mp));
  }
}

/// Returns false when the grid distances differ from the sequential oracle.
bool bench_grid_sssp(VertexId side, const Knobs& k, TextTable& table) {
  const Graph g = Graph::build(side * side, gen::grid2d(side, side));
  constexpr VertexId kSource = 0;
  constexpr std::uint64_t kWeightSeed = 42;
  std::vector<float> weights(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights[e] = SsspProgram::edge_weight(kWeightSeed, e);
  }
  const std::vector<float> expected = ref::sssp(g, kSource, weights);

  EngineOptions opts;
  opts.num_threads = k.threads;
  opts.mode = AtomicityMode::kRelaxed;
  SsspProgram prog(kSource, kWeightSeed);
  EdgeDataArray<SsspEdge> edges(g.num_edges());
  EngineResult last;
  bool exact = true;
  const double secs = median_secs(
      [&] {
        prog.init(g, edges);
        last = run_nondeterministic(g, prog, edges, opts);
        exact = exact && prog.distances() == expected;
        return last.seconds;
      },
      k.repeats);
  table.add_row(
      {"sssp-grid", "frontier-auto", std::to_string(opts.num_threads),
       TextTable::num(secs * 1e3, 2),
       TextTable::num(static_cast<double>(last.updates) / secs / 1e6, 2),
       std::to_string(last.iterations), "0", "0",
       last.converged && exact ? "yes" : "no"});
  return exact;
}

void bench_build(VertexId n, const EdgeList& el, int repeats,
                 TextTable& table) {
  const double secs = median_secs(
      [&] {
        EdgeList copy = el;
        Timer t;
        const Graph g = Graph::build(n, std::move(copy));
        return g.num_edges() ? t.seconds() : t.seconds();
      },
      repeats);
  table.add_row({"graph_build", "exact-alloc", "1",
                 TextTable::num(secs * 1e3, 2),
                 TextTable::num(static_cast<double>(el.size()) / secs / 1e6, 2),
                 "1", "0", "0", "yes"});
}

}  // namespace
}  // namespace ndg

int main(int argc, char** argv) {
  using namespace ndg;
  const CliArgs args(argc, argv);

  const auto n = static_cast<VertexId>(args.get_int("n", 16384));
  const auto m = static_cast<EdgeId>(args.get_int("m", 131072));
  const auto grid = static_cast<VertexId>(args.get_int("grid", 512));
  Knobs k;
  k.threads = static_cast<std::size_t>(args.get_int("threads", 4));
  k.repeats = static_cast<int>(args.get_int("repeats", 3));
  k.eps = static_cast<float>(args.get_double("eps", 1e-3));
  k.hub_threshold =
      static_cast<std::size_t>(args.get_int("hub-threshold", 64));

  std::cout << "=== Traversal & memory-locality bench (perf layer) ===\n"
            << "(rmat n=" << n << " m=" << m << " unpermuted, threads="
            << k.threads << ", repeats=" << k.repeats
            << ", hub-threshold=" << k.hub_threshold << "; grid " << grid
            << "x" << grid << ")\n\n";

  gen::RmatOptions rmat_opts;
  rmat_opts.permute = false;  // keep id<->degree correlation: locality shows
  EdgeList el = gen::rmat(n, m, /*seed=*/20150707, rmat_opts);
  const EdgeList el_copy = el;  // for the build microbench
  const Graph g = Graph::build(n, std::move(el));
  const VertexId src = max_out_degree_vertex(g);

  TextTable table({"benchmark", "config", "threads", "ms", "Mitems/s",
                   "iters", "hub_splits", "hub_chunks", "conv"});

  const float eps = k.eps;
  bench_engine_grid(g, "pagerank", [eps] { return PageRankProgram(eps); }, k,
                    table);
  bench_engine_grid(g, "sssp", [src] { return SsspProgram(src, 42); }, k,
                    table);
  const bool grid_exact = bench_grid_sssp(grid, k, table);
  bench_build(n, el_copy, k.repeats, table);

  table.print(std::cout);

  const std::string json_path = args.get("json", "BENCH_traversal.json");
  const std::string cfg =
      "{\"experiment\":\"traversal\",\"n\":" + std::to_string(n) +
      ",\"m\":" + std::to_string(m) + ",\"grid\":" + std::to_string(grid) +
      ",\"threads\":" + std::to_string(k.threads) +
      ",\"repeats\":" + std::to_string(k.repeats) +
      ",\"hub_threshold\":" + std::to_string(k.hub_threshold) + "}";
  table.write_json(json_path, cfg);
  std::cout << "\n(json manifest written to " << json_path << ")\n";

  std::cout << "\nshape targets: dense/auto frontier >= sparse on PageRank "
               "(full frontiers); sparse >= dense on SSSP tails.\n";
  if (!grid_exact) {
    std::cerr << "FAIL: sssp-grid distances differ from ref::sssp\n";
    return 1;
  }
  return 0;
}
