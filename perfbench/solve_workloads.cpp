// The three in-process workloads: one graph, many timed solves on it.
//
//   rmat-pagerank  PageRank (eps 1e-4) on the NE engine over a Graph500-
//                  parameter R-MAT at scale 18, edgefactor 16 (seeded).
//   grid-sssp      SSSP on the NE engine over a 1024x1024 grid2d, source 0,
//                  weight seed 42.
//   spec-coloring  greedy coloring on the speculative engine over the
//                  web-google-sim stand-in at scale 256.
//
// Set-up (generation, build, solve-state allocation) repeats a fixed number
// of times per run, with solves after each (see measure()). Each solve is
// prog.init + the engine call on a fresh program; every solve's output is
// then checked against the sequential oracle in algorithms/reference,
// outside the timed calls.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/greedy_coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "bench.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/speculative.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace perfbench {
namespace {

using ndg::EdgeDataArray;
using ndg::EdgeList;
using ndg::EngineOptions;
using ndg::EngineResult;
using ndg::Graph;
using ndg::VertexId;

/// Fewest timed solves in a run, however long each takes.
constexpr std::size_t kMinSolves = 3;

/// Per-solve record of what the engine reported.
struct Solve {
  double init_s;
  double run_s;
  EngineResult r;
};

/// The measured part of an in-process run. Set-up (generation, build,
/// solve-state allocation) runs `placements` times, a fixed count because
/// the allocator state it leaves behind sets the peak resident set; after
/// each, the run solves back to back for an equal share of args.seconds.
/// Each set-up lands the graph on fresh memory, so the solve median spans
/// several placements instead of resting on one. `oracle` runs once, after
/// the first set-up, and its own memory is kept out of rss_peak_mb.
template <typename EdgeData, typename GenFn, typename OracleFn, typename SolveFn>
std::vector<Solve> measure(const Args& args, Tracer& tracer, Report& rep, int placements,
                           VertexId n, Graph& g, EdgeDataArray<EdgeData>& edges, GenFn gen,
                           OracleFn oracle, SolveFn solve) {
  std::vector<double> gen_s;
  std::vector<double> build_s;
  std::vector<double> setup_s;
  std::vector<Solve> out;
  double setup_peak_mb = 0.0;
  for (int i = 0; i < placements; ++i) {
    // Free the previous copy first so the peak resident set holds one graph.
    g = Graph();
    edges = EdgeDataArray<EdgeData>();
    Timed tg(tracer, "graph.gen");
    EdgeList el = gen();
    gen_s.push_back(tg.stop());
    Timed tb(tracer, "graph.build");
    g = Graph::build(n, std::move(el));
    build_s.push_back(tb.stop());
    const Clock::time_point ta = Clock::now();
    edges = EdgeDataArray<EdgeData>(g.num_edges());
    setup_s.push_back(gen_s.back() + build_s.back() + secs(ta, Clock::now()));
    if (i == 0) {
      setup_peak_mb = vm_hwm_mb(0);
      oracle();
      reset_peak_rss();
    }
    const Clock::time_point t0 = Clock::now();
    const double share = args.seconds / placements;
    do {
      out.push_back(solve());
    } while (secs(t0, Clock::now()) < share || out.size() < kMinSolves);
    rep.window_s += secs(t0, Clock::now());
  }
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.layer("graph.gen_s", median(gen_s), "s", gen_s.size());
  rep.layer("graph.build_s", median(build_s), "s", build_s.size());
  rep.info("vertices", std::to_string(g.num_vertices()));
  rep.info("edges", std::to_string(g.num_edges()));
  std::vector<double> solve_ms;
  for (const Solve& sv : out) solve_ms.push_back(1e3 * (sv.init_s + sv.run_s));
  rep.e2e("latency_p50_ms", median(solve_ms), "ms", solve_ms.size());
  const double solve_peak_mb = vm_hwm_mb(0);
  rep.info("rss_setup_mb", std::to_string(setup_peak_mb));
  rep.info("rss_solve_mb", std::to_string(solve_peak_mb));
  rep.e2e("rss_peak_mb", std::max(setup_peak_mb, solve_peak_mb), "MiB", 1);
  return out;
}

/// Runs one solve of `prog` with `run` (the engine call), timing init and run
/// as separate spans, then applies `check` to the result.
template <typename Program, typename RunFn, typename CheckFn>
Solve solve_once(Tracer& tracer, Report& rep, const Graph& g,
                 EdgeDataArray<typename Program::EdgeData>& edges,
                 Program prog, RunFn run, CheckFn check) {
  Timed ti(tracer, "engine.init");
  prog.init(g, edges);
  const double init_s = ti.stop();
  Timed tr(tracer, "engine.run");
  EngineResult r = run(prog);
  const double run_s = tr.stop();
  ++rep.attempted;
  if (!r.converged) {
    rep.fail("solve " + std::to_string(rep.attempted) + " did not converge");
  } else if (const std::string err = check(prog); !err.empty()) {
    rep.fail("solve " + std::to_string(rep.attempted) + ": " + err);
  }
  return {init_s, run_s, std::move(r)};
}

template <typename F>
std::vector<double> each(const std::vector<Solve>& ss, F f) {
  std::vector<double> out;
  for (const Solve& s : ss) out.push_back(static_cast<double>(f(s)));
  return out;
}

/// Engine, scheduler and frontier layers, from the solves' EngineResults.
void engine_layers(Report& rep, const std::vector<Solve>& ss) {
  const std::size_t n = ss.size();
  rep.layer("engine.init_s", median(each(ss, [](const Solve& s) { return s.init_s; })), "s", n);
  rep.layer("engine.run_s", median(each(ss, [](const Solve& s) { return s.run_s; })), "s", n);
  rep.layer("engine.iterations",
            median(each(ss, [](const Solve& s) { return s.r.iterations; })), "count", n);
  rep.layer("engine.iter_us",
            median(each(ss, [](const Solve& s) {
              return 1e6 * s.run_s / static_cast<double>(std::max<std::size_t>(1, s.r.iterations));
            })),
            "us", n);
  rep.layer("engine.updates",
            median(each(ss, [](const Solve& s) { return s.r.updates; })), "count", n);
  rep.layer("engine.updates_per_s",
            median(each(ss, [](const Solve& s) {
              return static_cast<double>(s.r.updates) / s.run_s;
            })),
            "1/s", n);
  rep.layer("sched.load_imbalance",
            median(each(ss, [](const Solve& s) { return s.r.load_imbalance(); })), "ratio", n);
  rep.layer("sched.steals", median(each(ss, [](const Solve& s) { return s.r.steals; })),
            "count", n);
  rep.layer("frontier.mean",
            median(each(ss, [](const Solve& s) {
              double sum = 0.0;
              for (const auto f : s.r.frontier_sizes) sum += static_cast<double>(f);
              return s.r.frontier_sizes.empty()
                         ? 0.0
                         : sum / static_cast<double>(s.r.frontier_sizes.size());
            })),
            "count", n);
  rep.layer("frontier.dense_frac",
            median(each(ss, [](const Solve& s) {
              double dense = 0.0;
              for (const auto d : s.r.frontier_dense) dense += d ? 1.0 : 0.0;
              return s.r.frontier_dense.empty()
                         ? 0.0
                         : dense / static_cast<double>(s.r.frontier_dense.size());
            })),
            "ratio", n);
}

/// Fails the run unless `count` is identical on every solve.
template <typename F>
void require_repeats(Report& rep, const std::vector<Solve>& ss, const char* what, F count) {
  for (const Solve& s : ss) {
    if (count(s) != count(ss.front())) {
      rep.fail(std::string(what) + " differs between solves (" +
               std::to_string(count(ss.front())) + " vs " + std::to_string(count(s)) + ")");
      return;
    }
  }
}

EngineOptions engine_options(const Args& args) {
  EngineOptions opts;  // library defaults: relaxed atomics, static blocks
  opts.num_threads = args.threads;
  return opts;
}

}  // namespace

double working_set_mb(const Graph& g, std::size_t edge_data_bytes,
                      std::size_t vertex_state_bytes) {
  const double v = g.num_vertices();
  const double e = static_cast<double>(g.num_edges());
  const double topo = 2 * (v + 1) * sizeof(ndg::EdgeId) +
                      e * (sizeof(VertexId) + sizeof(ndg::InEdge));
  return (topo + e * static_cast<double>(edge_data_bytes) +
          v * static_cast<double>(vertex_state_bytes)) /
         (1024.0 * 1024.0);
}

Report run_rmat_pagerank(const Args& args, Tracer& tracer) {
  constexpr VertexId kVertices = VertexId{1} << 18;
  constexpr ndg::EdgeId kEdges = ndg::EdgeId{16} << 18;
  constexpr float kEpsilon = 1e-4f;
  // Local convergence leaves every rank near, not at, its fixed point: at
  // eps 1e-4 the largest relative error measured is about 1e-3, and the
  // check allows ten times that.
  constexpr double kRelTol = 0.01;

  Report rep;
  Graph g;
  EdgeDataArray<float> edges;
  std::vector<double> expected;
  const EngineOptions opts = engine_options(args);
  double max_err = 0.0;
  const auto solves = measure(
      args, tracer, rep, 3, kVertices, g, edges,
      [&] { return ndg::gen::rmat(kVertices, kEdges, args.seed); },
      [&] { expected = ndg::ref::pagerank(g); },
      [&] {
        return solve_once(
            tracer, rep, g, edges, ndg::PageRankProgram(kEpsilon),
            [&](ndg::PageRankProgram& p) { return ndg::run_nondeterministic(g, p, edges, opts); },
            [&](const ndg::PageRankProgram& p) -> std::string {
              for (VertexId v = 0; v < g.num_vertices(); ++v) {
                const double err = std::abs(p.ranks()[v] - expected[v]);
                max_err = std::max(max_err, err / expected[v]);
                if (!(err <= kRelTol * expected[v])) {
                  char buf[128];
                  std::snprintf(buf, sizeof buf, "rank[%u]=%g, reference %g", v,
                                static_cast<double>(p.ranks()[v]), expected[v]);
                  return buf;
                }
              }
              return "";
            });
      });
  const double ws = working_set_mb(g, sizeof(float), 2 * sizeof(float));
  rep.layer("graph.ws_mb", ws, "MiB", 1);
  rep.info("graph", "\"rmat scale 18 edgefactor 16\"");
  rep.info("ws_mb", std::to_string(ws));
  rep.info("engine_threads", std::to_string(args.threads));
  engine_layers(rep, solves);
  rep.info("pagerank_max_rel_err", std::to_string(max_err));
  return rep;
}

Report run_grid_sssp(const Args& args, Tracer& tracer) {
  constexpr VertexId kSide = 1024;
  constexpr VertexId kSource = 0;
  constexpr std::uint64_t kWeightSeed = 42;

  Report rep;
  Graph g;
  EdgeDataArray<ndg::SsspEdge> edges;
  std::vector<float> expected;
  const EngineOptions opts = engine_options(args);
  const auto solves = measure(
      args, tracer, rep, 5, kSide * kSide, g, edges,
      [&] { return ndg::gen::grid2d(kSide, kSide); },
      [&] {
        std::vector<float> weights(g.num_edges());
        for (ndg::EdgeId e = 0; e < g.num_edges(); ++e) {
          weights[e] = ndg::SsspProgram::edge_weight(kWeightSeed, e);
        }
        expected = ndg::ref::sssp(g, kSource, weights);
      },
      [&] {
        return solve_once(
            tracer, rep, g, edges, ndg::SsspProgram(kSource, kWeightSeed),
            [&](ndg::SsspProgram& p) { return ndg::run_nondeterministic(g, p, edges, opts); },
            [&](const ndg::SsspProgram& p) -> std::string {
              return p.distances() == expected ? "" : "distances differ from ref::sssp";
            });
      });
  const double ws = working_set_mb(g, sizeof(ndg::SsspEdge), sizeof(float));
  rep.layer("graph.ws_mb", ws, "MiB", 1);
  rep.info("graph", "\"grid2d 1024x1024, weight seed 42\"");
  rep.info("ws_mb", std::to_string(ws));
  rep.info("engine_threads", std::to_string(args.threads));
  engine_layers(rep, solves);
  require_repeats(rep, solves, "engine.iterations",
                  [](const Solve& s) { return s.r.iterations; });
  require_repeats(rep, solves, "engine.updates", [](const Solve& s) { return s.r.updates; });
  return rep;
}

Report run_spec_coloring(const Args& args, Tracer& tracer) {
  // The web-google-sim stand-in at scale divisor 256 (graph/datasets.cpp:
  // 916428 and 5105039 divided by the scale, dataset seed + 1), the input of
  // bench/ablation_speculative. It is fixed, not seeded: its round, commit
  // and abort counts are the deterministic reference this workload pins.
  constexpr VertexId kVertices = 916428 / 256;
  constexpr ndg::EdgeId kSamples = 5105039 / 256;
  constexpr std::uint64_t kDatasetSeed = 20150707 + 1;

  Report rep;
  Graph g;
  EdgeDataArray<ndg::DualEdge> edges;
  std::vector<std::uint32_t> expected;
  const EngineOptions opts = engine_options(args);
  // The same init + run_speculative pair speculative_registry()'s
  // run_speculative closure executes, called directly so the colors of every
  // timed solve can be checked.
  const auto solves = measure(
      args, tracer, rep, 25, kVertices, g, edges,
      [&] { return ndg::gen::rmat(kVertices, kSamples, kDatasetSeed); },
      [&] { expected = ndg::ref::greedy_coloring(g); },
      [&] {
        return solve_once(
            tracer, rep, g, edges, ndg::GreedyColoringProgram(),
            [&](ndg::GreedyColoringProgram& p) { return ndg::run_speculative(g, p, edges, opts); },
            [&](const ndg::GreedyColoringProgram& p) -> std::string {
              return p.colors() == expected ? "" : "colors differ from ref::greedy_coloring";
            });
      });
  const double ws = working_set_mb(g, sizeof(ndg::DualEdge), sizeof(std::uint32_t));
  rep.layer("graph.ws_mb", ws, "MiB", 1);
  rep.info("graph", "\"web-google-sim scale 256\"");
  rep.info("ws_mb", std::to_string(ws));
  rep.info("engine_threads", std::to_string(args.threads));
  engine_layers(rep, solves);
  const std::size_t n = solves.size();
  const EngineResult& r = solves.front().r;
  rep.layer("spec.rounds", static_cast<double>(r.iterations), "count", n);
  rep.layer("spec.commits", static_cast<double>(r.spec_commits), "count", n);
  rep.layer("spec.aborts", static_cast<double>(r.spec_aborts), "count", n);
  rep.layer("spec.commit_frac", 1.0 - r.abort_rate(), "ratio", n);
  rep.layer("spec.round_us",
            median(each(solves, [](const Solve& s) {
              return 1e6 * s.run_s / static_cast<double>(std::max<std::size_t>(1, s.r.iterations));
            })),
            "us", n);
  require_repeats(rep, solves, "spec.rounds", [](const Solve& s) { return s.r.iterations; });
  require_repeats(rep, solves, "spec.commits", [](const Solve& s) { return s.r.spec_commits; });
  require_repeats(rep, solves, "spec.aborts", [](const Solve& s) { return s.r.spec_aborts; });
  return rep;
}

}  // namespace perfbench
