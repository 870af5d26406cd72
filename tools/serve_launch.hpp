#pragma once
// Flag table and builders shared by the two launchers of tier::Coordinator:
// ndg_serve (--socket=PATH or stdio, no replicas) and ndg_tier (--dir plus
// forked replicas). Only the defaults and the socket layout differ. The
// builders are deterministic in the flags alone — every process of a tier
// calls them with identical argv and gets a bit-identical base graph and
// program config, which is what lets replicas start at seq 0 without an
// initial snapshot.
//
// Flags read here:
//   --algo=pagerank|sssp|wcc [--eps=E] [--source=V] [--weight-seed=S]
//   --kind=rmat|er|chain --vertices=N [--edges=M] [--seed=S] [--symmetrize]
//     | --graph=FILE (.ndgb binary, anything else a SNAP edge list)
//   --gate=analyze|static|theorem1|theorem2|ineligible --engine=ne|async
//   --threads=T --max-iterations=K --mode=locked|aligned|relaxed|seq_cst
//   --compact-threshold=F --live-queries --epoch-hold-ms=MS

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "nondetgraph.hpp"
#include "tier/coordinator.hpp"
#include "util/cli.hpp"

namespace ndg::launch {

struct LaunchConfig {
  dyn::GateMode gate = dyn::GateMode::kAnalyze;
  dyn::DynEngine engine = dyn::DynEngine::kNE;
  EngineOptions engine_opts;
  double compact_threshold = 0.5;
  tier::CoordinatorOptions coord;  // the launcher adds sockets and stop op
};

inline dyn::GateMode parse_gate(const std::string& s) {
  if (s == "analyze") return dyn::GateMode::kAnalyze;
  if (s == "static") return dyn::GateMode::kStatic;
  if (s == "theorem1") return dyn::GateMode::kAssumeTheorem1;
  if (s == "theorem2") return dyn::GateMode::kAssumeTheorem2;
  if (s == "ineligible") return dyn::GateMode::kAssumeIneligible;
  throw std::runtime_error(
      "unknown --gate (expected analyze|static|theorem1|theorem2|"
      "ineligible)");
}

/// The common flags; the launchers differ only in these two defaults.
inline LaunchConfig parse_launch_flags(const CliArgs& args,
                                       std::int64_t default_threads,
                                       double default_compact_threshold) {
  LaunchConfig cfg;
  cfg.engine_opts.num_threads =
      static_cast<std::size_t>(args.get_int("threads", default_threads));
  cfg.engine_opts.max_iterations =
      static_cast<std::size_t>(args.get_int("max-iterations", 100000));
  cfg.engine_opts.mode = parse_atomicity_mode(args.get("mode", "relaxed"));
  cfg.compact_threshold =
      args.get_double("compact-threshold", default_compact_threshold);
  cfg.gate = parse_gate(args.get("gate", "analyze"));
  const std::string engine = args.get("engine", "ne");
  if (engine == "async") {
    cfg.engine = dyn::DynEngine::kPureAsync;
  } else if (engine != "ne") {
    throw std::runtime_error("unknown --engine (expected ne|async)");
  }
  cfg.coord.live_queries = args.get_bool("live-queries", false);
  cfg.coord.epoch_hold_ms =
      static_cast<std::uint32_t>(args.get_int("epoch-hold-ms", 0));
  return cfg;
}

inline Graph build_base_graph(const CliArgs& args) {
  if (args.has("graph")) return load_any_graph(args.get("graph", ""));
  const std::string kind = args.get("kind", "rmat");
  // Width matters: the default edge count is 8x the vertex count and must be
  // computed in 64-bit (8 * a 32-bit n overflows past ~536M vertices).
  const std::int64_t n_raw = args.get_int("vertices", 1024);
  const auto n = static_cast<VertexId>(n_raw);
  const auto m = static_cast<EdgeId>(args.get_int("edges", 8 * n_raw));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  EdgeList edges;
  if (kind == "rmat") {
    edges = gen::rmat(n, m, seed);
  } else if (kind == "er") {
    edges = gen::erdos_renyi(n, m, seed);
  } else if (kind == "chain") {
    edges = gen::chain(n);
  } else {
    throw std::runtime_error("unknown --kind: " + kind +
                             " (expected rmat|er|chain)");
  }
  if (args.get_bool("symmetrize", false)) edges = symmetrize(edges);
  return Graph::build(n, std::move(edges));
}

template <typename Program>
dyn::DynGraphOptions make_graph_opts(const Program& prog,
                                     const LaunchConfig& cfg) {
  dyn::DynGraphOptions gopts;
  gopts.compact_threshold = cfg.compact_threshold;
  gopts.mem = cfg.engine_opts.mem;
  if constexpr (std::is_same_v<Program, SsspProgram>) {
    // Base edges keep the paper's hash-derived weights so the served results
    // match the static engines' on the unmutated graph.
    const std::uint64_t seed = prog.weight_seed();
    gopts.base_weight = [seed](EdgeId e) {
      return SsspProgram::edge_weight(seed, e);
    };
  }
  return gopts;
}

template <typename Program>
int run_coordinator(Graph base, Program prog, const LaunchConfig& cfg) {
  dyn::DynGraph g(std::move(base), make_graph_opts(prog, cfg));
  dyn::EligibilityGate gate =
      dyn::EligibilityGate::make(cfg.gate, g.base(), prog);
  tier::Coordinator<Program> coord(std::move(g), std::move(prog),
                                   std::move(gate), cfg.engine_opts,
                                   cfg.engine, cfg.coord);
  return coord.run();
}

/// Builds the base graph and calls role(graph, program) under the program
/// --algo selects. kWithExhibit adds ndg_serve's ineligible exhibit,
/// pagerank-push-atomic: it analyzes to kNotProven, so every epoch goes
/// cold, and it has no live_value hook (its live queries wait for the
/// epoch instead of racing).
template <bool kWithExhibit = false, typename RoleFn>
int with_program(const CliArgs& args, RoleFn&& role) {
  Graph base = build_base_graph(args);
  const std::string algo = args.get("algo", "pagerank");
  const auto eps = static_cast<float>(args.get_double("eps", 1e-4));
  if (algo == "pagerank") return role(std::move(base), PageRankProgram(eps));
  if (algo == "sssp") {
    return role(std::move(base),
                SsspProgram(static_cast<VertexId>(args.get_int("source", 0)),
                            static_cast<std::uint64_t>(
                                args.get_int("weight-seed", 42))));
  }
  if (algo == "wcc") return role(std::move(base), WccProgram());
  if constexpr (kWithExhibit) {
    if (algo == "pagerank-push-atomic") {
      return role(std::move(base), AtomicPushPageRankProgram(eps));
    }
  }
  throw std::runtime_error("unknown --algo: " + algo + " (expected " +
                           (kWithExhibit ? "pagerank|sssp|wcc|"
                                           "pagerank-push-atomic)"
                                         : "pagerank|sssp|wcc)"));
}

}  // namespace ndg::launch
