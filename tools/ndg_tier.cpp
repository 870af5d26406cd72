// ndg_tier — launcher for the replicated serving tier (docs/TIER.md).
//
// One invocation spawns the whole topology: N replica processes are forked
// first (each builds its own copy of the base graph from the SAME flags and
// seed, so at epoch 0 every process holds an identical DynGraph and no
// initial snapshot is needed), then the parent becomes the coordinator.
// Sockets live in --dir:
//
//   coord.sock      writes (mutate/recompute) + coordinator-local reads
//   rep.sock        internal replication stream: replicas connect here
//                   and speak bin1 frames only (dyn/replication.hpp)
//   replica-K.sock  read endpoint of replica K — clients fan reads out
//                   across these directly, which is where the tier's read
//                   scaling comes from (each replica is its own process
//                   with its own poll loop)
//
//   ndg_tier --dir=/tmp/tier --replicas=4 --algo=pagerank --vertices=2048
//   ndg_tier --dir=/tmp/tier --replicas=0 ...   # single-process baseline
//
// --chaos=hold:<ms> holds each replica that long before applying every
// replication record — the fault-injection hook tests use to push a replica
// past the coordinator's bounded history (--history=M records) and force
// the snapshot path. --chaos=stale:<records> instead applies records at full
// speed but serves reads from a state up to that many records old (bounded
// per-record staleness; docs/DELAY.md). --role=replica --id=K is the
// internal re-entry used by the forked children; it is not meant to be
// invoked by hand. The coordinator is the same front-end ndg_serve launches
// and reads the same flag table (tools/serve_launch.hpp, defaults
// --threads=2, --compact-threshold=0.5); clients stop the tier with the
// `shutdown` op.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve_launch.hpp"
#include "tier/replica.hpp"

namespace ndg {
namespace {

struct TierConfig {
  launch::LaunchConfig common;
  std::string dir;
  std::size_t replicas = 2;
  std::uint32_t chaos_hold_ms = 0;
  std::uint32_t chaos_stale_records = 0;
};

template <typename Program>
int run_replica(Graph base, Program prog, const TierConfig& cfg,
                std::size_t id) {
  dyn::DynGraphOptions gopts = launch::make_graph_opts(prog, cfg.common);
  dyn::DynGraph g(std::move(base), gopts);
  dyn::EligibilityGate gate =
      dyn::EligibilityGate::make(cfg.common.gate, g.base(), prog);
  tier::ReplicaOptions ropts;
  ropts.id = id;
  ropts.dir = cfg.dir;
  ropts.chaos_hold_ms = cfg.chaos_hold_ms;
  ropts.chaos_stale_records = cfg.chaos_stale_records;
  tier::Replica<Program> rep(std::move(g), std::move(prog), std::move(gate),
                             cfg.common.engine_opts, cfg.common.engine,
                             std::move(gopts), ropts);
  return rep.run();
}

/// Runs replica `id`; the coordinator and every replica resolve the same
/// flags to the same program config, so all processes agree on the
/// algorithm, its parameters, and (for SSSP) the hash-derived base weights.
int replica_main(const CliArgs& args, const TierConfig& cfg, std::size_t id) {
  return launch::with_program(args, [&](Graph b, auto prog) {
    return run_replica(std::move(b), std::move(prog), cfg, id);
  });
}

int tier_main(const CliArgs& args) {
  TierConfig cfg;
  cfg.common = launch::parse_launch_flags(args, /*default_threads=*/2,
                                          /*default_compact_threshold=*/0.5);
  cfg.dir = args.get("dir", "");
  cfg.replicas = static_cast<std::size_t>(args.get_int("replicas", 2));
  tier::CoordinatorOptions& copts = cfg.common.coord;
  copts.client_socket = tier::coord_sock(cfg.dir);
  copts.rep_socket = tier::rep_sock(cfg.dir);
  copts.history = static_cast<std::size_t>(args.get_int("history", 64));
  copts.stop = tier::StopOp::kShutdown;
  if (args.has("chaos")) {
    const std::string chaos = args.get("chaos", "");
    const auto colon = chaos.find(':');
    const std::string mode = chaos.substr(0, colon);
    const std::string val =
        colon == std::string::npos ? "" : chaos.substr(colon + 1);
    if (mode == "hold" && !val.empty()) {
      cfg.chaos_hold_ms = static_cast<std::uint32_t>(std::stoul(val));
    } else if (mode == "stale" && !val.empty()) {
      cfg.chaos_stale_records = static_cast<std::uint32_t>(std::stoul(val));
    } else {
      throw std::runtime_error(
          "bad --chaos (expected hold:<ms> or stale:<records>)");
    }
  }
  if (cfg.dir.empty()) {
    throw std::runtime_error("--dir=PATH is required (socket directory)");
  }

  const std::string role = args.get("role", "launch");
  if (role == "replica") {
    const auto id = static_cast<std::size_t>(args.get_int("id", 0));
    return replica_main(args, cfg, id);
  }
  if (role != "launch" && role != "coordinator") {
    throw std::runtime_error("unknown --role (expected launch|replica)");
  }

  // Fork the replicas BEFORE the coordinator builds anything: the parent is
  // still single-threaded here (gate analysis and engine runs spawn teams),
  // so plain fork without exec is safe, and each child constructs its own
  // graph/program/engine from the shared flags.
  std::vector<pid_t> children;
  for (std::size_t k = 0; k < cfg.replicas; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int rc = 1;
      try {
        rc = replica_main(args, cfg, k);
      } catch (const std::exception& e) {
        std::cerr << "ndg_tier: replica " << k << ": " << e.what() << "\n";
      }
      std::_Exit(rc);
    }
    children.push_back(pid);
  }

  int rc = 1;
  try {
    rc = launch::with_program(args, [&](Graph b, auto prog) {
      return launch::run_coordinator(std::move(b), std::move(prog),
                                     cfg.common);
    });
  } catch (const std::exception& e) {
    std::cerr << "ndg_tier: coordinator: " << e.what() << "\n";
    for (const pid_t pid : children) ::kill(pid, SIGKILL);
  }
  for (const pid_t pid : children) {
    int status = 0;
    pid_t r;
    while ((r = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
    // ECHILD: the coordinator's reap loop already collected this child (and
    // folded any crash into its own return code above).
    if (r < 0) continue;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace ndg

int main(int argc, char** argv) {
  // A reader vanishing mid-reply must not kill any tier process.
  std::signal(SIGPIPE, SIG_IGN);
  ndg::CliArgs args(argc, argv);
  try {
    return ndg::tier_main(args);
  } catch (const std::exception& e) {
    std::cerr << "ndg_tier: " << e.what() << "\n";
    return 1;
  }
}
