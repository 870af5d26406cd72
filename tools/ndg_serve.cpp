// ndg_serve — single-process launcher of the serving front-end
// (tier::Coordinator with no replicas; docs/DYNAMIC.md). Speaks one flat
// JSON object per line (dyn/wire.hpp) over stdin/stdout or a unix socket
// (--socket=PATH):
//
//   {"op":"mutate","kind":"insert","src":3,"dst":7,"weight":2.5}
//   {"op":"recompute"}            seal the pending batch as one epoch and
//                                 warm- or cold-recompute behind the gate
//   {"op":"query","vertex":7}     read one vertex result
//   {"op":"stats"}                log / graph / engine / wire counters
//   {"op":"quit"}                 stdio: stop the server; socket: disconnect
//                                 this client (whole-server stop only with
//                                 --allow-shutdown, which also admits the
//                                 `shutdown` op)
//
// Mutations accumulate in a MutationLog and are batched BY EPOCH: everything
// appended between two `recompute` commands seals into one MutationBatch.
// On a socket, clients may upgrade to bin1 frames with
// {"op":"hello","proto":"bin1"}; recompute runs on the coordinator's epoch
// worker and --live-queries answers queries mid-run, labeled
// "quiescent":false. Stdio runs each recompute inline.
//
// Flags: those of tools/serve_launch.hpp (defaults --threads=4,
// --compact-threshold=0.25) plus --socket=PATH and --allow-shutdown.
// ndg_tier launches the same front-end with replicas (docs/TIER.md).

#include <csignal>
#include <iostream>
#include <utility>

#include "serve_launch.hpp"

int main(int argc, char** argv) {
  using namespace ndg;
  // A client vanishing mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  // No subcommand word: flags start at argv[1], which CliArgs's loop skips
  // past argv[0] on its own.
  const CliArgs args(argc, argv);
  try {
    launch::LaunchConfig cfg =
        launch::parse_launch_flags(args, /*default_threads=*/4,
                                   /*default_compact_threshold=*/0.25);
    cfg.coord.client_socket = args.get("socket", "");
    cfg.coord.stop = args.get_bool("allow-shutdown", false)
                         ? tier::StopOp::kQuit
                         : tier::StopOp::kNone;
    // No replica ever reads the replication history here; keep the minimum.
    cfg.coord.history = 1;
    return launch::with_program</*kWithExhibit=*/true>(
        args, [&](Graph base, auto prog) {
          return launch::run_coordinator(std::move(base), std::move(prog),
                                         cfg);
        });
  } catch (const std::exception& e) {
    std::cerr << "ndg_serve: " << e.what() << "\n";
    return 1;
  }
}
