#pragma once
// Direction-optimizing NE: the barriered NE skeleton (run_barriered in
// engine/nondeterministic.hpp) with its direction hook on.
//
// Per iteration the engine runs every chosen update in ONE direction:
//   pull — prog.update(v, ctx), the classic own-in gather shape;
//   push — prog.update_push(v, ctx), the own-out atomic-RMW publish shape.
// Under kAuto the choice comes from the hybrid frontier's density signal:
// the same |S_n| * divisor > V test that flips the frontier representation
// (frontier.hpp) flips the direction — dense iterations pull (sequential
// in-edge scans, plain conditional writes), sparse iterations push (touch
// only the frontier's out-edges; docs/PERF.md §5). The decision
// (detail::direction_wants_push) is computed by every thread from the SAME
// quiescent frontier state between barriers, so all threads agree without
// extra synchronization, and thread 0 records it as per-iteration telemetry
// (EngineResult::direction_push).
//
// Deliberately NOT consulted here: the static direction verdicts. The engine
// layer sits below analysis (src/CMakeLists.txt layering), so eligibility
// gating lives with callers — assert_direction / assert_switchable at
// compile time, resolve_direction at runtime (ndg_cli). The one safety the
// engine enforces itself is structural: a program without update_push is
// pinned to pull whatever the requested mode. Hub-gather splitting is a
// pull-gather decomposition and does not compose with direction switching,
// so this engine runs whole-vertex updates only.

#include "engine/nondeterministic.hpp"

namespace ndg {

namespace detail {

/// Hooks of the direction-optimizing engine: immediate writes, the
/// per-iteration direction choice, no hub splitting.
struct DirectionHooks {
  static constexpr bool kChooseDirection = true;
  static constexpr bool kSplitHubs = false;
  template <EdgePod ED, typename Policy, typename GraphT>
  using Writes = ImmediateWrites<UpdateContext<ED, Policy, GraphT>>;
};

}  // namespace detail

/// Runs the direction-optimizing NE engine with opts.direction deciding the
/// per-iteration pull/push dispatch. Callers gate opts.direction through the
/// static verdicts first (analysis/directional_manifest.hpp).
template <VertexProgram Program>
EngineResult run_direction_optimizing(
    const Graph& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges,
    const EngineOptions& opts) {
  return detail::run_barriered_mode<detail::DirectionHooks>(
      g, prog, edges, opts, prog.initial_frontier(g));
}

}  // namespace ndg
