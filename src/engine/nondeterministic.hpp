#pragma once
// Nondeterministic execution ("NE"): the paper's system model, Section II.
//
//   * The chosen updates S_n are dispatched over P persistent threads by a
//     pluggable Worklist (src/sched/). The default, StaticBlockWorklist, is
//     the paper's dispatch exactly: a static block partition of the ascending
//     frontier list (Fig. 1 — "the static scheduling by the OpenMP runtime
//     system"), each thread executing its assigned updates small-label-first.
//     StealingWorklist and BucketWorklist realise other schedules π(v) the
//     paper's analysis is parameterised by (docs/SCHEDULERS.md).
//   * Updates become visible immediately (asynchronous / Gauss–Seidel model);
//     concurrent updates race on shared edge data, protected only by the
//     per-access atomicity policy (Section III).
//   * A barrier separates iterations ("the synchronous implementation of the
//     asynchronous model"), so edge values commit to one predictable value at
//     each iteration boundary.
//
// The interleaving between threads — and therefore the execution path of the
// algorithm — is decided by the OS scheduler and the cache-coherence fabric,
// not by the engine: that is the nondeterminism under study. A work-stealing
// or priority schedule widens the set of reachable interleavings; the
// eligibility theorems are schedule-oblivious, which is exactly why swapping
// the worklist is legal for eligible algorithms.
//
// The loop itself is detail::run_barriered, shared with the
// direction-optimizing (engine/direction.hpp) and delayed
// (delay/delayed_engine.hpp) engines through compile-time hooks.

#include <atomic>

#include "atomics/access_policy.hpp"
#include "engine/options.hpp"
#include "engine/scheduler_dispatch.hpp"
#include "engine/update_context.hpp"
#include "engine/vertex_program.hpp"
#include "perf/hub_gather.hpp"
#include "util/barrier.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

/// A program exposing the push entry point the direction hook dispatches to.
/// The analysis-layer twin (PushCapableProgram, which also demands
/// kPushManifest) is what gates eligibility; the engine only cares that the
/// call compiles.
template <typename Program, typename Ctx>
concept PushUpdatable = requires(Program p, VertexId v, Ctx& c) {
  p.update_push(v, c);
};

namespace detail {

/// The per-iteration direction decision, identical on every thread:
/// pull-pinned modes and push-incapable programs never push; kAuto pushes
/// exactly on sparse iterations.
[[nodiscard]] inline bool direction_wants_push(DirectionMode mode, bool dense,
                                               bool can_push) {
  switch (mode) {
    case DirectionMode::kPull:
      return false;
    case DirectionMode::kPush:
      return can_push;
    case DirectionMode::kAuto:
      return can_push && !dense;
  }
  return false;
}

/// Hooks of the plain NE engine: immediate writes, no direction choice, and
/// hub splitting wherever the graph, worklist and program allow it.
struct NondetHooks {
  static constexpr bool kChooseDirection = false;
  static constexpr bool kSplitHubs = true;
  template <EdgePod ED, typename Policy, typename GraphT>
  using Writes = ImmediateWrites<UpdateContext<ED, Policy, GraphT>>;
};

/// The barriered NE iteration — "the synchronous implementation of the
/// asynchronous model" — shared by the plain, direction-optimizing and
/// delayed engines. Each round: every thread refills the worklist from its
/// static slice of S_n and publishes (shared worklists then meet at a
/// barrier); threads pop and update until the worklist is empty; a barrier;
/// thread 0 records telemetry and advances the frontier; a barrier. The
/// variants are compile-time Hooks:
///   * kChooseDirection — per-iteration pull/push choice from the frontier's
///     density (engine/direction.hpp);
///   * Writes — the write sink (engine/update_context.hpp): ImmediateWrites,
///     or delay::DelayedWrites with its per-update queue step, idle tick and
///     drain rounds (delay/delayed_engine.hpp);
///   * kSplitHubs — edge-parallel hub gather (perf/hub_gather.hpp).
template <typename Hooks, typename GraphT, VertexProgram Program,
          typename Policy, Worklist WL>
EngineResult run_barriered(const GraphT& g, Program& prog,
                           EdgeDataArray<typename Program::EdgeData>& edges,
                           Policy policy, const EngineOptions& opts,
                           std::vector<VertexId> seeds) {
  using Writes =
      typename Hooks::template Writes<typename Program::EdgeData, Policy, GraphT>;
  constexpr bool kHasPush =
      Hooks::kChooseDirection &&
      PushUpdatable<Program, decltype(Writes::ctx)>;

  Timer timer;
  Frontier frontier(g.num_vertices(), opts.frontier_policy,
                    opts.frontier_dense_divisor);
  frontier.seed(std::move(seeds));

  const std::size_t nt = std::max<std::size_t>(1, opts.num_threads);
  SpinBarrier barrier(nt);
  WL worklist = make_worklist<WL>(nt, opts);
  typename Writes::Shared shared(nt, edges.size());
  std::vector<std::uint64_t> per_updates(nt, 0);
  std::vector<std::uint64_t> per_work(nt, 0);
  std::vector<std::uint64_t> per_splits(nt, 0);
  std::vector<std::uint64_t> per_chunks(nt, 0);
  // Written by thread 0 between barriers only. A buffering sink always runs
  // its first round, even from an empty frontier.
  std::size_t iterations = 0;
  bool stop = !Writes::kBuffers && frontier.empty();
  std::vector<std::uint64_t> frontier_sizes;
  std::vector<std::uint8_t> frontier_dense;
  std::vector<std::uint8_t> direction_push;

  // Hub splitting needs a shared worklist — chunk tokens must be poppable by
  // any thread — and a program declaring the gather decomposition. Under
  // static-block dispatch there is no queue to co-schedule chunks on, so the
  // knob is silently inert there (docs/PERF.md). It is also static-CSR-only:
  // HubTable chunk geometry is baked from Graph offsets, so dynamic views
  // run whole-vertex updates (hub splitting over mutable adjacency is an
  // open item in ROADMAP.md).
  constexpr bool kHubCapable = Hooks::kSplitHubs &&
                               std::is_same_v<GraphT, Graph> &&
                               WL::kShared && EdgeParallelGatherProgram<Program>;
  using GD = typename detail::GatherDataOf<Program>::type;
  perf::HubTable hub_table;
  perf::HubGatherState<GD> hub_state;
  if constexpr (kHubCapable) {
    if (opts.hub_threshold > 0) {
      hub_table =
          perf::HubTable(g, opts.hub_threshold, opts.hub_chunk_edges);
      hub_state = perf::HubGatherState<GD>(hub_table);
    }
  }
  const bool hubs_on = !hub_table.empty();

  run_team(nt, [&](std::size_t tid) {
    bool sense = false;
    Writes writes(shared, opts, tid, g, edges, policy, frontier);
    auto& ctx = writes.ctx;
    std::uint64_t local_updates = 0;
    std::uint64_t local_work = 0;
    std::uint64_t local_splits = 0;
    std::uint64_t local_chunks = 0;
    for (std::size_t iter = 0;; ++iter) {
      // All threads observe the same stop/frontier state here: thread 0
      // mutated it strictly between the two barriers of the previous round.
      if (stop || iter >= opts.max_iterations) break;

      // The direction decision reads only quiescent frontier state, so every
      // thread derives the same bit without communicating.
      const bool use_push =
          direction_wants_push(opts.direction, frontier.dense(), kHasPush);

      if (Writes::kBuffers && frontier.empty()) {
        // No scheduled work anywhere, but writes are still in flight. Every
        // thread agrees on this (the frontier is shared and quiescent), so
        // the barrier pattern stays consistent.
        writes.drain();
      } else {
        // Refill: every thread feeds its Fig. 1 static slice of S_n into the
        // worklist. For StaticBlockWorklist that IS the final schedule; the
        // shared worklists rebalance (stealing) or reorder (buckets) from
        // this seed. Priorities are read here, between barriers, so the
        // program state they derive from is quiescent. Hubs enter as chunk
        // tokens (all at the hub's priority) instead of one monolithic
        // update.
        const auto feed = [&](VertexId v) {
          if constexpr (kHubCapable) {
            if (hubs_on && hub_table.is_hub(v)) {
              const std::uint32_t h = hub_table.hub_index(v);
              const std::uint32_t nchunks = hub_table.num_chunks(h);
              const std::uint64_t prio = scheduling_priority(prog, v);
              hub_state.arm(h, nchunks);
              const std::uint32_t base = hub_table.chunk_begin(h);
              for (std::uint32_t c = 0; c < nchunks; ++c) {
                worklist.push(tid, perf::make_chunk_token(base + c), prio);
              }
              ++local_splits;
              local_chunks += nchunks;
              return;
            }
          }
          worklist.push(tid, v, scheduling_priority(prog, v));
        };
        if (frontier.dense()) {
          // Dense S_n: partition 64-vertex label blocks (bitmap words)
          // instead of list slots — same static-block shape, same
          // ascending-label order within and across threads, no
          // materialized list.
          const auto [wb, we] = static_block(frontier.num_words(), nt, tid);
          frontier.for_each_in_words(
              wb, we, [&](std::size_t v) { feed(static_cast<VertexId>(v)); });
        } else {
          const auto& cur = frontier.current();
          const auto [begin, end] = static_block(cur.size(), nt, tid);
          for (std::size_t i = begin; i < end; ++i) feed(cur[i]);
        }
        worklist.publish(tid);
        if constexpr (WL::kShared) {
          // Shared worklists: all pushes must be visible before anyone
          // treats an empty scan as end-of-iteration.
          barrier.arrive_and_wait(sense);
        }

        VertexId v;
        bool did_work = false;
        while (worklist.try_pop(tid, v)) {
          if constexpr (kHubCapable) {
            if (perf::is_chunk_token(v)) {
              const std::uint32_t chunk = perf::chunk_of_token(v);
              const auto range = hub_table.chunk_range(g, chunk);
              const auto in = g.in_edges(range.v);
              ctx.begin(range.v, iter);
              GD acc = Program::gather_identity();
              for (std::size_t i = range.begin; i < range.end; ++i) {
                if (i + perf::kGatherPrefetchDistance < range.end) {
                  prefetch_edge(ctx,
                                in[i + perf::kGatherPrefetchDistance].id);
                }
                acc = Program::combine(acc, prog.gather_edge(in[i], ctx));
              }
              hub_state.store_partial(policy, chunk, acc);
              local_work += range.end - range.begin;
              const std::uint32_t h = hub_table.hub_index(range.v);
              if (hub_state.finish_chunk(h)) {
                // Last finisher: combine all partials (read back through the
                // same policy) and run the compute+scatter half.
                GD total = Program::gather_identity();
                const std::uint32_t base = hub_table.chunk_begin(h);
                const std::uint32_t n = hub_table.num_chunks(h);
                for (std::uint32_t c = 0; c < n; ++c) {
                  total = Program::combine(
                      total, hub_state.read_partial(policy, base + c));
                }
                prog.apply(range.v, total, ctx);
                ++local_updates;
                local_work += g.out_neighbors(range.v).size();
              }
              continue;
            }
          }
          ctx.begin(v, iter);
          if constexpr (kHasPush) {
            if (use_push) {
              prog.update_push(v, ctx);
            } else {
              prog.update(v, ctx);
            }
          } else {
            prog.update(v, ctx);
          }
          ++local_updates;
          local_work += g.in_edges(v).size() + g.out_neighbors(v).size();
          did_work = true;
          writes.stepped();
        }
        if (!did_work) writes.idle();
      }

      barrier.arrive_and_wait(sense);
      if (tid == 0) {
        frontier_sizes.push_back(frontier.size());
        frontier_dense.push_back(frontier.dense() ? 1 : 0);
        if constexpr (Hooks::kChooseDirection) {
          direction_push.push_back(use_push ? 1 : 0);
        }
        frontier.advance();
        iterations = iter + 1;
        // Every thread is parked at the barrier pair, so no commit is in
        // flight while the sink's counter is read.
        stop = frontier.empty() && !shared.pending();
      }
      barrier.arrive_and_wait(sense);
    }
    per_updates[tid] = local_updates;  // exclusive slot; read after join
    per_work[tid] = local_work;
    per_splits[tid] = local_splits;
    per_chunks[tid] = local_chunks;
    writes.finish(shared, tid);
  });

  EngineResult result;
  result.iterations = iterations;
  for (const std::uint64_t u : per_updates) result.updates += u;
  result.converged = frontier.empty() && !shared.pending();
  result.seconds = timer.seconds();
  result.frontier_sizes = std::move(frontier_sizes);
  result.frontier_dense = std::move(frontier_dense);
  for (std::size_t i = 1; i < direction_push.size(); ++i) {
    if (direction_push[i] != direction_push[i - 1]) ++result.direction_switches;
  }
  result.direction_push = std::move(direction_push);
  result.per_thread_updates = std::move(per_updates);
  result.per_thread_work = std::move(per_work);
  for (const std::uint64_t s : per_splits) result.hub_splits += s;
  for (const std::uint64_t c : per_chunks) result.hub_chunks += c;
  shared.report(result);
  const WorklistStats wl_stats = worklist.stats();
  result.steals = wl_stats.steals;
  result.steal_attempts = wl_stats.steal_attempts;
  return result;
}

/// run_barriered with the worklist type resolved from opts.scheduler.
template <typename Hooks, typename GraphT, VertexProgram Program,
          typename Policy>
EngineResult run_barriered_sched(
    const GraphT& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges, Policy policy,
    const EngineOptions& opts, std::vector<VertexId> seeds) {
  return dispatch_scheduler(opts.scheduler, [&](auto wl_tag) {
    using WL = typename decltype(wl_tag)::type;
    return run_barriered<Hooks, GraphT, Program, Policy, WL>(
        g, prog, edges, policy, opts, std::move(seeds));
  });
}

/// run_barriered with the access policy resolved from opts.mode as well.
template <typename Hooks, typename GraphT, VertexProgram Program>
EngineResult run_barriered_mode(
    const GraphT& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges,
    const EngineOptions& opts, std::vector<VertexId> seeds) {
  return with_access_policy(opts.mode, edges.size(), [&](auto policy) {
    return run_barriered_sched<Hooks>(g, prog, edges, policy, opts,
                                      std::move(seeds));
  });
}

}  // namespace detail

/// Runs the nondeterministic engine with a caller-supplied access policy —
/// the extension point for custom policies (instrumented, fault-injecting,
/// experimental memory orders). The policy is copied into each worker's
/// context; share mutable state through pointers.
template <VertexProgram Program, typename Policy>
EngineResult run_nondeterministic_with_policy(
    const Graph& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges, Policy policy,
    const EngineOptions& opts) {
  return detail::run_barriered_sched<detail::NondetHooks>(
      g, prog, edges, policy, opts, prog.initial_frontier(g));
}

/// Warm-start entry point: runs the NE engine on any graph view from a
/// caller-supplied seed set (S_0 := seeds) over the CURRENT edge state —
/// edges is NOT re-initialized. This is how the incremental recompute driver
/// (src/dyn/incremental.hpp) resumes after a mutation batch: the affected
/// vertices become the first frontier and the algorithm converges from
/// whatever the previous epoch left in the edge array (docs/DYNAMIC.md for
/// why Theorems 1/2 license that). Duplicated/unsorted seeds are fine.
template <typename GraphT, VertexProgram Program>
EngineResult run_nondeterministic_from(
    const GraphT& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges,
    std::vector<VertexId> seeds, const EngineOptions& opts) {
  return detail::run_barriered_mode<detail::NondetHooks>(g, prog, edges, opts,
                                                        std::move(seeds));
}

/// Runs the nondeterministic engine with the atomicity method selected in
/// opts.mode and the schedule selected in opts.scheduler. The per-edge lock
/// table for AtomicityMode::kLocked lives only for the duration of the run,
/// as in the paper's patched GraphChi.
template <VertexProgram Program>
EngineResult run_nondeterministic(const Graph& g, Program& prog,
                                  EdgeDataArray<typename Program::EdgeData>& edges,
                                  const EngineOptions& opts) {
  return run_nondeterministic_from(g, prog, edges, prog.initial_frontier(g),
                                   opts);
}

}  // namespace ndg
