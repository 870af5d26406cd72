#pragma once
// DelayedEngine — the NE and pure-async engines wrapped in per-thread delay
// queues (delay_buffer.hpp), so the paper's propagation delay d is a runtime
// knob instead of whatever the hardware happens to produce (docs/DELAY.md).
// Neither run has a loop of its own: the delayed NE run is the barriered NE
// skeleton (run_barriered in engine/nondeterministic.hpp) and the delayed
// pure-async run is the async sweep (run_async_sweep in
// engine/pure_async.hpp), each with its write-sink hook set to DelayedWrites.
//
// Semantics. A write is parked in the WRITING thread's queue and committed
// through the access policy after a bounded number of that thread's update
// steps (one step per executed update; an idle thread ticks once per round
// so its writes cannot linger). The writer reads its own pending values
// (read-your-writes); everyone else sees the last COMMITTED value — exactly
// Definition 1's visibility asymmetry, measured in steps like SimOptions::
// delay. The task-generation rule fires at COMMIT time: an endpoint is
// (re)scheduled when the write becomes visible, which is what keeps the
// fixed point exact — no update can terminate the run while a value that
// would reactivate it is still in flight (the engines track in-flight writes
// in a shared counter and drain every queue before declaring convergence).
//
// Two deliberate simplifications, both documented in docs/DELAY.md:
//   * exchange/accumulate (push-mode RMW primitives) act as per-edge
//     propagation barriers: the thread's pending writes to that edge commit
//     first, then the RMW applies immediately. Delaying an RMW would detach
//     its read from its write and fabricate lost updates the undelayed
//     engines cannot exhibit.
//   * No hub splitting: chunk tokens interleave partial gathers with the
//     delay clock in ways that have no counterpart in the paper's model.
//
// d = 0 dispatches to the undelayed baselines — parity is by construction,
// and the tests assert it on results as well.

#include <atomic>

#include "atomics/access_policy.hpp"
#include "atomics/lock_table.hpp"
#include "delay/delay_buffer.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/pure_async.hpp"

namespace ndg::delay {

/// Scheduling view over the barriered frontier (mirrors AsyncSweepView).
class FrontierSched {
 public:
  explicit FrontierSched(Frontier& f) : f_(&f) {}
  void schedule(VertexId v) { f_->schedule(v); }

 private:
  Frontier* f_;
};

/// State the delayed writers of one run share. `in_flight` is what the
/// engines' termination protocols read: it counts buffered (not-yet-visible)
/// writes across all threads. `last_writer[e]` names the thread (tid + 1)
/// that issued the newest write to edge e: a queue orders only its own
/// thread's writes, so two successive updates of one vertex on different
/// threads could otherwise commit out of order and leave the older value on
/// the edge for good. A commit whose thread is no longer the last writer of
/// its edge is superseded and drops its value; `commit_locks` make that test
/// and the value write one step with respect to other commits.
struct DelayShared {
  DelayShared(std::size_t num_threads, std::size_t num_edges)
      : last_writer(num_edges), commit_locks(num_edges),
        per_thread(num_threads) {}

  [[nodiscard]] bool pending() const {
    return in_flight.load(std::memory_order_acquire) != 0;
  }
  void report(EngineResult& result) const {
    for (const DelayTelemetry& t : per_thread) merge_telemetry(result, t);
  }

  std::atomic<std::uint64_t> in_flight{0};
  std::vector<std::atomic<std::uint32_t>> last_writer;
  EdgeLockTable commit_locks;
  std::vector<DelayTelemetry> per_thread;
};

/// Update context with the same verb surface as UpdateContext/AsyncContext,
/// but writes routed through the owning thread's ThreadDelayQueue.
template <EdgePod ED, typename Policy, typename Sched, typename GraphT = Graph>
class DelayedContext {
 public:
  using EdgeData = ED;

  DelayedContext(const GraphT& g, EdgeDataArray<ED>& edges, Policy policy,
                 Sched sched, ThreadDelayQueue& queue, DelayShared& shared,
                 std::size_t tid)
      : g_(&g), edges_(&edges), policy_(policy), sched_(sched),
        queue_(&queue), shared_(&shared),
        writer_(static_cast<std::uint32_t>(tid + 1)) {}

  void begin(VertexId v, std::size_t iteration) {
    v_ = v;
    iter_ = static_cast<std::uint32_t>(iteration);
    if constexpr (requires(Policy& p) { p.begin_update(v); }) {
      policy_.begin_update(v);
    }
  }

  [[nodiscard]] VertexId vertex() const { return v_; }
  [[nodiscard]] std::size_t iteration() const { return iter_; }
  [[nodiscard]] const GraphT& graph() const { return *g_; }

  [[nodiscard]] std::span<const InEdge> in_edges() const {
    return g_->in_edges(v_);
  }
  [[nodiscard]] std::span<const VertexId> out_neighbors() const {
    return g_->out_neighbors(v_);
  }
  [[nodiscard]] EdgeId out_edge_id(std::size_t k) const {
    return g_->out_edge_id(v_, k);
  }

  /// Read-your-writes: the caller's own newest buffered value wins; remote
  /// writes are visible only once committed.
  [[nodiscard]] ED read(EdgeId e) {
    std::uint64_t slot = 0;
    if (queue_->pending_value(e, slot)) return ndg::detail::from_slot<ED>(slot);
    return policy_.read(*edges_, e);
  }

  /// Cache hint for an upcoming read(e). Address-only slot use, no datum
  /// observed.  ndg-lint: allow(raw-slots)
  void prefetch(EdgeId e) const { perf::prefetch_read(edges_->slots() + e); }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    issue(e);
    queue_->push(e, ndg::detail::to_slot(value), other_endpoint, commit());
  }

  void write_silent(EdgeId e, ED value) {
    issue(e);
    queue_->push(e, ndg::detail::to_slot(value), kInvalidVertex, commit());
  }

  /// RMW = per-edge propagation barrier (header comment): own pending writes
  /// to e commit first, then the exchange applies undelayed.
  [[nodiscard]] ED exchange(EdgeId e, ED value) {
    queue_->flush_edge(e, commit());
    return policy_.exchange(*edges_, e, value);
  }

  template <typename Fn>
  void accumulate(EdgeId e, VertexId other_endpoint, Fn fn) {
    queue_->flush_edge(e, commit());
    policy_.accumulate(*edges_, e, fn);
    sched_.schedule(other_endpoint);
  }

  void schedule(VertexId u) { sched_.schedule(u); }

  /// The commit callable the engine loops hand to queue.advance/flush_all:
  /// value first (policy write, unless a newer write to the edge has been
  /// issued on another thread), then the task rule (schedule), then the
  /// in-flight decrement — so a thread observing in_flight == 0 after seeing
  /// an idle scheduler cannot have missed a handoff in progress.
  [[nodiscard]] auto commit() {
    return [this](EdgeId e, std::uint64_t slot, VertexId endpoint) {
      {
        const EdgeLockGuard guard(shared_->commit_locks, e);
        if (shared_->last_writer[e].load(std::memory_order_relaxed) ==
            writer_) {
          policy_.write(*edges_, e, ndg::detail::from_slot<ED>(slot));
        }
      }
      if (endpoint != kInvalidVertex) sched_.schedule(endpoint);
      shared_->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    };
  }

 private:
  const GraphT* g_;
  EdgeDataArray<ED>* edges_;
  Policy policy_;
  Sched sched_;
  /// Counts the write in flight and marks this thread its edge's newest
  /// writer.
  void issue(EdgeId e) {
    shared_->in_flight.fetch_add(1, std::memory_order_acq_rel);
    shared_->last_writer[e].store(writer_, std::memory_order_relaxed);
  }

  ThreadDelayQueue* queue_;
  DelayShared* shared_;
  std::uint32_t writer_;
  VertexId v_ = kInvalidVertex;
  std::uint32_t iter_ = 0;
};

/// Write sink (engine/update_context.hpp ImmediateWrites has the interface)
/// of the delayed runs: a delay queue per thread, one queue step per own
/// update, one tick per idle round, drains while the scheduler is idle but
/// writes are still buffered, and a pending test on the shared in-flight
/// counter that keeps the run from ending early. Sched is FrontierSched in
/// the barriered NE skeleton (run_barriered), where drain rounds appear as
/// zero-size iterations in frontier_sizes — rounds the delay genuinely cost
/// — and AsyncSweepView in the pure-async sweep (run_async_sweep).
template <EdgePod ED, typename Policy, typename Sched, typename GraphT>
struct DelayedWrites {
  static constexpr bool kBuffers = true;

  using Shared = DelayShared;

  /// `sched` is the scheduler the engine hands every sink; Sched wraps it.
  template <typename SchedArg>
  DelayedWrites(Shared& shared, const EngineOptions& opts, std::size_t tid,
                const GraphT& g, EdgeDataArray<ED>& edges, Policy policy,
                SchedArg&& sched)
      : queue(opts.delay, tid),
        ctx(g, edges, policy, Sched(std::forward<SchedArg>(sched)), queue,
            shared, tid) {}

  /// One step per own update: commits whatever came due.
  void stepped() { queue.advance(ctx.commit()); }
  /// A thread with no updates this round still ticks once, so an idle
  /// thread's buffered writes age by rounds instead of lingering.
  void idle() {
    if (!queue.empty()) queue.advance(ctx.commit());
  }
  /// Force-commits this thread's queue. The commits re-schedule the written
  /// endpoints, so the scheduler has work again.
  void drain() { queue.flush_all(ctx.commit()); }
  void finish(Shared& shared, std::size_t tid) {
    shared.per_thread[tid] = queue.telemetry();
  }

  ThreadDelayQueue queue;
  DelayedContext<ED, Policy, Sched, GraphT> ctx;
};

/// Hooks of the delayed NE engine: delayed writes, no direction choice, no
/// hub splitting (header comment).
struct DelayedHooks {
  static constexpr bool kChooseDirection = false;
  static constexpr bool kSplitHubs = false;
  template <EdgePod ED, typename Policy, typename GraphT>
  using Writes = DelayedWrites<ED, Policy, FrontierSched, GraphT>;
};

/// Warm-start delayed NE run (counterpart of run_nondeterministic_from).
/// d = 0 IS run_nondeterministic_from.
template <typename GraphT, VertexProgram Program>
EngineResult run_delayed_from(const GraphT& g, Program& prog,
                              EdgeDataArray<typename Program::EdgeData>& edges,
                              std::vector<VertexId> seeds,
                              const EngineOptions& opts) {
  if (!opts.delay.enabled()) {
    return run_nondeterministic_from(g, prog, edges, std::move(seeds), opts);
  }
  return ndg::detail::run_barriered_mode<DelayedHooks>(g, prog, edges, opts,
                                                      std::move(seeds));
}

/// Full delayed NE run from the program's own initial frontier.
template <VertexProgram Program>
EngineResult run_delayed(const Graph& g, Program& prog,
                         EdgeDataArray<typename Program::EdgeData>& edges,
                         const EngineOptions& opts) {
  return run_delayed_from(g, prog, edges, prog.initial_frontier(g), opts);
}

/// Warm-start delayed pure-async run (counterpart of run_pure_async_from).
template <typename GraphT, VertexProgram Program>
EngineResult run_delayed_async_from(
    const GraphT& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges,
    std::vector<VertexId> seeds, const EngineOptions& opts) {
  if (!opts.delay.enabled()) {
    return run_pure_async_from(g, prog, edges, std::move(seeds), opts);
  }
  // The scheduler knob is ignored: the sweep shape is the one whose step
  // clock maps cleanly onto per-thread delay queues (docs/DELAY.md).
  return with_access_policy(opts.mode, edges.size(), [&](auto policy) {
    using Writes = DelayedWrites<typename Program::EdgeData, decltype(policy),
                                 ndg::detail::AsyncSweepView, GraphT>;
    return ndg::detail::run_async_sweep<Writes>(g, prog, edges, policy, opts,
                                                seeds);
  });
}

/// Full delayed pure-async run from the program's own initial frontier.
template <VertexProgram Program>
EngineResult run_delayed_async(const Graph& g, Program& prog,
                               EdgeDataArray<typename Program::EdgeData>& edges,
                               const EngineOptions& opts) {
  return run_delayed_async_from(g, prog, edges, prog.initial_frontier(g),
                                opts);
}

}  // namespace ndg::delay
