#pragma once
// Pure asynchronous execution — no barriers at all (the paper's §VII future
// work: "extending the applicability of results in this paper to more
// scenarios, such as pure asynchronous model").
//
// Threads claim active vertices and run their updates; scheduling
// re-activates vertices immediately (there is no "next iteration" — the
// iteration structure of Section II dissolves). How a thread finds its next
// vertex is the pluggable part (opts.scheduler, docs/SCHEDULERS.md):
//
//   kStaticBlock — the original behaviour: continuously sweep the shared
//                  active bitset, each thread starting at its static block;
//   kStealing    — activations are pushed to the activating thread's local
//                  queue and rebalanced by randomized chunk stealing;
//   kBucket      — activations carry a program priority and threads drain
//                  the lowest non-empty bucket (delta-stepping style).
//
// The engine terminates at global quiescence: no vertex active and no update
// in flight, tracked by a single pending counter
//
//     pending = |active set| + updates in flight,
//
// incremented by every 0->1 activation and decremented when a claimed
// update finishes. The visibility edge "write the edge, then schedule the
// endpoint" is a release/acquire pair on the active-set bit (see
// AtomicBitset::set/clear_bit), so a claimed update always observes the
// write that scheduled it.
//
// A second per-vertex bit (`running`) makes claimed updates EXCLUSIVE: if
// f(v) is still executing when a fresh activation of v is claimed, the
// claimer re-activates v and moves on instead of running f(v) concurrently
// with itself. Updates of the same vertex are therefore serialized (with
// acquire/release pairing on the running bit), so per-vertex program state
// needs no atomics — only the *edge* accesses stay as racy as the atomicity
// policy allows, exactly the racy surface the paper studies. This is also
// what lets the scheduler subsystem run under ThreadSanitizer.
//
// GRACE (CIDR'13, the paper's ref. [13]) showed the barriered implementation
// has "comparable runtime to those of pure asynchronous model"; this engine
// makes that claim checkable (bench/ablation_pure_async).

#include <atomic>
#include <thread>

#include "atomics/access_policy.hpp"
#include "engine/observer.hpp"
#include "engine/options.hpp"
#include "engine/scheduler_dispatch.hpp"
#include "engine/update_context.hpp"
#include "engine/vertex_program.hpp"
#include "perf/hub_gather.hpp"
#include "perf/prefetch.hpp"
#include "util/bitset.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

namespace detail {

/// Scheduling surface shared by the async workers: the active/running bits
/// and the quiescence counter. Queue-driven schedulers layer a worklist on
/// top (AsyncWorklistView below).
class AsyncActiveSet {
 public:
  explicit AsyncActiveSet(VertexId num_vertices)
      : bits_(num_vertices), running_(num_vertices) {}

  /// Activates v; returns true on the 0->1 transition (the caller of a
  /// queue-driven engine must then enqueue v exactly once).
  bool try_activate(VertexId v) {
    if (!bits_.set(v)) return false;
    pending_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  void schedule(VertexId v) { (void)try_activate(v); }

  /// Claims v if active; the claimer must call finished() after the update.
  bool claim(VertexId v) { return bits_.clear_bit(v); }

  /// Exclusivity lock around f(v): begin_update's 0->1 win acquires, and
  /// end_update releases, so consecutive updates of v are ordered even
  /// when run by different threads.
  bool begin_update(VertexId v) { return running_.set(v); }
  void end_update(VertexId v) { running_.clear_bit(v); }

  void finished() { pending_.fetch_sub(1, std::memory_order_acq_rel); }

  [[nodiscard]] bool quiescent() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }

  [[nodiscard]] bool maybe_active(VertexId v) const { return bits_.test(v); }

 private:
  AtomicBitset bits_;
  AtomicBitset running_;  // v's update is in flight
  std::atomic<std::uint64_t> pending_{0};
};

/// Scheduler view for the sweep engine: activations only touch the bitset.
class AsyncSweepView {
 public:
  explicit AsyncSweepView(AsyncActiveSet& active) : active_(&active) {}
  void schedule(VertexId v) { active_->schedule(v); }

 private:
  AsyncActiveSet* active_;
};

/// Scheduler view for the queue-driven engines: one instance per worker
/// thread; a won activation is pushed to this thread's queue with the
/// program's current priority.
template <Worklist WL, typename Program>
class AsyncWorklistView {
 public:
  AsyncWorklistView(AsyncActiveSet& active, WL& wl, const Program& prog,
                    std::size_t tid)
      : active_(&active), wl_(&wl), prog_(&prog), tid_(tid) {}

  void schedule(VertexId v) {
    if (active_->try_activate(v)) {
      wl_->push(tid_, v, scheduling_priority(*prog_, v));
    }
  }

 private:
  AsyncActiveSet* active_;
  WL* wl_;
  const Program* prog_;
  std::size_t tid_;
};

/// Update context for the pure-async engine: same verbs as UpdateContext but
/// scheduling goes to the live scheduler view (no iteration numbers exist;
/// the reported iteration is the executing thread's sweep count).
template <EdgePod ED, typename Policy, typename Sched, typename GraphT = Graph>
class AsyncContext {
 public:
  using EdgeData = ED;

  AsyncContext(const GraphT& g, EdgeDataArray<ED>& edges, Policy policy,
               Sched sched)
      : g_(&g), edges_(&edges), policy_(policy), sched_(sched) {}

  void begin(VertexId v, std::size_t sweep) {
    v_ = v;
    sweep_ = static_cast<std::uint32_t>(sweep);
    // Manifest-enforcing policies track the vertex under update (see
    // engine/update_context.hpp begin()).
    if constexpr (requires(Policy& p) { p.begin_update(v); }) {
      policy_.begin_update(v);
    }
  }

  [[nodiscard]] VertexId vertex() const { return v_; }
  [[nodiscard]] std::size_t iteration() const { return sweep_; }
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

  [[nodiscard]] ED read(EdgeId e) { return policy_.read(*edges_, e); }

  /// Cache hint for an upcoming read(e) (perf/prefetch.hpp). Address-only
  /// slot use, no datum observed.  ndg-lint: allow(raw-slots)
  void prefetch(EdgeId e) const { perf::prefetch_read(edges_->slots() + e); }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    policy_.write(*edges_, e, value);
    sched_.schedule(other_endpoint);
  }

  void write_silent(EdgeId e, ED value) { policy_.write(*edges_, e, value); }

  [[nodiscard]] ED exchange(EdgeId e, ED value) {
    return policy_.exchange(*edges_, e, value);
  }

  template <typename Fn>
  void accumulate(EdgeId e, VertexId other_endpoint, Fn fn) {
    policy_.accumulate(*edges_, e, fn);
    sched_.schedule(other_endpoint);
  }

  void schedule(VertexId u) { sched_.schedule(u); }

 private:
  const GraphT* g_;
  EdgeDataArray<ED>* edges_;
  Policy policy_;
  Sched sched_;
  VertexId v_ = kInvalidVertex;
  std::uint32_t sweep_ = 0;
};

/// Work accounting shared by both async loop shapes.
struct AsyncWorkerTotals {
  std::uint64_t updates = 0;
  std::uint64_t work = 0;
  std::uint64_t sweeps = 0;
};

/// The original sweep engine (SchedulerKind::kStaticBlock): threads
/// continuously sweep the shared active set, starting at their static block
/// so they spread out instead of contending on the same low labels. Writes is
/// the write sink (engine/update_context.hpp): ImmediateWrites for pure
/// async, delay::DelayedWrites for the delayed pure-async run. A buffering
/// sink also keeps the run going while writes are in flight, and a thread
/// whose sweep claims nothing drains its own buffer, so buffered work always
/// re-enters the active set in bounded time.
template <typename Writes, typename GraphT, VertexProgram Program,
          typename Policy>
EngineResult run_async_sweep(const GraphT& g, Program& prog,
                             EdgeDataArray<typename Program::EdgeData>& edges,
                             Policy policy, const EngineOptions& opts,
                             const std::vector<VertexId>& seeds) {
  Timer timer;
  AsyncActiveSet active(g.num_vertices());
  for (const VertexId v : seeds) active.schedule(v);

  const std::size_t nt = std::max<std::size_t>(1, opts.num_threads);
  std::vector<AsyncWorkerTotals> totals(nt);
  typename Writes::Shared shared(nt, edges.size());
  // Update cap standing in for max_iterations: |V| * max_iterations matches
  // the barriered engines' worst-case work budget.
  const std::uint64_t update_cap =
      static_cast<std::uint64_t>(opts.max_iterations) *
      std::max<std::uint64_t>(1, g.num_vertices());
  std::atomic<std::uint64_t> global_updates{0};
  std::atomic<bool> capped{false};

  run_team(nt, [&](std::size_t tid) {
    Writes writes(shared, opts, tid, g, edges, policy, AsyncSweepView(active));
    auto& ctx = writes.ctx;
    AsyncWorkerTotals& t = totals[tid];  // exclusive slot; read after join
    const VertexId n = g.num_vertices();
    const VertexId start =
        static_cast<VertexId>(static_block(n, nt, tid).begin);

    // Exit only at global quiescence of the active set and the sink (read
    // in this order: a commit schedules before it stops counting as
    // pending, so a stale pair cannot hide a hand-off).
    while (!(active.quiescent() && !shared.pending()) &&
           !capped.load(std::memory_order_relaxed)) {
      bool did_work = false;
      for (VertexId i = 0; i < n; ++i) {
        const VertexId v = static_cast<VertexId>((start + i) % n);
        if (!active.maybe_active(v)) continue;
        if (!active.claim(v)) continue;
        if (!active.begin_update(v)) {
          // f(v) is mid-flight on another thread: hand the activation back
          // and keep sweeping; the next sweep will retry it.
          active.schedule(v);
          active.finished();
          continue;
        }
        ctx.begin(v, t.sweeps);
        prog.update(v, ctx);
        active.end_update(v);
        active.finished();
        ++t.updates;
        t.work += g.in_edges(v).size() + g.out_neighbors(v).size();
        did_work = true;
        writes.stepped();
        if (t.updates % 4096 == 0 &&
            global_updates.fetch_add(4096, std::memory_order_relaxed) + 4096 >
                update_cap) {
          capped.store(true, std::memory_order_relaxed);
          break;
        }
      }
      if (!did_work) writes.drain();
      ++t.sweeps;
    }
    // A capped run must not leave writes buffered; drain so the sink's
    // counters reflect reality.
    writes.drain();
    writes.finish(shared, tid);
  });

  EngineResult result;
  result.converged =
      active.quiescent() && !capped.load() && !shared.pending();
  result.seconds = timer.seconds();
  result.per_thread_updates.reserve(nt);
  result.per_thread_work.reserve(nt);
  std::uint64_t sweeps = 0;
  for (const AsyncWorkerTotals& t : totals) {
    result.per_thread_updates.push_back(t.updates);
    result.per_thread_work.push_back(t.work);
    result.updates += t.updates;
    sweeps += t.sweeps;
  }
  result.iterations = sweeps / nt;  // mean sweeps per thread
  shared.report(result);
  return result;
}

/// Queue-driven pure-async execution (kStealing / kBucket): activations are
/// pushed to a concurrent worklist by the thread that wins them; workers pop
/// (or steal) until quiescence.
template <typename GraphT, VertexProgram Program, typename Policy, Worklist WL>
EngineResult run_async_worklist(const GraphT& g, Program& prog,
                                EdgeDataArray<typename Program::EdgeData>& edges,
                                Policy policy, const EngineOptions& opts,
                                const std::vector<VertexId>& seeds) {
  Timer timer;
  AsyncActiveSet active(g.num_vertices());
  const std::size_t nt = std::max<std::size_t>(1, opts.num_threads);
  WL worklist = make_worklist<WL>(nt, opts);

  {
    // Seed round-robin across the queues (visible to workers via spawn).
    std::size_t i = 0;
    for (const VertexId v : seeds) {
      if (active.try_activate(v)) {
        worklist.push(i % nt, v, scheduling_priority(prog, v));
        ++i;
      }
    }
    for (std::size_t t = 0; t < nt; ++t) worklist.publish(t);
  }

  std::vector<AsyncWorkerTotals> totals(nt);
  const std::uint64_t update_cap =
      static_cast<std::uint64_t>(opts.max_iterations) *
      std::max<std::uint64_t>(1, g.num_vertices());
  std::atomic<std::uint64_t> global_updates{0};
  std::atomic<bool> capped{false};

  // Hub splitting (perf/hub_gather.hpp): a claimed hub holds its running bit
  // and its pending count while its chunk tokens are in flight, so the
  // quiescence invariant (pending counts unfinished activations) is
  // untouched; the last chunk's thread runs apply and releases both. Only
  // the queue-driven engines split — the sweep engine has no queue to
  // co-schedule chunks on. Static-CSR-only (HubTable geometry is baked from
  // Graph offsets); dynamic views run whole-vertex updates.
  constexpr bool kHubCapable =
      std::is_same_v<GraphT, Graph> && EdgeParallelGatherProgram<Program>;
  using GD = typename GatherDataOf<Program>::type;
  perf::HubTable hub_table;
  perf::HubGatherState<GD> hub_state;
  if constexpr (kHubCapable) {
    if (opts.hub_threshold > 0) {
      hub_table = perf::HubTable(g, opts.hub_threshold, opts.hub_chunk_edges);
      hub_state = perf::HubGatherState<GD>(hub_table);
    }
  }
  const bool hubs_on = !hub_table.empty();
  std::atomic<std::uint64_t> hub_splits{0};
  std::atomic<std::uint64_t> hub_chunks{0};

  run_team(nt, [&](std::size_t tid) {
    using View = AsyncWorklistView<WL, Program>;
    View view(active, worklist, prog, tid);
    AsyncContext<typename Program::EdgeData, Policy, View, GraphT> ctx(
        g, edges, policy, view);
    AsyncWorkerTotals& t = totals[tid];

    while (!active.quiescent() && !capped.load(std::memory_order_relaxed)) {
      VertexId v;
      if (!worklist.try_pop(tid, v)) {
        // Nothing reachable: another thread holds the remaining work (or is
        // mid-update and about to produce some). Keep the open chunk from
        // going stale, then back off.
        worklist.publish(tid);
        std::this_thread::yield();
        continue;
      }
      if constexpr (kHubCapable) {
        if (perf::is_chunk_token(v)) {
          const std::uint32_t chunk = perf::chunk_of_token(v);
          const auto range = hub_table.chunk_range(g, chunk);
          const auto in = g.in_edges(range.v);
          ctx.begin(range.v, 0);
          GD acc = Program::gather_identity();
          for (std::size_t i = range.begin; i < range.end; ++i) {
            if (i + perf::kGatherPrefetchDistance < range.end) {
              prefetch_edge(ctx, in[i + perf::kGatherPrefetchDistance].id);
            }
            acc = Program::combine(acc, prog.gather_edge(in[i], ctx));
          }
          hub_state.store_partial(policy, chunk, acc);
          t.work += range.end - range.begin;
          const std::uint32_t h = hub_table.hub_index(range.v);
          if (hub_state.finish_chunk(h)) {
            GD total = Program::gather_identity();
            const std::uint32_t base = hub_table.chunk_begin(h);
            const std::uint32_t n = hub_table.num_chunks(h);
            for (std::uint32_t c = 0; c < n; ++c) {
              total = Program::combine(total,
                                       hub_state.read_partial(policy, base + c));
            }
            prog.apply(range.v, total, ctx);
            active.end_update(range.v);
            active.finished();
            ++t.updates;
            t.work += g.out_neighbors(range.v).size();
            if (t.updates % 4096 == 0 &&
                global_updates.fetch_add(4096, std::memory_order_relaxed) +
                        4096 >
                    update_cap) {
              capped.store(true, std::memory_order_relaxed);
            }
          }
          continue;
        }
      }
      // Every queue entry corresponds to exactly one won activation, and
      // entries for a vertex are serialized by the active bit, so the claim
      // cannot fail.
      const bool claimed = active.claim(v);
      NDG_ASSERT(claimed);
      if (!active.begin_update(v)) {
        // f(v) still in flight elsewhere: requeue the activation.
        view.schedule(v);
        active.finished();
        continue;
      }
      if constexpr (kHubCapable) {
        if (hubs_on && hub_table.is_hub(v)) {
          // Split instead of running the monolithic update; the running bit
          // and pending count stay held until the last chunk's apply.
          const std::uint32_t h = hub_table.hub_index(v);
          const std::uint32_t nchunks = hub_table.num_chunks(h);
          const std::uint64_t prio = scheduling_priority(prog, v);
          hub_state.arm(h, nchunks);
          const std::uint32_t base = hub_table.chunk_begin(h);
          for (std::uint32_t c = 0; c < nchunks; ++c) {
            worklist.push(tid, perf::make_chunk_token(base + c), prio);
          }
          worklist.publish(tid);
          hub_splits.fetch_add(1, std::memory_order_relaxed);
          hub_chunks.fetch_add(nchunks, std::memory_order_relaxed);
          continue;
        }
      }
      ctx.begin(v, 0);
      prog.update(v, ctx);
      active.end_update(v);
      active.finished();
      ++t.updates;
      t.work += g.in_edges(v).size() + g.out_neighbors(v).size();
      if (t.updates % 4096 == 0 &&
          global_updates.fetch_add(4096, std::memory_order_relaxed) + 4096 >
              update_cap) {
        capped.store(true, std::memory_order_relaxed);
      }
    }
  });

  EngineResult result;
  result.converged = active.quiescent() && !capped.load();
  result.seconds = timer.seconds();
  result.hub_splits = hub_splits.load(std::memory_order_relaxed);
  result.hub_chunks = hub_chunks.load(std::memory_order_relaxed);
  for (const AsyncWorkerTotals& t : totals) {
    result.per_thread_updates.push_back(t.updates);
    result.per_thread_work.push_back(t.work);
    result.updates += t.updates;
  }
  // No sweeps exist here; report "equivalent full passes" for comparability.
  result.iterations = static_cast<std::size_t>(
      result.updates / std::max<std::uint64_t>(1, g.num_vertices()));
  const WorklistStats wl_stats = worklist.stats();
  result.steals = wl_stats.steals;
  result.steal_attempts = wl_stats.steal_attempts;
  return result;
}

template <typename GraphT, VertexProgram Program, typename Policy>
EngineResult run_pure_async_impl(const GraphT& g, Program& prog,
                                 EdgeDataArray<typename Program::EdgeData>& edges,
                                 Policy policy, const EngineOptions& opts,
                                 const std::vector<VertexId>& seeds) {
  switch (opts.scheduler) {
    case SchedulerKind::kStealing:
      return run_async_worklist<GraphT, Program, Policy, StealingWorklist>(
          g, prog, edges, policy, opts, seeds);
    case SchedulerKind::kBucket:
      return run_async_worklist<GraphT, Program, Policy, BucketWorklist>(
          g, prog, edges, policy, opts, seeds);
    case SchedulerKind::kStaticBlock:
      break;
  }
  using Writes = ImmediateWrites<AsyncContext<typename Program::EdgeData,
                                             Policy, AsyncSweepView, GraphT>>;
  return run_async_sweep<Writes>(g, prog, edges, policy, opts, seeds);
}

}  // namespace detail

/// Warm-start entry point: pure-async execution on any graph view from a
/// caller-supplied activation set over the CURRENT edge state (edges is NOT
/// re-initialized). Counterpart of run_nondeterministic_from for the
/// barrier-free model; used by src/dyn/incremental.hpp after a mutation
/// batch. Duplicate seeds are fine (try_activate dedups on the active bit).
template <typename GraphT, VertexProgram Program>
EngineResult run_pure_async_from(const GraphT& g, Program& prog,
                                 EdgeDataArray<typename Program::EdgeData>& edges,
                                 std::vector<VertexId> seeds,
                                 const EngineOptions& opts) {
  return with_access_policy(opts.mode, edges.size(), [&](auto policy) {
    return detail::run_pure_async_impl(g, prog, edges, policy, opts, seeds);
  });
}

/// Pure asynchronous execution with the atomicity method from opts.mode and
/// the schedule from opts.scheduler.
template <VertexProgram Program>
EngineResult run_pure_async(const Graph& g, Program& prog,
                            EdgeDataArray<typename Program::EdgeData>& edges,
                            const EngineOptions& opts) {
  return run_pure_async_from(g, prog, edges, prog.initial_frontier(g), opts);
}

}  // namespace ndg
