#pragma once
// Nondeterministic execution INSIDE the out-of-core PSW engine — the paper's
// actual experimental configuration: its patch exposes GraphChi's
// nondeterministic scheduler, which runs an interval's updates on all cores
// with no intra-interval ordering, racing on the loaded shard/window buffers
// under one of the Section III atomicity methods. Intervals still execute in
// order (that part is dictated by the disk layout), so nondeterminism lives
// within an interval — exactly the Fig. 3 "NE" setup.
//
// The buffer accesses go through C++20 std::atomic_ref (or a per-edge lock,
// or deliberate plain access for the "architecture support" method), mapped
// from the same AtomicityMode enum as the in-memory engines. The
// deterministic out-of-core engine (ooc_engine.hpp) is this engine at one
// thread.

#include <atomic>
#include <string>
#include <vector>

#include "atomics/access_policy.hpp"
#include "atomics/lock_table.hpp"
#include "engine/frontier.hpp"
#include "engine/options.hpp"
#include "engine/vertex_program.hpp"
#include "ooc/shard_store.hpp"
#include "util/barrier.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

struct OocResult : EngineResult {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t intervals_processed = 0;
  std::uint64_t intervals_skipped = 0;  // selective scheduling wins
};

namespace detail {

/// Resolves canonical edge ids to the loaded buffers of the current interval.
class OocEdgeView {
 public:
  OocEdgeView(const Graph& g, const ShardPlan& plan, std::size_t interval,
              std::vector<std::uint64_t>& memory_shard,
              std::vector<std::vector<std::uint64_t>>& windows)
      : g_(&g), plan_(&plan), interval_(interval),
        memory_shard_(&memory_shard), windows_(&windows) {}

  [[nodiscard]] std::uint64_t& slot(EdgeId e) const {
    const std::size_t target_shard =
        plan_->intervals.interval_of(g_->edge_target(e));
    if (target_shard == interval_) {
      // In-edge of this interval: memory shard.
      return (*memory_shard_)[plan_->position_in_shard(interval_, e)];
    }
    // Out-edge of this interval: sliding window of the target's shard.
    const auto [begin, end] = plan_->windows[target_shard][interval_];
    const std::size_t pos = plan_->position_in_shard(target_shard, e);
    NDG_ASSERT_MSG(pos >= begin && pos < end,
                   "edge outside this interval's window — update scope "
                   "violation");
    return (*windows_)[target_shard][pos - begin];
  }

 private:
  const Graph* g_;
  const ShardPlan* plan_;
  std::size_t interval_;
  std::vector<std::uint64_t>* memory_shard_;
  std::vector<std::vector<std::uint64_t>>* windows_;
};

/// Access policies over raw uint64 buffer slots (the loaded windows).
struct OocAlignedAccess {
  [[nodiscard]] std::uint64_t load(std::uint64_t& slot) const {
    return *const_cast<const volatile std::uint64_t*>(&slot);
  }
  void store(std::uint64_t& slot, std::uint64_t v) const {
    *const_cast<volatile std::uint64_t*>(&slot) = v;
  }
};

struct OocRelaxedAccess {
  [[nodiscard]] std::uint64_t load(std::uint64_t& slot) const {
    return std::atomic_ref<std::uint64_t>(slot).load(std::memory_order_relaxed);
  }
  void store(std::uint64_t& slot, std::uint64_t v) const {
    std::atomic_ref<std::uint64_t>(slot).store(v, std::memory_order_relaxed);
  }
};

struct OocSeqCstAccess {
  [[nodiscard]] std::uint64_t load(std::uint64_t& slot) const {
    return std::atomic_ref<std::uint64_t>(slot).load(std::memory_order_seq_cst);
  }
  void store(std::uint64_t& slot, std::uint64_t v) const {
    std::atomic_ref<std::uint64_t>(slot).store(v, std::memory_order_seq_cst);
  }
};

struct OocLockedAccess {
  EdgeLockTable* locks = nullptr;
  EdgeId edge = 0;  // set by the context before each access

  [[nodiscard]] std::uint64_t load(std::uint64_t& slot) const {
    EdgeLockGuard guard(*locks, edge);
    return slot;
  }
  void store(std::uint64_t& slot, std::uint64_t v) const {
    EdgeLockGuard guard(*locks, edge);
    slot = v;
  }
};

template <EdgePod ED, typename Access>
class OocNeContext {
 public:
  OocNeContext(const Graph& g, const OocEdgeView& view, Frontier& frontier,
               Access access)
      : g_(&g), view_(&view), frontier_(&frontier), access_(access) {}

  void begin(VertexId v, std::size_t iteration) {
    v_ = v;
    iter_ = iteration;
  }

  [[nodiscard]] VertexId vertex() const { return v_; }
  [[nodiscard]] std::size_t iteration() const { return iter_; }
  [[nodiscard]] const Graph& graph() const { return *g_; }

  [[nodiscard]] std::span<const InEdge> in_edges() const {
    return g_->in_edges(v_);
  }
  [[nodiscard]] std::span<const VertexId> out_neighbors() const {
    return g_->out_neighbors(v_);
  }
  [[nodiscard]] EdgeId out_edge_id(std::size_t k) const {
    return g_->out_edges_begin(v_) + k;
  }

  [[nodiscard]] ED read(EdgeId e) {
    prime(e);
    return detail::from_slot<ED>(access_.load(view_->slot(e)));
  }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    prime(e);
    access_.store(view_->slot(e), detail::to_slot(value));
    frontier_->schedule(other_endpoint);
  }

  void write_silent(EdgeId e, ED value) {
    prime(e);
    access_.store(view_->slot(e), detail::to_slot(value));
  }

  [[nodiscard]] ED exchange(EdgeId e, ED value) {
    const ED old = read(e);
    write_silent(e, value);
    return old;
  }

  template <typename Fn>
  void accumulate(EdgeId e, VertexId other_endpoint, Fn fn) {
    write(e, other_endpoint, fn(read(e)));
  }

  void schedule(VertexId u) { frontier_->schedule(u); }

 private:
  void prime(EdgeId e) {
    if constexpr (std::is_same_v<Access, OocLockedAccess>) {
      access_.edge = e;
    }
  }

  const Graph* g_;
  const OocEdgeView* view_;
  Frontier* frontier_;
  Access access_;
  VertexId v_ = kInvalidVertex;
  std::size_t iter_ = 0;
};

template <VertexProgram Program, typename Access>
OocResult run_ooc_nondet_impl(const Graph& g, Program& prog,
                              EdgeDataArray<typename Program::EdgeData>& edges,
                              const ShardPlan& plan,
                              const std::string& store_dir, Access access,
                              const EngineOptions& opts) {
  Timer timer;
  const std::size_t shards = plan.num_shards();
  const std::size_t nt = std::max<std::size_t>(1, opts.num_threads);

  ShardStore store(store_dir, plan);
  {
    std::vector<std::uint64_t> initial(edges.size());
    for (EdgeId e = 0; e < edges.size(); ++e) {
      // Quiescent snapshot into the shard store (no update is running).
      initial[e] = detail::to_slot(edges.get(e));
    }
    store.write_initial(initial);
  }

  Frontier frontier(g.num_vertices(), opts.frontier_policy,
                    opts.frontier_dense_divisor);
  frontier.seed(prog.initial_frontier(g));

  OocResult result;
  result.per_thread_updates.assign(nt, 0);
  // Buffers of the interval in progress, and its scheduled vertices.
  std::vector<std::uint64_t> memory_shard;
  std::vector<std::vector<std::uint64_t>> windows(shards);
  std::vector<VertexId> interval_vertices;
  // Written by thread 0 between barriers only.
  std::size_t interval = shards;
  bool started = false;
  bool loaded = false;

  // Thread 0, between barriers: stores the shard and windows the team just
  // ran on, then loads the next interval with scheduled updates. Returns
  // false when the run is over.
  const auto next_interval = [&] {
    if (loaded) {
      store.store_shard(interval, memory_shard);
      result.bytes_written += memory_shard.size() * sizeof(std::uint64_t);
      for (std::size_t s = 0; s < shards; ++s) {
        if (s == interval) continue;
        store.store_window(s, plan.windows[s][interval].first, windows[s]);
        result.bytes_written += windows[s].size() * sizeof(std::uint64_t);
      }
      ++result.intervals_processed;
      ++interval;
    }
    for (;;) {
      while (interval == shards) {
        // Iteration boundary: every interval of the pass has run.
        if (started) {
          frontier.advance();
          ++result.iterations;
        }
        if (frontier.empty() || result.iterations >= opts.max_iterations) {
          return false;
        }
        started = true;
        result.frontier_sizes.push_back(frontier.size());
        result.frontier_dense.push_back(frontier.dense() ? 1 : 0);
        interval = 0;
      }
      // Interval query against the hybrid frontier: ascending vertex list
      // for [lo, hi) in either representation (dense PageRank-style
      // frontiers skip the full-list materialization a sparse scan pays).
      interval_vertices.clear();
      frontier.collect_range(plan.intervals.boundaries[interval],
                             plan.intervals.boundaries[interval + 1],
                             interval_vertices);
      if (!interval_vertices.empty()) break;
      ++result.intervals_skipped;
      ++interval;
    }
    memory_shard = store.load_shard(interval);
    result.bytes_read += memory_shard.size() * sizeof(std::uint64_t);
    for (std::size_t s = 0; s < shards; ++s) {
      if (s == interval) continue;
      const auto [wb, we] = plan.windows[s][interval];
      windows[s] = store.load_window(s, wb, we);
      result.bytes_read += windows[s].size() * sizeof(std::uint64_t);
    }
    return true;
  };

  // One team for the whole run, one phase per loaded interval: thread 0
  // stores the previous shard and loads the next, then the interval's
  // scheduled updates race across all threads — the paper's NE (static
  // blocks, small-label-first within each thread).
  SpinBarrier barrier(nt);
  run_team(nt, [&](std::size_t tid) {
    bool sense = false;
    for (;;) {
      if (tid == 0) loaded = next_interval();
      barrier.arrive_and_wait(sense);
      if (!loaded) break;
      const OocEdgeView view(g, plan, interval, memory_shard, windows);
      OocNeContext<typename Program::EdgeData, Access> ctx(g, view, frontier,
                                                           access);
      const auto [begin, end] =
          static_block(interval_vertices.size(), nt, tid);
      for (std::size_t k = begin; k < end; ++k) {
        ctx.begin(interval_vertices[k], result.iterations);
        prog.update(interval_vertices[k], ctx);
      }
      result.per_thread_updates[tid] += end - begin;  // exclusive slot
      barrier.arrive_and_wait(sense);
    }
  });

  for (const std::uint64_t u : result.per_thread_updates) result.updates += u;
  {
    std::vector<std::uint64_t> final_values(edges.size());
    store.read_back(final_values);
    for (EdgeId e = 0; e < edges.size(); ++e) {
      // Quiescent write-back from the shard store.
      edges.set(e, detail::from_slot<typename Program::EdgeData>(
                       final_values[e]));
    }
  }
  result.converged = frontier.empty();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace detail

/// The paper's patched-GraphChi configuration: PSW out-of-core execution
/// with nondeterministic intra-interval parallelism under the atomicity
/// method of opts.mode.
template <VertexProgram Program>
OocResult run_ooc_nondeterministic(
    const Graph& g, Program& prog,
    EdgeDataArray<typename Program::EdgeData>& edges, const ShardPlan& plan,
    const std::string& store_dir, const EngineOptions& opts) {
  switch (opts.mode) {
    case AtomicityMode::kLocked: {
      EdgeLockTable locks(g.num_edges());
      return detail::run_ooc_nondet_impl(g, prog, edges, plan, store_dir,
                                         detail::OocLockedAccess{&locks}, opts);
    }
    case AtomicityMode::kAligned:
      return detail::run_ooc_nondet_impl(g, prog, edges, plan, store_dir,
                                         detail::OocAlignedAccess{}, opts);
    case AtomicityMode::kRelaxed:
      return detail::run_ooc_nondet_impl(g, prog, edges, plan, store_dir,
                                         detail::OocRelaxedAccess{}, opts);
    case AtomicityMode::kSeqCst:
      return detail::run_ooc_nondet_impl(g, prog, edges, plan, store_dir,
                                         detail::OocSeqCstAccess{}, opts);
  }
  return {};
}

/// The deterministic out-of-core engine (ooc_engine.hpp): the run above at
/// one thread, which races with no one, so plain word access is exact.
template <VertexProgram Program>
OocResult run_ooc_deterministic(const Graph& g, Program& prog,
                                EdgeDataArray<typename Program::EdgeData>& edges,
                                const ShardPlan& plan,
                                const std::string& store_dir,
                                std::size_t max_iterations = 100000) {
  EngineOptions opts;
  opts.num_threads = 1;
  opts.max_iterations = max_iterations;
  opts.frontier_policy = FrontierPolicy::kSparse;
  return detail::run_ooc_nondet_impl(g, prog, edges, plan, store_dir,
                                     detail::OocAlignedAccess{}, opts);
}

}  // namespace ndg
