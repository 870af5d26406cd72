#pragma once
// PSW-style deterministic execution: the in-memory model of GraphChi's
// Parallel Sliding Windows engine with its *external deterministic
// scheduler* — the paper's "DE" configuration, including why it fails to
// scale.
//
// One iteration processes the execution intervals in order (the sliding
// window pass). Inside an interval, GraphChi's deterministic scheduler may
// run in parallel only those updates whose vertices have NO neighbour inside
// the same interval — any intra-interval adjacency is a potential data
// dependence, and those updates run sequentially in label order. On
// real-world graphs almost every vertex has an intra-interval neighbour, so
// the schedule degenerates to sequential execution: the paper's observation
// that "the performances of the algorithms by the built-in external
// deterministic scheduler in GraphChi does not scale (the updates are
// actually conducted sequentially due to the data dependences among the
// updates)". run_psw_deterministic reports the achieved parallel fraction so
// the benches can show that collapse quantitatively.
//
// Determinism: the parallel batch is conflict-free (two vertices without
// intra-interval neighbours cannot share an edge, since sharing an edge IS
// intra-interval adjacency once both endpoints sit in the interval — and
// cross-interval edges are serialized by the interval order). The outcome
// equals some fixed sequential schedule independent of thread count.

#include <atomic>

#include "atomics/access_policy.hpp"
#include "engine/options.hpp"
#include "engine/update_context.hpp"
#include "engine/vertex_program.hpp"
#include "graph/intervals.hpp"
#include "util/barrier.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

struct PswResult : EngineResult {
  /// Updates that ran in the conflict-free parallel batches.
  std::uint64_t parallel_updates = 0;
  /// Updates forced sequential by intra-interval data dependences.
  std::uint64_t sequential_updates = 0;

  [[nodiscard]] double parallel_fraction() const {
    const std::uint64_t total = parallel_updates + sequential_updates;
    return total == 0 ? 0.0
                      : static_cast<double>(parallel_updates) /
                            static_cast<double>(total);
  }
};

template <VertexProgram Program>
PswResult run_psw_deterministic(const Graph& g, Program& prog,
                                EdgeDataArray<typename Program::EdgeData>& edges,
                                const IntervalPlan& plan,
                                const EngineOptions& opts) {
  Timer timer;
  Frontier frontier(g.num_vertices());
  frontier.seed(prog.initial_frontier(g));

  const std::size_t nt = std::max<std::size_t>(1, opts.num_threads);
  PswResult result;
  result.per_thread_updates.assign(nt, 0);

  // Scratch of the interval in progress: its active vertices split into the
  // conflict-free batch and the dependent (sequential) remainder.
  std::vector<VertexId> par_batch;
  std::vector<VertexId> seq_batch;
  // Written by thread 0 between barriers only.
  const std::vector<VertexId>* cur = nullptr;  // S_n of the iteration
  std::size_t pos = 0;                         // next unread slot of *cur
  std::size_t interval = plan.num_intervals();
  bool batch_ready = false;

  using Ctx = UpdateContext<typename Program::EdgeData, AlignedAccess>;
  const auto run_sequential = [&](Ctx& ctx, const std::vector<VertexId>& vs) {
    for (const VertexId v : vs) {
      ctx.begin(v, result.iterations);
      prog.update(v, ctx);
    }
    result.per_thread_updates[0] += vs.size();
  };

  // Thread 0, between barriers: finishes the interval whose parallel batch
  // the team just ran, then runs everything sequential up to the next batch
  // worth a team phase. Returns false when the run is over.
  const auto next_parallel_batch = [&](Ctx& ctx) {
    if (batch_ready) {
      run_sequential(ctx, seq_batch);
      result.sequential_updates += seq_batch.size();
      ++interval;
    }
    for (;;) {
      while (interval == plan.num_intervals()) {
        // Iteration boundary (the sliding-window pass is complete).
        if (cur != nullptr) {
          result.updates += cur->size();
          frontier.advance();
          ++result.iterations;
        }
        if (frontier.empty() || result.iterations >= opts.max_iterations) {
          return false;
        }
        cur = &frontier.current();
        result.frontier_sizes.push_back(cur->size());
        pos = 0;
        interval = 0;
      }
      const VertexId hi = plan.boundaries[interval + 1];
      par_batch.clear();
      seq_batch.clear();
      while (pos < cur->size() && (*cur)[pos] < hi) {
        const VertexId v = (*cur)[pos++];
        (plan.has_intra_neighbor[v] ? seq_batch : par_batch).push_back(v);
      }
      result.parallel_updates += par_batch.size();
      if (par_batch.size() > 1 && nt > 1) return true;
      run_sequential(ctx, par_batch);
      run_sequential(ctx, seq_batch);
      result.sequential_updates += seq_batch.size();
      ++interval;
    }
  };

  // One team for the whole run. Each parallel batch is one phase between two
  // barriers: thread 0 partitions the interval (and runs what must stay
  // sequential), then every thread runs its static block of the batch. The
  // batch is conflict-free, so plain access is safe there.
  SpinBarrier barrier(nt);
  run_team(nt, [&](std::size_t tid) {
    bool sense = false;
    Ctx ctx(g, edges, AlignedAccess{}, frontier);
    for (;;) {
      if (tid == 0) batch_ready = next_parallel_batch(ctx);
      barrier.arrive_and_wait(sense);
      if (!batch_ready) break;
      const auto [begin, end] = static_block(par_batch.size(), nt, tid);
      for (std::size_t i = begin; i < end; ++i) {
        ctx.begin(par_batch[i], result.iterations);
        prog.update(par_batch[i], ctx);
      }
      result.per_thread_updates[tid] += end - begin;  // exclusive slot
      barrier.arrive_and_wait(sense);
    }
  });

  result.converged = frontier.empty();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ndg
