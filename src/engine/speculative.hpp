#pragma once
// Speculative execution with conflict detection and rollback — the engine for
// algorithms the paper's eligibility theorems deliberately exclude (maximal
// matching, greedy MIS, greedy coloring: docs/SPECULATION.md). Where every
// other engine's correctness story is "eligibility" (the algorithm tolerates
// nondeterminism), this engine's story is "rollback": it runs *ineligible*
// algorithms in parallel and guarantees the result equals the sequential
// greedy-by-id execution at any thread count.
//
// One persistent team of P threads runs every round (the paper's Section II
// system model: the same threads for all N iterations, a SpinBarrier between
// phases), each thread working out of its own cache-line-aligned SpecLane.
// Each round:
//   1. plan   — threads optimistically execute the current worklist in
//               deterministic id order (static contiguous blocks over the
//               sparse frontier's ascending list), logging each update's
//               read and declared-write *neighborhood footprint* (the
//               vertices whose state or incident edges it touches) and its
//               decision in a per-item LocalState. No shared state is written.
//   2. resolve — thread 0 sweeps the planned items in ascending id with a
//               per-vertex dirty stamp: an item aborts iff its vertex or any
//               footprint vertex was dirtied by a smaller item this round
//               (the scan stops at the first dirty entry); a committed
//               writer dirties its vertex and its write log; an *aborted*
//               item dirties its full static neighborhood, because its
//               re-execution may write anywhere in it. Lowest id always wins.
//   3. commit — committed items apply their writes in parallel (their write
//               neighborhoods are pairwise disjoint by construction, so plain
//               aligned access is race-free); aborted items are rescheduled
//               and re-execute from scratch next round. Thread 0 then
//               advances the frontier.
//
// Operators declare a *cautious point* — all reads happen in plan(), all
// writes in commit() — via the CautiousProgram concept, so rollback is simply
// "don't run commit()": no undo logs (Galois's cautious-operator discipline,
// SNIPPETS.md §1–2). Per-round LocalState lives in the lane's `locals`,
// cleared (capacity kept) each round.
//
// Why the result equals sequential greedy-by-id execution, independent of
// thread count: the commit/abort decision depends only on footprints and id
// order, never on timing. Within a round, a committed item saw no writes from
// smaller items (else it would have aborted), and no larger item that
// conflicts with an aborted item can commit (the abort poisoned its whole
// potential write region). Conflicting updates therefore always apply in
// ascending id order, which is exactly the DE schedule.

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "atomics/access_policy.hpp"
#include "atomics/edge_data.hpp"
#include "engine/frontier.hpp"
#include "engine/options.hpp"
#include "engine/vertex_program.hpp"
#include "graph/graph.hpp"
#include "util/barrier.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

/// A cautious operator: the whole read set is visited before the first write
/// (plan), and writes are replayable from the recorded decision (commit).
/// Structural requirements checked here; the plan/commit member templates are
/// checked at instantiation, like VertexProgram's update(). Contract beyond
/// the syntax:
///
///   * plan(v, PlanContext&, LocalState&) performs every read through the
///     context (so it lands in the footprint), writes NOTHING shared, and
///     declares every vertex the commit will affect via will_write /
///     will_write_vertex.
///   * commit(v, CommitContext&, const LocalState&) applies exactly the
///     declared writes. It may re-read v's own incident edges (the engine
///     guarantees they are unchanged since plan), but must not read anything
///     else.
///   * All reads AND writes stay inside v's static neighborhood ({v} ∪ N(v),
///     vertex state or incident edges) — the abort rule poisons exactly that
///     region, and the serialization argument needs a retry's reads to be
///     unreachable by any larger item that committed past the abort.
/// (The manifest requirement is spelled inline rather than via
/// analysis/static_eligibility.hpp's ManifestedProgram: the engine layer does
/// not depend on the analysis layer.)
template <typename P>
concept CautiousProgram =
    VertexProgram<P> && requires {
      { P::kManifest } -> std::convertible_to<AccessManifest>;
      typename P::LocalState;
      requires std::is_trivially_copyable_v<typename P::LocalState>;
      { P::kCautious } -> std::convertible_to<bool>;
    } && P::kCautious;

/// One planned update. Its read and write logs are the slices of its lane's
/// `reads`/`writes` ending at read_end/write_end and starting where the
/// previous item's ended. `committed` is filled by the resolution sweep.
struct SpecItem {
  VertexId v;
  std::uint32_t read_end;
  std::uint32_t write_end;
  bool committed;
};
static_assert(sizeof(SpecItem) == 16);

/// One thread's round logs, in ascending id order. A footprint entry is the
/// *vertex* a speculative read or write intent maps onto (edge accesses map
/// to the other endpoint; the planning vertex itself is tracked implicitly by
/// the resolver).
struct SpecLog {
  std::vector<VertexId> reads;
  std::vector<VertexId> writes;
  std::vector<SpecItem> items;

  void clear() {
    reads.clear();
    writes.clear();
    items.clear();
  }
};

/// Everything one worker touches during a round, on its own cache lines so
/// plan-phase pushes and counter bumps never false-share with a neighbour's.
template <typename LocalState>
struct alignas(64) SpecLane : SpecLog {
  std::vector<LocalState> locals;  // indexed like items
  std::uint64_t updates = 0;
  std::uint64_t work = 0;

  void clear() {
    SpecLog::clear();
    locals.clear();
  }
};

struct SpecResolution {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

/// The sequential conflict-resolution sweep (phase 2) over one lane. Thread
/// blocks are contiguous ascending, so calling this for lanes t = 0..T-1 in
/// order visits every item in global id order. `dirty` is a per-vertex round
/// stamp (never cleared; a vertex is dirty iff dirty[v] == round, so `round`
/// must start at 1). Adds the lane's decisions to `res`.
void resolve_speculative_lane(const Graph& g, SpecLog& lane,
                              std::vector<std::uint32_t>& dirty,
                              std::uint32_t round, SpecResolution& res);

/// The plan phase's window onto the system: reads route through an access
/// policy AND land in the read log; writes are *declarations only*, kept in
/// the write log.
template <EdgePod ED, typename GraphT = Graph>
class PlanContext {
 public:
  using EdgeData = ED;

  PlanContext(const GraphT& g, EdgeDataArray<ED>& edges, SpecLog& log)
      : g_(&g), edges_(&edges), log_(&log) {}

  void begin(VertexId v, std::size_t iteration) {
    v_ = v;
    iter_ = static_cast<std::uint32_t>(iteration);
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

  /// Reads edge e, recording the read against its other endpoint (the edge is
  /// shared with exactly that vertex's updates). Plain aligned access is safe:
  /// nothing writes during the plan phase.
  [[nodiscard]] ED read(EdgeId e, VertexId other_endpoint) {
    log_->reads.push_back(other_endpoint);
    return policy_.read(*edges_, e);
  }

  /// Records a read of u's *program state* (arrays owned by the program,
  /// invisible to the edge-data layer). The caller does the actual read.
  void read_vertex(VertexId u) { log_->reads.push_back(u); }

  /// Declares that commit will write edge e (shared with other_endpoint).
  void will_write(EdgeId e, VertexId other_endpoint) {
    (void)e;  // the footprint is vertex-granular
    log_->writes.push_back(other_endpoint);
  }

  /// Declares that commit will write u's program state.
  void will_write_vertex(VertexId u) { log_->writes.push_back(u); }

 private:
  const GraphT* g_;
  EdgeDataArray<ED>* edges_;
  SpecLog* log_;
  AlignedAccess policy_{};
  VertexId v_ = kInvalidVertex;
  std::uint32_t iter_ = 0;
};

/// The commit phase's window: applies writes with the Section II
/// task-generation rule available (write schedules the other endpoint;
/// write_silent does not). Committed items' write neighborhoods are pairwise
/// disjoint, so plain aligned access is race-free; the frontier bitset is
/// atomic. read(e) is restricted to v's own incident edges — unchanged since
/// plan for a committed item (see the header comment's serialization
/// argument).
template <EdgePod ED, typename GraphT = Graph>
class CommitContext {
 public:
  using EdgeData = ED;

  CommitContext(const GraphT& g, EdgeDataArray<ED>& edges, Frontier& frontier)
      : g_(&g), edges_(&edges), frontier_(&frontier) {}

  void begin(VertexId v, std::size_t iteration) {
    v_ = v;
    iter_ = static_cast<std::uint32_t>(iteration);
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

  [[nodiscard]] ED read(EdgeId e) { return policy_.read(*edges_, e); }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    policy_.write(*edges_, e, value);
    frontier_->schedule(other_endpoint);
  }

  void write_silent(EdgeId e, ED value) { policy_.write(*edges_, e, value); }

  void schedule(VertexId u) { frontier_->schedule(u); }

 private:
  const GraphT* g_;
  EdgeDataArray<ED>* edges_;
  Frontier* frontier_;
  AlignedAccess policy_{};
  VertexId v_ = kInvalidVertex;
  std::uint32_t iter_ = 0;
};

template <CautiousProgram Program>
EngineResult run_speculative(const Graph& g, Program& prog,
                             EdgeDataArray<typename Program::EdgeData>& edges,
                             const EngineOptions& opts) {
  using ED = typename Program::EdgeData;
  using LocalState = typename Program::LocalState;

  Timer timer;
  const std::size_t nt = opts.num_threads > 0 ? opts.num_threads : 1;

  // The worklist must be the ascending sparse list: the plan phase's static
  // contiguous blocks over it are what make concatenated per-thread item logs
  // globally id-ordered (the resolver depends on that).
  Frontier frontier(g.num_vertices(), FrontierPolicy::kSparse);
  frontier.seed(prog.initial_frontier(g));

  std::vector<SpecLane<LocalState>> lanes(nt);
  SpinBarrier barrier(nt);
  EngineResult result;
  // Written by thread 0 between barriers only; read by all after a barrier.
  std::size_t iterations = 0;
  SpecResolution totals;

  run_team(nt, [&](std::size_t tid) {
    bool sense = false;
    SpecLane<LocalState>& lane = lanes[tid];
    PlanContext<ED> plan_ctx(g, edges, lane);
    CommitContext<ED> commit_ctx(g, edges, frontier);
    // Thread 0's resolve state: a per-vertex round stamp (starting at 1, so
    // zero means "never dirtied") and the per-round worklist sizes.
    std::vector<std::uint32_t> dirty(tid == 0 ? g.num_vertices() : 0, 0);
    std::vector<std::uint64_t> sizes;
    while (!frontier.empty() && iterations < opts.max_iterations) {
      // Phase 1: speculative plan. Thread t owns one contiguous ascending
      // block of the worklist; nothing shared is written.
      const std::vector<VertexId>& cur = frontier.current();
      const auto [begin, end] = static_block(cur.size(), nt, tid);
      lane.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const VertexId v = cur[i];
        plan_ctx.begin(v, iterations);
        prog.plan(v, plan_ctx, lane.locals.emplace_back());
        lane.items.push_back(
            SpecItem{v, static_cast<std::uint32_t>(lane.reads.size()),
                     static_cast<std::uint32_t>(lane.writes.size()), false});
        lane.work += g.in_degree(v) + g.out_degree(v);
      }
      lane.updates += end - begin;
      barrier.arrive_and_wait(sense);

      // Phase 2: sequential conflict resolution in global id order.
      if (tid == 0) {
        const auto round = static_cast<std::uint32_t>(iterations + 1);
        for (SpecLane<LocalState>& l : lanes) {
          resolve_speculative_lane(g, l, dirty, round, totals);
        }
        sizes.push_back(cur.size());
      }
      barrier.arrive_and_wait(sense);

      // Phase 3: parallel commit of winners; losers re-enter the worklist and
      // re-plan from scratch next round (cautious operators need no undo).
      for (std::size_t k = 0; k < lane.items.size(); ++k) {
        const SpecItem& item = lane.items[k];
        if (item.committed) {
          commit_ctx.begin(item.v, iterations);
          prog.commit(item.v, commit_ctx, lane.locals[k]);
        } else {
          frontier.schedule(item.v);
        }
      }
      barrier.arrive_and_wait(sense);

      if (tid == 0) {
        frontier.advance();
        ++iterations;
      }
      barrier.arrive_and_wait(sense);
    }
    if (tid == 0) {
      // The result's vectors are built at exact size here, beside the rest
      // of the run's allocations: built on the calling thread, the results
      // a caller keeps (one per solve in a benchmark loop) would land in the
      // holes of its own heap. Every lane's counters were last written
      // before the final barrier.
      result.frontier_sizes.assign(sizes.begin(), sizes.end());
      result.per_thread_updates.resize(nt);
      result.per_thread_work.resize(nt);
      for (std::size_t t = 0; t < nt; ++t) {
        result.per_thread_updates[t] = lanes[t].updates;
        result.per_thread_work[t] = lanes[t].work;
      }
    }
  });

  result.iterations = iterations;
  result.converged = frontier.empty();
  result.spec_commits = totals.commits;
  result.spec_aborts = totals.aborts;
  result.updates = totals.commits + totals.aborts;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ndg
