#pragma once
// Logical-processor simulator of nondeterministic execution.
//
// The paper's Section II defines nondeterminism abstractly: per-iteration
// absolute orders π(v), and partial orders between updates on P processors
// with a propagation delay d (Definitions 1–3):
//
//   f(v) ≺ f(u)  — same proc and π(v) < π(u), or different procs and
//                  π(u) − π(v) ≥ d:   f(u) observes f(v)'s writes;
//   f(v) ≻ f(u)  — symmetric;
//   f(v) ∥ f(u)  — different procs and |π(v) − π(u)| < d: neither observes
//                  the other; racing writes commit to ONE of the written
//                  values (Lemmas 1 & 2).
//
// This engine executes that model literally, on one host thread: the frontier
// is dispatched over P *logical* processors exactly as in Fig. 1, updates run
// in wave order, reads reconstruct the visible value from a per-edge write
// log using the rules above, and ∥ write-write races commit a seeded winner.
// Because the host hardware plays no role, the simulator (a) reproduces the
// paper's shape results on any machine — including this repo's 1-core CI
// host — and (b) makes convergence under nondeterminism a *testable*
// property: every seed is one adversarial schedule.
//
// With P = 1 (or d = 0) the model degenerates to deterministic Gauss–Seidel
// execution; a property test asserts bit-equality with run_deterministic.

#include <cstdint>
#include <utility>
#include <vector>

#include "atomics/edge_data.hpp"
#include "engine/frontier.hpp"
#include "engine/options.hpp"
#include "engine/vertex_program.hpp"
#include "util/rng.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace ndg {

struct SimOptions {
  /// Logical processors P.
  std::size_t num_procs = 4;
  /// Propagation delay d, "the time (measured by the number of updates) for
  /// the result of an update to propagate from one thread to another".
  std::size_t delay = 4;
  /// Environmental noise: each cross-processor propagation draws a seeded
  /// per-(edge, iteration, writer, reader) effective delay in
  /// [max(1, delay - jitter), delay + jitter]. This models the paper's
  /// run-to-run schedule noise ("uncertainty on scheduling, random IRQs,
  /// memory stalls" — Section V-C): with jitter = 0 the schedule is one fixed
  /// interleaving; with jitter > 0 each seed is a different noisy schedule,
  /// which is what makes fixed-point results vary between runs.
  std::size_t delay_jitter = 0;
  /// Resolves ∥ write-write races and the delay jitter; each seed is one
  /// nondeterministic schedule.
  std::uint64_t seed = 1;
  std::size_t max_iterations = 100000;
};

struct SimResult {
  std::size_t iterations = 0;
  std::uint64_t updates = 0;
  bool converged = false;
  double seconds = 0.0;
  /// Reads that overlapped (∥) an earlier-wave write they could not observe.
  std::uint64_t rw_overlaps = 0;
  /// Write pairs to the same edge within each other's ∥ window.
  std::uint64_t ww_overlaps = 0;
  /// Makespan proxy: total update waves executed, Σ_n ⌈|S_n| / P⌉. With all
  /// update tasks costing one slot, this is the parallel execution time of
  /// the schedule on P logical processors — the host-independent quantity
  /// behind Figure 3's scaling curves (updates / wave_slots ≈ achieved
  /// parallelism).
  std::uint64_t wave_slots = 0;
  /// |S_n| per executed iteration — the convergence curve.
  std::vector<std::uint64_t> frontier_sizes;
};

namespace detail {

/// Non-templated simulation machinery over 64-bit logical edge words
/// (detail::to_slot): it keeps its own committed copy of every edge.
class SimMachine {
 public:
  SimMachine(std::vector<std::uint64_t> committed, std::size_t delay,
             std::size_t delay_jitter, std::uint64_t seed);

  void begin_iteration(std::uint32_t iter) { iter_ = iter; }

  [[nodiscard]] std::uint64_t read(EdgeId e, std::uint32_t proc, std::uint32_t slot);
  void write(EdgeId e, std::uint64_t value, std::uint32_t proc, std::uint32_t slot);

  /// Commits each touched edge to its winning write (Lemmas 1 & 2) and clears
  /// the iteration's log.
  void commit();

  /// Edge e's value as of the last commit().
  [[nodiscard]] std::uint64_t committed(EdgeId e) const {
    return committed_[e];
  }

  [[nodiscard]] std::uint64_t rw_overlaps() const { return rw_overlaps_; }
  [[nodiscard]] std::uint64_t ww_overlaps() const { return ww_overlaps_; }

 private:
  struct WriteRec {
    std::uint64_t value = 0;
    std::uint32_t slot = 0;
    std::uint32_t proc = 0;
  };
  struct EdgeLog {
    std::uint32_t epoch = ~0u;  // iteration the recs belong to
    std::uint8_t count = 0;
    WriteRec recs[2];
  };

  [[nodiscard]] bool visible(EdgeId e, const WriteRec& w, std::uint32_t proc,
                             std::uint32_t slot) const;
  /// The noisy cross-processor delay for one (edge, writer, reader) triple.
  [[nodiscard]] std::size_t effective_delay(EdgeId e, const WriteRec& w,
                                            std::uint32_t proc,
                                            std::uint32_t slot) const;
  /// Seeded coin for ∥ ties: true selects candidate `a` over `b`.
  [[nodiscard]] bool tie_pick_first(EdgeId e, const WriteRec& a,
                                    const WriteRec& b) const;

  std::vector<std::uint64_t> committed_;
  std::vector<EdgeLog> logs_;
  std::vector<EdgeId> touched_;
  std::size_t delay_;
  std::size_t delay_jitter_;
  std::uint64_t seed_;
  std::uint32_t iter_ = 0;
  std::uint64_t rw_overlaps_ = 0;
  std::uint64_t ww_overlaps_ = 0;
};

/// Update context backed by the simulator's visibility rules.
template <EdgePod ED>
class SimContext {
 public:
  SimContext(const Graph& g, SimMachine& machine, Frontier& frontier)
      : g_(&g), machine_(&machine), frontier_(&frontier) {}

  void begin(VertexId v, std::size_t iteration, std::uint32_t proc,
             std::uint32_t slot) {
    v_ = v;
    iter_ = iteration;
    proc_ = proc;
    slot_ = slot;
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
    return detail::from_slot<ED>(machine_->read(e, proc_, slot_));
  }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    machine_->write(e, detail::to_slot(value), proc_, slot_);
    frontier_->schedule(other_endpoint);
  }

  void write_silent(EdgeId e, ED value) {
    machine_->write(e, detail::to_slot(value), proc_, slot_);
  }

  /// Simulator RMWs are RACY (a visible read followed by a logged write):
  /// the Section II model has no atomic compound operations — single reads
  /// and writes are the only atoms (Section III). Algorithms relying on
  /// genuine atomic RMW (push mode) must be validated on the threaded
  /// engines, whose policies provide real CAS.
  [[nodiscard]] ED exchange(EdgeId e, ED value) {
    const ED old = detail::from_slot<ED>(machine_->read(e, proc_, slot_));
    machine_->write(e, detail::to_slot(value), proc_, slot_);
    return old;
  }

  template <typename Fn>
  void accumulate(EdgeId e, VertexId other_endpoint, Fn fn) {
    const ED old = detail::from_slot<ED>(machine_->read(e, proc_, slot_));
    machine_->write(e, detail::to_slot(fn(old)), proc_, slot_);
    frontier_->schedule(other_endpoint);
  }

  void schedule(VertexId u) { frontier_->schedule(u); }

 private:
  const Graph* g_;
  SimMachine* machine_;
  Frontier* frontier_;
  VertexId v_ = kInvalidVertex;
  std::size_t iter_ = 0;
  std::uint32_t proc_ = 0;
  std::uint32_t slot_ = 0;
};

}  // namespace detail

template <VertexProgram Program>
SimResult run_simulated(const Graph& g, Program& prog,
                        EdgeDataArray<typename Program::EdgeData>& edges,
                        const SimOptions& opts) {
  Timer timer;
  Frontier frontier(g.num_vertices());
  frontier.seed(prog.initial_frontier(g));

  // The simulator models the paper's atomicity assumption itself, on its
  // own copy of the edge data: copied in here and back after the run.
  using ED = typename Program::EdgeData;
  std::vector<std::uint64_t> initial(edges.size());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    initial[e] = detail::to_slot(edges.get(e));
  }
  detail::SimMachine machine(std::move(initial), opts.delay,
                             opts.delay_jitter, opts.seed);
  detail::SimContext<ED> ctx(g, machine, frontier);

  const std::size_t procs = std::max<std::size_t>(1, opts.num_procs);
  SimResult result;

  while (!frontier.empty() && result.iterations < opts.max_iterations) {
    const auto& cur = frontier.current();
    result.frontier_sizes.push_back(cur.size());
    machine.begin_iteration(static_cast<std::uint32_t>(result.iterations));

    // Fig. 1 dispatch: proc p owns the contiguous block of the ascending
    // frontier list; π(v) is the position inside the block. Updates execute
    // in waves: all procs run their slot-k update "simultaneously".
    std::size_t max_block = 0;
    for (std::size_t p = 0; p < procs; ++p) {
      const auto [b, e] = static_block(cur.size(), procs, p);
      max_block = std::max(max_block, e - b);
    }
    result.wave_slots += max_block;
    for (std::size_t slot = 0; slot < max_block; ++slot) {
      for (std::size_t p = 0; p < procs; ++p) {
        const auto [b, e] = static_block(cur.size(), procs, p);
        if (b + slot >= e) continue;
        const VertexId v = cur[b + slot];
        ctx.begin(v, result.iterations, static_cast<std::uint32_t>(p),
                  static_cast<std::uint32_t>(slot));
        prog.update(v, ctx);
        ++result.updates;
      }
    }

    machine.commit();
    frontier.advance();
    ++result.iterations;
  }

  for (EdgeId e = 0; e < edges.size(); ++e) {
    edges.set(e, detail::from_slot<ED>(machine.committed(e)));
  }
  result.converged = frontier.empty();
  result.seconds = timer.seconds();
  result.rw_overlaps = machine.rw_overlaps();
  result.ww_overlaps = machine.ww_overlaps();
  return result;
}

}  // namespace ndg
