#pragma once
// Distributed-memory execution model — the paper's §VII future-work item
// "extending the applicability of results in this paper to more scenarios,
// such as ... distributed systems", made concrete.
//
// K logical machines own disjoint vertex ranges (block or hash partition).
// Every edge keeps one replica per endpoint machine: the source-side and the
// target-side copy of its datum, each a 64-bit logical word. An update runs
// on its vertex's machine and reads/writes its *local* replicas with
// immediate (Gauss–Seidel) visibility; a write whose other endpoint lives
// remotely additionally sends an update message that lands after
// `network_delay` rounds, overwriting the remote replica and scheduling the
// remote endpoint (the Section II task-generation rule, carried by the
// network).
//
// This is the shared-memory model of the paper with the ∥ window stretched
// to the network: replicas of one edge can disagree for up to
// `network_delay` rounds (the distributed read–write conflict), and two
// endpoints writing "their" edge concurrently leave the replicas crossed
// until the deliveries land (the distributed write–write conflict, resolved
// last-delivery-wins with a seeded tie-break — Lemma 2's "one of the written
// values"). The theorems transfer: monotone algorithms re-correct diverged
// replicas exactly as they recover corrupted edges, which the tests verify
// bit-exactly against the references.
//
// Execution is simulated on one host thread (machines are logically
// parallel; cross-machine visibility is what's modeled), deterministic given
// the seed.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "atomics/edge_data.hpp"
#include "engine/vertex_program.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ndg {

struct DistOptions {
  std::size_t num_machines = 4;
  /// Rounds a remote edge write needs to reach the peer replica (>= 1).
  std::size_t network_delay = 1;
  /// Orders same-round deliveries to the same replica.
  std::uint64_t seed = 1;
  std::size_t max_rounds = 100000;
  enum class Partition { kBlock, kHash };
  Partition partition = Partition::kBlock;
};

struct DistResult {
  std::size_t rounds = 0;
  std::uint64_t updates = 0;
  /// Remote-write messages sent across machines.
  std::uint64_t messages = 0;
  /// Deliveries that found the peer replica holding a different value — the
  /// observable replica-divergence (distributed conflict) count.
  std::uint64_t replica_divergences = 0;
  bool converged = false;
  double seconds = 0.0;
  std::vector<std::uint64_t> frontier_sizes;  // active vertices per round
};

namespace detail {

/// Non-templated distributed machinery over 64-bit logical replica words
/// (detail::to_slot).
class DistMachine {
 public:
  DistMachine(const Graph& g, const DistOptions& opts);

  [[nodiscard]] std::size_t machine_of(VertexId v) const {
    return opts_.partition == DistOptions::Partition::kHash
               ? (v * 0x9e3779b1u) % opts_.num_machines
               : static_cast<std::size_t>(v) * opts_.num_machines /
                     std::max<std::size_t>(1, num_vertices_);
  }

  /// Initializes both replicas of edge e.
  void load_replica(EdgeId e, std::uint64_t value) {
    src_replica_[e] = value;
    dst_replica_[e] = value;
  }
  [[nodiscard]] bool replicas_consistent() const;

  [[nodiscard]] std::uint64_t read_side(EdgeId e, bool src_side) const {
    return src_side ? src_replica_[e] : dst_replica_[e];
  }

  /// Local write by the `src_side` owner; sends a message if the peer
  /// endpoint lives on another machine. Returns true if a message was sent.
  bool write_side(EdgeId e, bool src_side, std::uint64_t value,
                  std::size_t my_machine, std::size_t peer_machine,
                  VertexId peer_vertex);

  /// Delivers every message due this round; for each, calls
  /// schedule(peer_vertex) after applying the write.
  template <typename ScheduleFn>
  void deliver_round(ScheduleFn&& schedule) {
    if (in_flight_.empty()) return;
    auto batch = std::move(in_flight_.front());
    in_flight_.pop_front();
    // Same-(edge,side) collisions within a batch: seeded order, last wins.
    if (batch.size() > 1) {
      Xoshiro256 rng(seed_ ^ round_);
      for (std::size_t i = batch.size() - 1; i > 0; --i) {
        std::swap(batch[i], batch[rng.next_below(i + 1)]);
      }
    }
    for (const Msg& m : batch) {
      std::uint64_t& replica = m.to_src_side ? src_replica_[m.edge]
                                             : dst_replica_[m.edge];
      if (replica != m.value) ++divergences_;
      replica = m.value;
      schedule(m.target_vertex);
    }
  }

  void begin_round(std::uint32_t round) { round_ = round; }
  [[nodiscard]] bool messages_in_flight() const;
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t divergences() const { return divergences_; }

 private:
  struct Msg {
    EdgeId edge;
    std::uint64_t value;
    VertexId target_vertex;
    bool to_src_side;
  };

  const DistOptions opts_;
  VertexId num_vertices_;
  std::vector<std::uint64_t> src_replica_;
  std::vector<std::uint64_t> dst_replica_;
  /// in_flight_[k] = messages arriving k+1 rounds from now.
  std::deque<std::vector<Msg>> in_flight_;
  std::uint64_t seed_;
  std::uint32_t round_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t divergences_ = 0;
};

/// Update context over the machine-local replicas.
template <EdgePod ED>
class DistContext {
 public:
  DistContext(const Graph& g, DistMachine& machine,
              std::vector<std::vector<VertexId>>& next_frontiers,
              std::vector<DenseBitset>& next_flags)
      : g_(&g), machine_(&machine), next_frontiers_(&next_frontiers),
        next_flags_(&next_flags) {}

  void begin(VertexId v, std::size_t round, std::size_t my_machine) {
    v_ = v;
    round_ = round;
    my_machine_ = my_machine;
  }

  [[nodiscard]] VertexId vertex() const { return v_; }
  [[nodiscard]] std::size_t iteration() const { return round_; }
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
    // My side of the edge: the source side iff I am the edge's source.
    return detail::from_slot<ED>(
        machine_->read_side(e, g_->is_out_edge(v_, e)));
  }

  void write(EdgeId e, VertexId other_endpoint, ED value) {
    write_impl(e, other_endpoint, value, /*schedule_peer=*/true);
  }

  void write_silent(EdgeId e, ED value) {
    // Silent writes have no peer to schedule; infer the peer side anyway.
    const VertexId src = g_->edge_source(e);
    const VertexId dst = g_->edge_target(e);
    const VertexId other = src == v_ ? dst : src;
    write_impl(e, other, value, /*schedule_peer=*/false);
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

  void schedule(VertexId u) {
    const std::size_t m = machine_->machine_of(u);
    if (!(*next_flags_)[m].test(u)) {
      (*next_flags_)[m].set(u);
      (*next_frontiers_)[m].push_back(u);
    }
  }

 private:
  void write_impl(EdgeId e, VertexId other_endpoint, ED value,
                  bool schedule_peer) {
    const bool i_am_source = g_->is_out_edge(v_, e);
    const std::size_t peer_machine = machine_->machine_of(other_endpoint);
    const bool sent = machine_->write_side(e, i_am_source,
                                           detail::to_slot(value), my_machine_,
                                           peer_machine, other_endpoint);
    if (schedule_peer && !sent) {
      // Local peer: schedule directly (remote peers are scheduled by the
      // message delivery).
      schedule(other_endpoint);
    }
  }

  const Graph* g_;
  DistMachine* machine_;
  std::vector<std::vector<VertexId>>* next_frontiers_;
  std::vector<DenseBitset>* next_flags_;
  VertexId v_ = kInvalidVertex;
  std::size_t round_ = 0;
  std::size_t my_machine_ = 0;
};

}  // namespace detail

template <VertexProgram Program>
DistResult run_distributed(const Graph& g, Program& prog,
                           EdgeDataArray<typename Program::EdgeData>& edges,
                           const DistOptions& opts) {
  Timer timer;
  const std::size_t machines = std::max<std::size_t>(1, opts.num_machines);
  DistOptions effective = opts;
  effective.num_machines = machines;
  effective.network_delay = std::max<std::size_t>(1, opts.network_delay);

  detail::DistMachine machine(g, effective);
  // Whole-array replica snapshot before any update runs: quiescent, so the
  // access policy is not in play.
  using ED = typename Program::EdgeData;
  NDG_ASSERT(edges.size() == g.num_edges());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    machine.load_replica(e, detail::to_slot(edges.get(e)));
  }

  // Per-machine frontiers (current and next), deduplicated via bitsets.
  std::vector<std::vector<VertexId>> current(machines);
  std::vector<std::vector<VertexId>> next(machines);
  std::vector<DenseBitset> next_flags(machines);
  for (auto& f : next_flags) f = DenseBitset(g.num_vertices());

  detail::DistContext<ED> ctx(g, machine, next, next_flags);
  auto deliver_schedule = [&](VertexId u) { ctx.schedule(u); };

  for (const VertexId v : prog.initial_frontier(g)) {
    const std::size_t m = machine.machine_of(v);
    if (!next_flags[m].test(v)) {
      next_flags[m].set(v);
      next[m].push_back(v);
    }
  }

  DistResult result;
  for (;;) {
    // Round boundary: promote next -> current.
    std::size_t active = 0;
    for (std::size_t m = 0; m < machines; ++m) {
      current[m] = std::move(next[m]);
      next[m].clear();
      std::sort(current[m].begin(), current[m].end());
      next_flags[m].clear();
      active += current[m].size();
    }
    const bool in_flight = machine.messages_in_flight();
    if ((active == 0 && !in_flight) || result.rounds >= effective.max_rounds) {
      result.converged = active == 0 && !in_flight;
      break;
    }
    result.frontier_sizes.push_back(active);
    machine.begin_round(static_cast<std::uint32_t>(result.rounds));

    // 1. Network: deliver messages due this round (scheduling into `next`).
    machine.deliver_round(deliver_schedule);

    // 2. Compute: every machine processes its active vertices, label order.
    for (std::size_t m = 0; m < machines; ++m) {
      for (const VertexId v : current[m]) {
        ctx.begin(v, result.rounds, m);
        prog.update(v, ctx);
        ++result.updates;
      }
    }
    ++result.rounds;
  }

  result.messages = machine.messages_sent();
  result.replica_divergences = machine.divergences();
  // Quiescent write-back after the last round. The destination side is the
  // gather side in pull mode, so it is the canonical post-run edge state;
  // diverged replicas should not remain at convergence (tests also check
  // replicas_consistent()).
  for (EdgeId e = 0; e < edges.size(); ++e) {
    edges.set(e,
              detail::from_slot<ED>(machine.read_side(e, /*src_side=*/false)));
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ndg
