#include "engine/distributed.hpp"

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace ndg::detail {

DistMachine::DistMachine(const Graph& g, const DistOptions& opts)
    : opts_(opts), num_vertices_(g.num_vertices()),
      src_replica_(g.num_edges(), 0), dst_replica_(g.num_edges(), 0),
      seed_(opts.seed) {
  NDG_ASSERT(opts_.num_machines >= 1);
  NDG_ASSERT(opts_.network_delay >= 1);
}

bool DistMachine::replicas_consistent() const {
  for (EdgeId e = 0; e < src_replica_.size(); ++e) {
    if (src_replica_[e] != dst_replica_[e]) return false;
  }
  return true;
}

bool DistMachine::write_side(EdgeId e, bool src_side, std::uint64_t value,
                             std::size_t my_machine, std::size_t peer_machine,
                             VertexId peer_vertex) {
  // Local (immediate, Gauss–Seidel) visibility on my own replica.
  (src_side ? src_replica_[e] : dst_replica_[e]) = value;
  if (peer_machine == my_machine) {
    // Co-located endpoints share state: keep both sides coherent.
    (src_side ? dst_replica_[e] : src_replica_[e]) = value;
    return false;
  }
  // Remote peer: the value crosses the network.
  while (in_flight_.size() < opts_.network_delay) in_flight_.emplace_back();
  in_flight_[opts_.network_delay - 1].push_back(
      Msg{e, value, peer_vertex, /*to_src_side=*/!src_side});
  ++messages_sent_;
  return true;
}

bool DistMachine::messages_in_flight() const {
  for (const auto& batch : in_flight_) {
    if (!batch.empty()) return true;
  }
  return false;
}

}  // namespace ndg::detail
