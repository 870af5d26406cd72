#include "engine/speculative.hpp"

namespace ndg {

void resolve_speculative_lane(const Graph& g, SpecLog& lane,
                              std::vector<std::uint32_t>& dirty,
                              std::uint32_t round, SpecResolution& res) {
  NDG_ASSERT(round > 0);
  const auto is_dirty = [&](VertexId u) { return dirty[u] == round; };
  std::uint32_t read_begin = 0;
  std::uint32_t write_begin = 0;
  for (SpecItem& item : lane.items) {
    // An item conflicts when a smaller item this round dirtied the item's
    // own vertex (someone wrote our state or a shared edge) or anything it
    // read or intends to write (a vertex whose region a smaller item
    // touched). Checks strictly precede marks, so only smaller items are
    // visible here. Conflict is an OR over the logs, so the scan stops at
    // the first dirty entry.
    bool conflict = is_dirty(item.v);
    for (std::uint32_t k = read_begin; !conflict && k < item.read_end; ++k) {
      conflict = is_dirty(lane.reads[k]);
    }
    for (std::uint32_t k = write_begin; !conflict && k < item.write_end;
         ++k) {
      conflict = is_dirty(lane.writes[k]);
    }
    item.committed = !conflict;
    if (conflict) {
      ++res.aborts;
      // The retry re-plans from post-round state and may write anywhere in
      // its static neighborhood — poison all of it so no larger item whose
      // region overlaps can commit ahead of the retry.
      dirty[item.v] = round;
      for (const VertexId u : g.out_neighbors(item.v)) dirty[u] = round;
      for (const InEdge& ie : g.in_edges(item.v)) dirty[ie.src] = round;
    } else {
      ++res.commits;
      if (write_begin != item.write_end) {
        dirty[item.v] = round;
        for (std::uint32_t k = write_begin; k < item.write_end; ++k) {
          dirty[lane.writes[k]] = round;
        }
      }
    }
    read_begin = item.read_end;
    write_begin = item.write_end;
  }
}

}  // namespace ndg
