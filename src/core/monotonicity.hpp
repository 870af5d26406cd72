#pragma once
// Monotonicity checker: verifies the Theorem 2 premise empirically.
//
// Theorem 2 requires the algorithm's computing results to "monotonically
// increase or decrease, but not both" (the paper's ref. [23]). The checker
// observes every committed edge write during an instrumented deterministic
// run, projects each edge datum to a double via the program's projection, and
// records whether any write increased and whether any write decreased its
// edge's previous value. Monotone algorithms (WCC: labels only shrink; SSSP /
// BFS: distances only shrink) pass; fixed-point value iterations (PageRank)
// oscillate and fail — which is exactly why they need Theorem 1 instead.

#include <cstdint>
#include <vector>

#include "engine/observer.hpp"
#include "util/types.hpp"

namespace ndg {

class MonotonicityChecker final : public AccessObserver {
 public:
  /// Decodes a 64-bit logical edge word (detail::to_slot) to the comparable
  /// value.
  using Projection = double (*)(std::uint64_t slot_value);

  enum class Direction { kConstant, kNonIncreasing, kNonDecreasing, kNone };

  MonotonicityChecker(EdgeId num_edges, Projection projection);

  /// Records the pre-run value of an edge so the first write is compared
  /// against the algorithm's initialization (e.g. WCC's "infinite" label).
  void set_baseline(EdgeId e, std::uint64_t slot_value);

  void on_write(EdgeId e, VertexId writer, std::uint32_t iteration,
                std::uint64_t slot_value) override;

  [[nodiscard]] std::uint64_t increases() const { return increases_; }
  [[nodiscard]] std::uint64_t decreases() const { return decreases_; }
  [[nodiscard]] Direction direction() const;
  [[nodiscard]] bool monotonic() const {
    return increases_ == 0 || decreases_ == 0;
  }

 private:
  Projection projection_;
  std::vector<double> last_;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;
};

}  // namespace ndg
