#pragma once
// Double-buffered scheduling frontier implementing the task-generation rule of
// Section II: updates executed in iteration n schedule vertices into S_{n+1};
// at the barrier the next set becomes current.
//
// The current set has two representations (docs/PERF.md):
//
//   * sparse — the seed behaviour: an ascending vertex list, so engines apply
//     the paper's dispatch rule (static blocks per thread, small-label-first
//     within a thread) directly.
//   * dense  — a bitmap snapshot swept word-at-a-time. Engines partition the
//     words with the same static-block rule, so each thread still visits its
//     vertices in ascending label order and thread t's labels all precede
//     thread t+1's — the π(v) schedule shape is unchanged; only the cost of
//     materializing and walking S_n drops when most vertices are active.
//
// The representation is chosen per iteration in advance(): under kAuto the
// bitmap wins once |S_n| * dense_divisor > V (a bitmap sweep touches V/64
// words regardless of |S_n|, a list touches |S_n| entries; the crossover is a
// constant factor captured by the divisor).
//
// S_{n+1} is collected in a two-level schedule bitmap: next_ holds one bit per
// vertex and touched_ one bit per word of next_, set by whichever schedule()
// call activated that word first. advance() walks only the touched words, so
// the hand-off costs O(V/4096 + touched words + |S_{n+1}|), not O(V/64).

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/frontier_policy.hpp"
#include "util/bitset.hpp"
#include "util/types.hpp"

namespace ndg {

class Frontier {
 public:
  explicit Frontier(VertexId num_vertices,
                    FrontierPolicy policy = FrontierPolicy::kSparse,
                    std::size_t dense_divisor = 8);

  /// Seeds the *current* set (used once, before the first iteration).
  /// Duplicates are tolerated; the list is sorted and deduplicated.
  void seed(std::vector<VertexId> vertices);

  /// Adds v to the next iteration's set. Thread-safe; idempotent. Bits are
  /// only ever set before the barrier, so a plain load that finds v's bit
  /// already set skips the RMW; only the first activation of v's word pays
  /// a second RMW, on the summary bit.
  void schedule(VertexId v) {
    if (!next_.test(v) && next_.fetch_set(v) == 0) touched_.set(v >> 6);
  }

  /// Moves S_{n+1} into S_n and empties the schedule bitmap (single-threaded;
  /// call between barriers), choosing the representation for the new S_n.
  void advance();

  /// The vertices chosen for this iteration (S_n), ascending by label.
  /// Only valid in the sparse representation.
  [[nodiscard]] const std::vector<VertexId>& current() const {
    NDG_ASSERT(!dense_);
    return current_;
  }

  /// |S_n| regardless of representation.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// True when the current iteration's set is the bitmap.
  [[nodiscard]] bool dense() const { return dense_; }

  /// Word count of the dense bitmap (partitioning unit for dense sweeps).
  [[nodiscard]] std::size_t num_words() const { return bits_.num_words(); }

  /// Dense sweep over the word range [word_begin, word_end): calls fn(v) for
  /// every current vertex whose label / 64 lies in the range, ascending.
  /// Only valid in the dense representation.
  template <typename Fn>
  void for_each_in_words(std::size_t word_begin, std::size_t word_end,
                         Fn&& fn) const {
    NDG_ASSERT(dense_);
    bits_.for_each_in_words(word_begin, word_end, fn);
  }

  /// Whole-set traversal in ascending label order, either representation.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dense_) {
      bits_.for_each(fn);
    } else {
      for (const VertexId v : current_) fn(static_cast<std::size_t>(v));
    }
  }

  /// Appends the current vertices with label in [lo, hi) to out, ascending —
  /// the interval query the out-of-core engine runs per loaded interval.
  /// Works in either representation.
  void collect_range(VertexId lo, VertexId hi,
                     std::vector<VertexId>& out) const;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(next_.size());
  }
  [[nodiscard]] FrontierPolicy policy() const { return policy_; }

 private:
  /// True when a set of `count` vertices should use the bitmap.
  [[nodiscard]] bool want_dense(std::size_t count) const;

  AtomicBitset next_;     // S_{n+1}, one bit per vertex
  AtomicBitset touched_;  // one bit per word of next_ that holds a set bit
  // advance()'s working list: the (word index, bits) pairs taken from next_.
  std::vector<std::pair<std::size_t, std::uint64_t>> taken_;
  std::vector<VertexId> current_;  // sparse representation
  DenseBitset bits_;               // dense representation (copy of next_)
  std::size_t size_ = 0;
  bool dense_ = false;
  FrontierPolicy policy_ = FrontierPolicy::kSparse;
  std::size_t dense_divisor_ = 8;
};

}  // namespace ndg
