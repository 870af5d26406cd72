#pragma once
// Dense bitsets over vertex ids. Two flavours:
//   * DenseBitset     — single-writer, used by sequential engines.
//   * AtomicBitset    — multi-writer, used by the nondeterministic engine's
//                       next-iteration frontier (the task-generation rule of
//                       Section II is executed concurrently by all threads).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace ndg {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return num_bits_; }

  void set(std::size_t i) {
    NDG_ASSERT(i < num_bits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(std::size_t i) {
    NDG_ASSERT(i < num_bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  [[nodiscard]] bool test(std::size_t i) const {
    NDG_ASSERT(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  void set_all();

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool any() const;

  [[nodiscard]] std::size_t num_words() const { return words_.size(); }

  /// Overwrites word w (bits w*64 .. w*64+63) — how the frontier copies the
  /// touched words of its schedule bitmap into the dense representation.
  void set_word(std::size_t w, std::uint64_t bits) {
    NDG_ASSERT(w < words_.size());
    words_[w] = bits;
  }

  /// Calls fn(i) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_in_words(0, words_.size(), fn);
  }

  /// Calls fn(i) for every set bit whose word index lies in [word_begin,
  /// word_end), ascending — the unit the dense frontier partitions across
  /// threads (a word boundary is a vertex-label multiple of 64).
  template <typename Fn>
  void for_each_in_words(std::size_t word_begin, std::size_t word_end,
                         Fn&& fn) const {
    for (std::size_t w = word_begin; w < word_end; ++w) {
      std::uint64_t word = words_[w];
      while (word) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Calls fn(i) for every set bit in [lo, hi), ascending. Masks the partial
  /// boundary words so interval scans stay word-at-a-time.
  template <typename Fn>
  void for_each_in_range(std::size_t lo, std::size_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    const std::size_t wb = lo >> 6;
    const std::size_t we = (hi + 63) >> 6;
    for (std::size_t w = wb; w < we; ++w) {
      std::uint64_t word = words_[w];
      if (w == wb) word &= ~0ULL << (lo & 63);
      if (w == (hi - 1) >> 6 && (hi & 63) != 0) {
        word &= (1ULL << (hi & 63)) - 1;
      }
      while (word) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Number of set bits in [lo, hi).
  [[nodiscard]] std::size_t count_in_range(std::size_t lo,
                                           std::size_t hi) const {
    std::size_t n = 0;
    for_each_in_range(lo, hi, [&n](std::size_t) { ++n; });
    return n;
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

class AtomicBitset {
 public:
  AtomicBitset() = default;
  explicit AtomicBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64) {
    clear();
  }

  [[nodiscard]] std::size_t size() const { return num_bits_; }

  /// Sets bit i; returns true if this call changed it from 0 to 1.
  /// Acq_rel ordering: the release half makes everything the setter wrote
  /// before scheduling a vertex visible to whoever claims the bit with
  /// clear_bit() — the happens-before edge the pure-async engine relies on
  /// (barrier engines get the same edge from their barriers and don't care).
  /// The acquire half lets a 0->1 winner act as a lock acquisition, which the
  /// pure-async engine uses for its per-vertex running bit.
  bool set(std::size_t i) {
    NDG_ASSERT(i < num_bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    // fetch_or is idempotent under races: exactly one concurrent setter sees
    // the 0->1 transition, which lets callers count distinct activations.
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (prev & mask) == 0;
  }

  /// Sets bit i and returns its word's previous value. Exactly one concurrent
  /// setter sees 0: the word's first activation. Costs a CAS loop on x86,
  /// where set() compiles to a single locked bit-test-and-set.
  std::uint64_t fetch_set(std::size_t i) {
    NDG_ASSERT(i < num_bits_);
    return words_[i >> 6].fetch_or(1ULL << (i & 63),
                                   std::memory_order_acq_rel);
  }

  /// Clears bit i; returns true if this call changed it from 1 to 0 (i.e.
  /// the caller won the claim). Acq_rel: the acquire half pairs with set()'s
  /// release (claim sees the scheduler's writes), the release half publishes
  /// the claimer's writes to the next 0->1 winner (lock-release semantics for
  /// the running bit).
  bool clear_bit(std::size_t i) {
    NDG_ASSERT(i < num_bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_and(~mask, std::memory_order_acq_rel);
    return (prev & mask) != 0;
  }

  [[nodiscard]] bool test(std::size_t i) const {
    NDG_ASSERT(i < num_bits_);
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1ULL;
  }

  void clear() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t count() const;

  [[nodiscard]] std::size_t num_words() const { return words_.size(); }

  /// Returns word w and zeroes it. Single-threaded, between iterations:
  /// a barrier has ordered every set() before the caller, so plain relaxed
  /// accesses suffice (no RMW).
  std::uint64_t take_word(std::size_t w) {
    NDG_ASSERT(w < words_.size());
    const std::uint64_t bits = words_[w].load(std::memory_order_relaxed);
    if (bits != 0) words_[w].store(0, std::memory_order_relaxed);
    return bits;
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace ndg
