#pragma once
// Per-edge algorithm data, stored out-of-band from the Graph topology and
// indexed by canonical edge id.
//
// The paper's Section III needs one thing from an edge datum: it must fit
// one naturally aligned machine word, so that a single read or write of it
// is atomic (Lemmas 1 & 2). The paper's data happened to be 8 bytes ("we
// align the edge data structures of the above algorithms to 8 bytes, such
// that they are stored in a single cache line"). We enforce the contract at
// compile time with the EdgePod concept and store each datum in one slot of
// its natural width: a 4-byte word for data of at most 4 bytes (float,
// uint32_t), an 8-byte word otherwise. An aligned 4-byte word, like an
// aligned 8-byte one, never straddles a cache line, so Lemma 1's argument
// holds unchanged: the hardware moves it as one single-copy-atomic access,
// and a reader sees either the old or the new word, never a mix. All three
// of the paper's atomicity methods (locking, aligned plain access, C++
// atomics) operate on the *same* storage.
//
// Layers that keep their own copies of edge data (delay queues, the
// observer, fault injection, the simulator, the distributed machine, the
// OOC shard buffers) hold 64-bit *logical* words made by detail::to_slot and
// read back by detail::from_slot; they reach this array only through
// get()/set() or an access policy, never by assuming the slot width.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "mem/numa_arena.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace ndg {

/// Edge data must be trivially copyable and fit one machine word; this is the
/// precondition for Lemmas 1 & 2 (individual reads/writes can be atomic).
template <typename T>
concept EdgePod = std::is_trivially_copyable_v<T> && sizeof(T) <= 8;

/// The word an EdgeDataArray<T> stores each T in: 4 bytes when T fits,
/// 8 bytes otherwise. The one place the slot width is chosen.
template <EdgePod T>
using SlotWord =
    std::conditional_t<sizeof(T) <= 4, std::uint32_t, std::uint64_t>;

namespace detail {

/// T's bytes at the start of a zeroed Word. The default Word is the 64-bit
/// logical word the modelling layers keep; storage uses SlotWord<T>.
template <EdgePod T, typename Word = std::uint64_t>
inline Word to_slot(T v) {
  static_assert(sizeof(T) <= sizeof(Word));
  Word s = 0;
  std::memcpy(&s, &v, sizeof(T));
  return s;
}

/// Inverse of to_slot for either word width (deduced from the argument).
template <EdgePod T, typename Word>
inline T from_slot(Word s) {
  static_assert(sizeof(T) <= sizeof(Word));
  T v;
  std::memcpy(&v, &s, sizeof(T));
  return v;
}

/// T in its storage word, SlotWord<T>.
template <EdgePod T>
inline SlotWord<T> to_word(T v) {
  return to_slot<T, SlotWord<T>>(v);
}

}  // namespace detail

template <EdgePod T>
class EdgeDataArray {
 public:
  using value_type = T;
  using Word = SlotWord<T>;

  EdgeDataArray() = default;

  /// `spec` places the slot array (hugepages / NUMA — docs/PERF.md): the
  /// random gather reads into this array are the dominant misses of pull-mode
  /// programs, so it gets the same placement controls as the topology.
  explicit EdgeDataArray(EdgeId n, T init = T{}, const MemSpec& spec = {})
      : size_(n), raw_(n, spec) {
    fill(init);
  }

  [[nodiscard]] EdgeId size() const { return size_; }

  void fill(T v) {
    const Word s = detail::to_word(v);
    for (EdgeId e = 0; e < size_; ++e) {
      slots()[e].store(s, std::memory_order_relaxed);
    }
  }

  /// Unsynchronized accessors for single-threaded phases (init, verification).
  [[nodiscard]] T get(EdgeId e) const {
    NDG_ASSERT(e < size_);
    return detail::from_slot<T>(slots()[e].load(std::memory_order_relaxed));
  }
  void set(EdgeId e, T v) {
    NDG_ASSERT(e < size_);
    slots()[e].store(detail::to_word(v), std::memory_order_relaxed);
  }

  /// Raw slot storage; the access policies in access_policy.hpp go through
  /// this, and nothing outside src/atomics/ may (tools/ndg_lint.py).
  /// std::atomic<Word> is lock-free and aligned to its own size on every
  /// platform we target (checked below), which is what makes the paper's
  /// "architecture support" method possible. Storage is a plain-Word arena
  /// buffer (std::atomic is not trivially copyable, so it cannot live in a
  /// Buffer directly); the layout static_asserts below are what make this
  /// view the same game AlignedAccess already plays in the other direction.
  [[nodiscard]] std::atomic<Word>* slots() {
    return reinterpret_cast<std::atomic<Word>*>(raw_.data());
  }
  [[nodiscard]] const std::atomic<Word>* slots() const {
    return reinterpret_cast<const std::atomic<Word>*>(raw_.data());
  }

  /// Grows the slot array to `n` edges, preserving existing data (edge ids
  /// are stable across growth). New slots hold `init`. The slot array keeps
  /// a capacity apart from its size: growth within capacity only initialises
  /// slots [size, n) in place, and growth past it reallocates once, to
  /// max(n, capacity + capacity/2), so a stream of epochs that each add a few
  /// edge ids costs O(new ids) amortised rather than a copy of every slot
  /// per epoch. The sized constructor and clone() allocate exactly.
  /// Shrinking is a no-op: the dynamic-graph layer only ever retires ids at
  /// compaction, which rebuilds the array wholesale at exact size. Callers
  /// must be quiescent (no concurrent readers/writers) — growth happens
  /// between epochs in src/dyn/.
  void resize(EdgeId n, T init = T{}) {
    if (n <= size_) return;
    if (n > capacity()) {
      raw_ = raw_.resized(std::max<EdgeId>(n, capacity() + capacity() / 2));
    }
    const Word s = detail::to_word(init);
    for (EdgeId e = size_; e < n; ++e) {
      slots()[e].store(s, std::memory_order_relaxed);
    }
    size_ = n;
  }

  /// Slots allocated; size() <= capacity(). Only resize() leaves slack.
  [[nodiscard]] EdgeId capacity() const { return raw_.size(); }

  /// Deep copy (used by the BSP engine's double buffering and by the
  /// result-variance experiments to snapshot runs). Keeps the placement spec.
  [[nodiscard]] EdgeDataArray clone() const {
    EdgeDataArray copy(size_, T{}, raw_.spec());
    for (EdgeId e = 0; e < size_; ++e) {
      copy.slots()[e].store(slots()[e].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    return copy;
  }

 private:
  static_assert(std::atomic<Word>::is_always_lock_free,
                "edge slots must be natively atomic");
  static_assert(sizeof(std::atomic<Word>) == sizeof(Word) &&
                    alignof(std::atomic<Word>) == alignof(Word) &&
                    alignof(Word) == sizeof(Word),
                "atomic slot layout must match a naturally aligned raw word "
                "for AlignedAccess");

  EdgeId size_ = 0;
  mem::Buffer<Word> raw_;
};

}  // namespace ndg
