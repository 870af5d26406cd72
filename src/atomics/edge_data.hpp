#pragma once
// Per-edge algorithm data, stored out-of-band from the Graph topology and
// indexed by canonical edge id.
//
// The paper's Section III restricts edge data to structures that fit in one
// 8-byte, 8-byte-aligned machine word ("we align the edge data structures of
// the above algorithms to 8 bytes, such that they are stored in a single
// cache line"). We enforce that contract at compile time with the EdgePod
// concept, and store every edge datum in an 8-byte slot so that all three of
// the paper's atomicity methods (locking, aligned plain access, C++ atomics)
// can operate on the *same* storage.

#include <algorithm>
#include <atomic>
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

namespace detail {

template <EdgePod T>
inline std::uint64_t to_slot(T v) {
  std::uint64_t s = 0;
  std::memcpy(&s, &v, sizeof(T));
  return s;
}

template <EdgePod T>
inline T from_slot(std::uint64_t s) {
  T v;
  std::memcpy(&v, &s, sizeof(T));
  return v;
}

}  // namespace detail

template <EdgePod T>
class EdgeDataArray {
 public:
  using value_type = T;

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
    const std::uint64_t s = detail::to_slot(v);
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
    slots()[e].store(detail::to_slot(v), std::memory_order_relaxed);
  }

  /// Raw slot storage; the access policies in access_policy.hpp go through
  /// this. std::atomic<uint64_t> is lock-free and 8-byte aligned on every
  /// platform we target (checked below), which is what makes the paper's
  /// "architecture support" method possible. Storage is a plain-uint64 arena
  /// buffer (std::atomic is not trivially copyable, so it cannot live in a
  /// Buffer directly); the layout static_asserts below are what make this
  /// view the same game AlignedAccess already plays in the other direction.
  [[nodiscard]] std::atomic<std::uint64_t>* slots() {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(raw_.data());
  }
  [[nodiscard]] const std::atomic<std::uint64_t>* slots() const {
    return reinterpret_cast<const std::atomic<std::uint64_t>*>(raw_.data());
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
    const std::uint64_t s = detail::to_slot(init);
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
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "edge slots must be natively atomic");
  static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t) &&
                    alignof(std::atomic<std::uint64_t>) == alignof(std::uint64_t),
                "atomic slot layout must match raw uint64 for AlignedAccess");

  EdgeId size_ = 0;
  mem::Buffer<std::uint64_t> raw_;
};

}  // namespace ndg
