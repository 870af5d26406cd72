#pragma once
// The three atomicity-guaranteeing methods of Section III (plus a seq_cst
// ablation), expressed as interchangeable access policies over an
// EdgeDataArray. Engines are templated on the policy so the hot loop pays no
// per-access dispatch; the runtime AtomicityMode enum is resolved to a policy
// once per engine run (with_access_policy, at the end of this file).
//
//  * LockedAccess  — method (1): explicit per-edge lock around each read/write.
//  * AlignedAccess — method (2): plain loads/stores of one naturally aligned
//    4- or 8-byte word (the slot's own width, SlotWord<T>), relying on the
//    architecture transferring an aligned word atomically. NOTE: per the
//    C++ memory model this is a data race (formally UB); it is implemented
//    deliberately and only here, because reproducing the paper's method (2)
//    *is* the experiment (the paper leans on Boehm's "benign race" analysis
//    [19]). On x86-64/AArch64 an aligned 4- or 8-byte MOV/LDR is single-copy
//    atomic, and a naturally aligned word never straddles a cache line,
//    which is the property the paper exploits. The access is exactly the
//    slot's width, so a write never touches a neighbouring slot. Everything
//    else in this library is standard-conforming.
//  * RelaxedAtomicAccess — method (3): C++ std::atomic with
//    memory_order_relaxed ("the relaxed atomic primitives of C++").
//  * SeqCstAccess  — ablation: the maximally ordered atomic flavour, to
//    quantify what the paper's relaxed choice saves.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "atomics/edge_data.hpp"
#include "atomics/lock_table.hpp"
#include "util/types.hpp"

namespace ndg {

/// Runtime selector for the policy set below.
enum class AtomicityMode {
  kLocked,   // Section III method (1)
  kAligned,  // Section III method (2)
  kRelaxed,  // Section III method (3)
  kSeqCst,   // ablation
};

[[nodiscard]] const char* to_string(AtomicityMode mode);

/// Inverse of to_string; throws std::invalid_argument on any other spelling
/// (a typo must not silently run relaxed).
[[nodiscard]] AtomicityMode parse_atomicity_mode(std::string_view name);

// Beyond single reads/writes, each policy also provides two read-modify-write
// primitives, used by push-mode algorithms (the paper's §VII future work):
//   exchange(a, e, v)      — swap in v, return the old value (drain);
//   accumulate(a, e, fn)   — atomically replace x with fn(x) (combine).
// Lock/atomic policies make these atomic; AlignedAccess CANNOT — an aligned
// plain word gives atomic loads and stores but no atomic RMW, which is
// exactly why the paper's method (2) suffices for Lemmas 1 & 2 yet cannot
// rescue an accumulate-style algorithm (see algorithms/push_pagerank*.hpp).

struct AlignedAccess {
  /// Method (2) gives atomic individual loads/stores only — no atomic RMW
  /// (see analysis/static_eligibility.hpp, which rejects RMW manifests
  /// paired with this policy at compile time).
  static constexpr bool kAtomicRmw = false;

  template <EdgePod T>
  [[nodiscard]] T read(const EdgeDataArray<T>& a, EdgeId e) const {
    // Plain load through the raw word. Layout compatibility is asserted in
    // EdgeDataArray; see the file comment for why this intentional race exists.
    // NOLINTNEXTLINE(bugprone-casting-through-void): deliberate atomic->raw
    // reinterpretation — reproducing the paper's method (2) IS the experiment.
    const auto* raw = reinterpret_cast<const volatile SlotWord<T>*>(a.slots());
    return detail::from_slot<T>(raw[e]);
  }

  template <EdgePod T>
  void write(EdgeDataArray<T>& a, EdgeId e, T v) const {
    // NOLINTNEXTLINE(bugprone-casting-through-void): see read() above.
    auto* raw = reinterpret_cast<volatile SlotWord<T>*>(a.slots());
    raw[e] = detail::to_word(v);
  }

  /// NOT atomic: racing exchanges/accumulates can lose updates (the point of
  /// the push-mode counterexample).
  template <EdgePod T>
  T exchange(EdgeDataArray<T>& a, EdgeId e, T v) const {
    const T old = read(a, e);
    write(a, e, v);
    return old;
  }

  template <EdgePod T, typename Fn>
  void accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn) const {
    write(a, e, fn(read(a, e)));
  }
};

namespace detail {

/// Shared CAS-loop RMW for the two atomic policies, at the slot's width.
template <EdgePod T, typename Fn>
void atomic_accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn,
                       std::memory_order order) {
  auto& slot = a.slots()[e];
  SlotWord<T> cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(
      cur, to_word(fn(from_slot<T>(cur))), order, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

struct RelaxedAtomicAccess {
  static constexpr bool kAtomicRmw = true;  // CAS-loop accumulate, atomic exchange

  template <EdgePod T>
  [[nodiscard]] T read(const EdgeDataArray<T>& a, EdgeId e) const {
    return detail::from_slot<T>(a.slots()[e].load(std::memory_order_relaxed));
  }

  template <EdgePod T>
  void write(EdgeDataArray<T>& a, EdgeId e, T v) const {
    a.slots()[e].store(detail::to_word(v), std::memory_order_relaxed);
  }

  template <EdgePod T>
  T exchange(EdgeDataArray<T>& a, EdgeId e, T v) const {
    return detail::from_slot<T>(
        a.slots()[e].exchange(detail::to_word(v), std::memory_order_relaxed));
  }

  template <EdgePod T, typename Fn>
  void accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn) const {
    detail::atomic_accumulate(a, e, fn, std::memory_order_relaxed);
  }
};

struct SeqCstAccess {
  static constexpr bool kAtomicRmw = true;

  template <EdgePod T>
  [[nodiscard]] T read(const EdgeDataArray<T>& a, EdgeId e) const {
    return detail::from_slot<T>(a.slots()[e].load(std::memory_order_seq_cst));
  }

  template <EdgePod T>
  void write(EdgeDataArray<T>& a, EdgeId e, T v) const {
    a.slots()[e].store(detail::to_word(v), std::memory_order_seq_cst);
  }

  template <EdgePod T>
  T exchange(EdgeDataArray<T>& a, EdgeId e, T v) const {
    return detail::from_slot<T>(
        a.slots()[e].exchange(detail::to_word(v), std::memory_order_seq_cst));
  }

  template <EdgePod T, typename Fn>
  void accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn) const {
    detail::atomic_accumulate(a, e, fn, std::memory_order_seq_cst);
  }
};

struct LockedAccess {
  static constexpr bool kAtomicRmw = true;  // RMWs run under the edge lock

  EdgeLockTable* locks = nullptr;

  template <EdgePod T>
  [[nodiscard]] T read(const EdgeDataArray<T>& a, EdgeId e) const {
    EdgeLockGuard guard(*locks, e);
    return detail::from_slot<T>(a.slots()[e].load(std::memory_order_relaxed));
  }

  template <EdgePod T>
  void write(EdgeDataArray<T>& a, EdgeId e, T v) const {
    EdgeLockGuard guard(*locks, e);
    a.slots()[e].store(detail::to_word(v), std::memory_order_relaxed);
  }

  template <EdgePod T>
  T exchange(EdgeDataArray<T>& a, EdgeId e, T v) const {
    EdgeLockGuard guard(*locks, e);
    auto& slot = a.slots()[e];
    const T old = detail::from_slot<T>(slot.load(std::memory_order_relaxed));
    slot.store(detail::to_word(v), std::memory_order_relaxed);
    return old;
  }

  template <EdgePod T, typename Fn>
  void accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn) const {
    EdgeLockGuard guard(*locks, e);
    auto& slot = a.slots()[e];
    const T old = detail::from_slot<T>(slot.load(std::memory_order_relaxed));
    slot.store(detail::to_word(fn(old)), std::memory_order_relaxed);
  }
};

/// Resolves the runtime `mode` to its policy once per engine run and returns
/// f(policy). The kLocked lock table covers `num_edges` and lives exactly as
/// long as the call, as in the paper's patched GraphChi.
template <typename Fn>
auto with_access_policy(AtomicityMode mode, std::size_t num_edges, Fn&& f) {
  switch (mode) {
    case AtomicityMode::kLocked: {
      EdgeLockTable locks(num_edges);
      return f(LockedAccess{&locks});
    }
    case AtomicityMode::kAligned:
      return f(AlignedAccess{});
    case AtomicityMode::kSeqCst:
      return f(SeqCstAccess{});
    case AtomicityMode::kRelaxed:
      break;
  }
  return f(RelaxedAtomicAccess{});
}

}  // namespace ndg
