// Unit tests for the atomicity substrate: edge-data storage, slot encoding,
// per-edge locks, and the four access policies (Section III).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "algorithms/dual_edge.hpp"
#include "algorithms/sssp.hpp"
#include "atomics/access_policy.hpp"
#include "atomics/edge_data.hpp"
#include "atomics/lock_table.hpp"
#include "util/thread_team.hpp"

namespace ndg {
namespace {

struct PackedPair {
  float a;
  float b;
};
static_assert(EdgePod<PackedPair>);
static_assert(EdgePod<float>);
static_assert(EdgePod<std::uint32_t>);
static_assert(EdgePod<std::uint64_t>);

/// Each slot is one naturally aligned word of its datum's width: 4 bytes for
/// 4-byte data, 8 for the rest, lock-free either way.
template <typename T, typename Word>
constexpr bool kSlotIs =
    std::is_same_v<SlotWord<T>, Word> &&
    std::is_same_v<typename EdgeDataArray<T>::Word, Word> &&
    sizeof(std::atomic<Word>) == sizeof(Word) &&
    alignof(std::atomic<Word>) == sizeof(Word) &&
    std::atomic<Word>::is_always_lock_free;
static_assert(kSlotIs<float, std::uint32_t>);
static_assert(kSlotIs<std::uint32_t, std::uint32_t>);
static_assert(kSlotIs<SsspEdge, std::uint64_t>);
static_assert(kSlotIs<DualEdge, std::uint64_t>);
static_assert(kSlotIs<PackedPair, std::uint64_t>);

/// Bitwise equality for edge data without operator==.
template <EdgePod T>
bool same_bits(T a, T b) {
  return detail::to_slot(a) == detail::to_slot(b);
}

TEST(EdgeData, SlotRoundTripFloat) {
  const float v = 3.25f;
  EXPECT_EQ(detail::from_slot<float>(detail::to_slot(v)), v);
}

TEST(EdgeData, SlotRoundTripStruct) {
  const PackedPair p{1.5f, -2.0f};
  const PackedPair q = detail::from_slot<PackedPair>(detail::to_slot(p));
  EXPECT_EQ(q.a, p.a);
  EXPECT_EQ(q.b, p.b);
}

TEST(EdgeData, FillAndGetSet) {
  EdgeDataArray<float> arr(10, 7.0f);
  for (EdgeId e = 0; e < 10; ++e) EXPECT_EQ(arr.get(e), 7.0f);
  arr.set(3, 1.0f);
  EXPECT_EQ(arr.get(3), 1.0f);
  arr.fill(0.0f);
  EXPECT_EQ(arr.get(3), 0.0f);
  EXPECT_EQ(arr.size(), 10u);
}

TEST(EdgeData, CloneIsDeepCopy) {
  EdgeDataArray<std::uint32_t> arr(4, 9);
  EdgeDataArray<std::uint32_t> copy = arr.clone();
  arr.set(0, 1);
  EXPECT_EQ(copy.get(0), 9u);
  EXPECT_EQ(arr.get(0), 1u);
}

TEST(EdgeData, GrowthKeepsContentsAndInitialisesNewSlots) {
  EdgeDataArray<std::uint32_t> arr(5, 3);
  for (EdgeId e = 0; e < 5; ++e) arr.set(e, static_cast<std::uint32_t>(e));
  arr.resize(12, 77);
  ASSERT_EQ(arr.size(), 12u);
  EXPECT_GE(arr.capacity(), 12u);
  for (EdgeId e = 0; e < 5; ++e) EXPECT_EQ(arr.get(e), e);
  for (EdgeId e = 5; e < 12; ++e) EXPECT_EQ(arr.get(e), 77u);
  arr.resize(4, 9);  // shrinking is a no-op
  EXPECT_EQ(arr.size(), 12u);
  EXPECT_EQ(arr.get(3), 3u);
}

TEST(EdgeData, GrowthWithinCapacityInitialisesInPlace) {
  EdgeDataArray<float> arr(8, 1.0f);
  arr.resize(9, 2.0f);  // past the exact-size capacity: one reallocation
  const EdgeId cap = arr.capacity();
  ASSERT_GT(cap, 9u);
  arr.set(0, -1.0f);
  const auto* slots = arr.slots();
  // Dirty the spare slots through the raw storage: growth must overwrite
  // them with `init`, not expose what was left there.
  using Word = EdgeDataArray<float>::Word;
  for (EdgeId e = 9; e < cap; ++e) {
    arr.slots()[e].store(~Word{0}, std::memory_order_relaxed);
  }
  arr.resize(cap, 4.0f);
  EXPECT_EQ(arr.slots(), slots);
  EXPECT_EQ(arr.capacity(), cap);
  EXPECT_EQ(arr.get(0), -1.0f);
  for (EdgeId e = 1; e < 8; ++e) EXPECT_EQ(arr.get(e), 1.0f);
  EXPECT_EQ(arr.get(8), 2.0f);
  for (EdgeId e = 9; e < cap; ++e) EXPECT_EQ(arr.get(e), 4.0f);
}

TEST(EdgeData, SingleSlotGrowthReallocatesGeometrically) {
  constexpr EdgeId kStart = 1000;
  EdgeDataArray<std::uint64_t> arr(kStart, 0);
  ASSERT_EQ(arr.capacity(), kStart);
  int reallocations = 0;
  const auto* slots = arr.slots();
  for (EdgeId n = kStart + 1; n <= 2 * kStart; ++n) {
    arr.resize(n, n);
    if (arr.slots() != slots) {
      ++reallocations;
      slots = arr.slots();
    }
    ASSERT_EQ(arr.get(n - 1), n);
  }
  EXPECT_LE(reallocations, 2);
  for (EdgeId e = kStart; e < 2 * kStart; ++e) ASSERT_EQ(arr.get(e), e + 1);
}

TEST(EdgeData, CloneIsExactSize) {
  EdgeDataArray<std::uint32_t> arr(100, 5);
  arr.resize(101, 6);
  ASSERT_GT(arr.capacity(), arr.size());
  const EdgeDataArray<std::uint32_t> copy = arr.clone();
  EXPECT_EQ(copy.size(), 101u);
  EXPECT_EQ(copy.capacity(), 101u);
  EXPECT_EQ(copy.get(99), 5u);
  EXPECT_EQ(copy.get(100), 6u);
}

TEST(MemBuffer, ResizedCopiesPrefixAndZeroesTail) {
  constexpr std::size_t kN = 4096;
  for (const MemPolicy policy : {MemPolicy::kDefault, MemPolicy::kHugepage}) {
    const MemSpec spec{.policy = policy};
    {
      // Leave dirty memory behind for the allocator to hand out again.
      mem::Buffer<std::uint64_t> dirty(kN, spec);
      for (std::uint64_t& x : dirty) x = ~std::uint64_t{0};
    }
    mem::Buffer<std::uint64_t> small(5, spec);
    for (std::size_t i = 0; i < small.size(); ++i) small[i] = i + 1;
    const mem::Buffer<std::uint64_t> grown = small.resized(kN);
    ASSERT_EQ(grown.size(), kN);
    EXPECT_EQ(grown.spec().policy, policy);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(grown[i], i + 1);
    for (std::size_t i = 5; i < kN; ++i) ASSERT_EQ(grown[i], 0u) << i;
    const mem::Buffer<std::uint64_t> shrunk = grown.resized(3);
    ASSERT_EQ(shrunk.size(), 3u);
    EXPECT_EQ(shrunk[2], 3u);
  }
}

TEST(LockTable, LockUnlockSingleThread) {
  EdgeLockTable locks(4);
  locks.lock(2);
  locks.unlock(2);
  {
    EdgeLockGuard guard(locks, 2);
  }
  locks.lock(2);  // reacquirable after guard released
  locks.unlock(2);
}

TEST(LockTable, MutualExclusionUnderContention) {
  EdgeLockTable locks(1);
  // A non-atomic counter is only correct if the lock actually excludes.
  std::int64_t counter = 0;
  constexpr int kPerThread = 20000;
  run_team(4, [&](std::size_t) {
    for (int i = 0; i < kPerThread; ++i) {
      EdgeLockGuard guard(locks, 0);
      counter += 1;
    }
  });
  EXPECT_EQ(counter, 4 * kPerThread);
}

TEST(AtomicityMode, Names) {
  EXPECT_STREQ(to_string(AtomicityMode::kLocked), "locked");
  EXPECT_STREQ(to_string(AtomicityMode::kAligned), "aligned");
  EXPECT_STREQ(to_string(AtomicityMode::kRelaxed), "relaxed");
  EXPECT_STREQ(to_string(AtomicityMode::kSeqCst), "seq_cst");
}

TEST(AtomicityMode, ParseRoundTripsAndRejectsUnknown) {
  for (const AtomicityMode m : {AtomicityMode::kLocked, AtomicityMode::kAligned,
                                AtomicityMode::kRelaxed,
                                AtomicityMode::kSeqCst}) {
    EXPECT_EQ(parse_atomicity_mode(to_string(m)), m) << to_string(m);
  }
  // A typo must fail loudly, not fall back to relaxed.
  for (const char* bad : {"lockd", "", "Relaxed", "seqcst", "relaxed "}) {
    EXPECT_THROW((void)parse_atomicity_mode(bad), std::invalid_argument)
        << '"' << bad << '"';
  }
}

template <typename Policy, EdgePod T>
void round_trip(Policy policy, T init, T value) {
  EdgeDataArray<T> arr(3, init);
  policy.write(arr, 1, value);
  EXPECT_TRUE(same_bits(policy.read(arr, 1), value));
  // Neighbouring slots untouched.
  EXPECT_TRUE(same_bits(policy.read(arr, 0), init));
  EXPECT_TRUE(same_bits(policy.read(arr, 2), init));
}

template <typename Policy>
void round_trip(Policy policy) {
  round_trip(policy, PackedPair{0, 0}, PackedPair{4.0f, 5.0f});
}

/// Nonzero neighbours, so a write wider than the slot shows as a changed
/// neighbour.
template <typename Policy>
void round_trip_4byte(Policy policy) {
  round_trip(policy, 1.25f, -4.5f);
  round_trip(policy, std::uint32_t{0x5a5a5a5a}, std::uint32_t{0xdeadbeef});
}

TEST(Policies, AlignedRoundTrip) { round_trip(AlignedAccess{}); }
TEST(Policies, RelaxedRoundTrip) { round_trip(RelaxedAtomicAccess{}); }
TEST(Policies, SeqCstRoundTrip) { round_trip(SeqCstAccess{}); }

TEST(Policies, LockedRoundTrip) {
  EdgeLockTable locks(3);
  round_trip(LockedAccess{&locks});
}

TEST(Policies, AlignedRoundTrip4Byte) { round_trip_4byte(AlignedAccess{}); }
TEST(Policies, RelaxedRoundTrip4Byte) {
  round_trip_4byte(RelaxedAtomicAccess{});
}
TEST(Policies, SeqCstRoundTrip4Byte) { round_trip_4byte(SeqCstAccess{}); }

TEST(Policies, LockedRoundTrip4Byte) {
  EdgeLockTable locks(3);
  round_trip_4byte(LockedAccess{&locks});
}

/// with_access_policy is the one place the runtime mode becomes a policy
/// type. Every policy reaches the same fixed points on eligible programs, so
/// a swapped mapping (kAligned -> RelaxedAtomicAccess, say) would pass every
/// engine test; only this one sees it.
template <typename Expected>
void expect_policy_for(AtomicityMode mode) {
  constexpr std::size_t kEdges = 37;
  int calls = 0;
  const int result = with_access_policy(mode, kEdges, [&](auto policy) {
    ++calls;
    EXPECT_TRUE((std::is_same_v<decltype(policy), Expected>))
        << to_string(mode);
    if constexpr (std::is_same_v<decltype(policy), LockedAccess>) {
      EXPECT_NE(policy.locks, nullptr);
      if (policy.locks != nullptr) {
        EXPECT_EQ(policy.locks->size(), kEdges);
      }
    }
    return 7;
  });
  EXPECT_EQ(calls, 1) << to_string(mode);
  EXPECT_EQ(result, 7) << to_string(mode);
}

TEST(Policies, WithAccessPolicyMapsEveryModeOnce) {
  expect_policy_for<LockedAccess>(AtomicityMode::kLocked);
  expect_policy_for<AlignedAccess>(AtomicityMode::kAligned);
  expect_policy_for<RelaxedAtomicAccess>(AtomicityMode::kRelaxed);
  expect_policy_for<SeqCstAccess>(AtomicityMode::kSeqCst);
}

/// Lemma 1/2 at the machine level: concurrent single-word writes never tear —
/// a reader always observes one of the written values, whole. Exercised for
/// every policy with two writers alternating between two sentinel values.
template <typename Policy, EdgePod T>
void no_tearing(Policy policy, T a, T b) {
  EdgeDataArray<T> arr(1, a);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  run_team(3, [&](std::size_t tid) {
    if (tid < 2) {
      const T mine = tid == 0 ? a : b;
      for (int i = 0; i < 30000 && !stop.load(); ++i) {
        policy.write(arr, 0, mine);
      }
      stop.store(true);
    } else {
      while (!stop.load()) {
        const T got = policy.read(arr, 0);
        if (!same_bits(got, a) && !same_bits(got, b)) torn.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0);
}

template <typename Policy>
void no_tearing(Policy policy) {
  no_tearing(policy, PackedPair{1.0f, 10.0f}, PackedPair{2.0f, 20.0f});
}

/// Every half of the two sentinels differs, so a read that mixed halves of
/// the two words would match neither.
template <typename Policy>
void no_tearing_4byte(Policy policy) {
  no_tearing(policy, std::uint32_t{0x1111eeee}, std::uint32_t{0xeeee1111});
}

TEST(Policies, AlignedNeverTears) { no_tearing(AlignedAccess{}); }
TEST(Policies, RelaxedNeverTears) { no_tearing(RelaxedAtomicAccess{}); }
TEST(Policies, SeqCstNeverTears) { no_tearing(SeqCstAccess{}); }

TEST(Policies, LockedNeverTears) {
  EdgeLockTable locks(1);
  no_tearing(LockedAccess{&locks});
}

TEST(Policies, AlignedNeverTears4Byte) { no_tearing_4byte(AlignedAccess{}); }
TEST(Policies, RelaxedNeverTears4Byte) {
  no_tearing_4byte(RelaxedAtomicAccess{});
}
TEST(Policies, SeqCstNeverTears4Byte) { no_tearing_4byte(SeqCstAccess{}); }

TEST(Policies, LockedNeverTears4Byte) {
  EdgeLockTable locks(1);
  no_tearing_4byte(LockedAccess{&locks});
}

/// Adjacent 4-byte slots share an 8-byte word. Two threads write slots 0 and
/// 1 concurrently, each with values tagged by its slot in the top byte,
/// until a third has read both slots kReads times. A policy that stored a
/// whole 8-byte word would zero or overwrite the neighbour, which the reader
/// sees as a foreign tag and the final values show as a lost write.
template <typename Policy>
void neighbour_isolation(Policy policy) {
  constexpr int kReads = 20000;
  const auto tagged = [](std::size_t slot, std::uint32_t i) {
    return static_cast<std::uint32_t>((slot + 1) << 24) | (i & 0xffffffu);
  };
  EdgeDataArray<std::uint32_t> arr(2);
  arr.set(0, tagged(0, 0));
  arr.set(1, tagged(1, 0));
  std::atomic<int> arrived{0};
  std::atomic<bool> stop{false};
  std::atomic<int> foreign{0};
  std::uint32_t last[2] = {0, 0};

  run_team(3, [&](std::size_t tid) {
    arrived.fetch_add(1);
    while (arrived.load() < 3) {
    }
    if (tid < 2) {
      std::uint32_t i = 0;
      do {
        policy.write(arr, tid, tagged(tid, ++i));
      } while (!stop.load(std::memory_order_relaxed));
      last[tid] = i;
      return;
    }
    for (int r = 0; r < kReads; ++r) {
      for (std::size_t slot = 0; slot < 2; ++slot) {
        if (policy.read(arr, slot) >> 24 != slot + 1) foreign.fetch_add(1);
      }
    }
    stop.store(true);
  });
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(arr.get(0), tagged(0, last[0]));
  EXPECT_EQ(arr.get(1), tagged(1, last[1]));
}

TEST(Policies, AlignedKeepsNeighbourSlots) {
  neighbour_isolation(AlignedAccess{});
}
TEST(Policies, RelaxedKeepsNeighbourSlots) {
  neighbour_isolation(RelaxedAtomicAccess{});
}
TEST(Policies, SeqCstKeepsNeighbourSlots) {
  neighbour_isolation(SeqCstAccess{});
}
TEST(Policies, LockedKeepsNeighbourSlots) {
  EdgeLockTable locks(2);
  neighbour_isolation(LockedAccess{&locks});
}

/// The atomic policies' accumulate is an exact RMW at the 4-byte width: no
/// increment is lost, and the neighbouring slot is never touched.
template <typename Policy>
void exact_accumulate_4byte(Policy policy) {
  constexpr std::uint32_t kPerThread = 20000;
  EdgeDataArray<std::uint32_t> arr(2, 0);
  arr.set(1, 0xabcdef01u);
  run_team(4, [&](std::size_t) {
    for (std::uint32_t i = 0; i < kPerThread; ++i) {
      policy.accumulate(arr, 0, [](std::uint32_t x) { return x + 1; });
    }
  });
  EXPECT_EQ(arr.get(0), 4 * kPerThread);
  EXPECT_EQ(arr.get(1), 0xabcdef01u);
}

TEST(Policies, RelaxedAccumulateIsExact4Byte) {
  exact_accumulate_4byte(RelaxedAtomicAccess{});
}
TEST(Policies, SeqCstAccumulateIsExact4Byte) {
  exact_accumulate_4byte(SeqCstAccess{});
}
TEST(Policies, LockedAccumulateIsExact4Byte) {
  EdgeLockTable locks(2);
  exact_accumulate_4byte(LockedAccess{&locks});
}

}  // namespace
}  // namespace ndg
