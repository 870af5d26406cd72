// Unit tests for the atomicity substrate: edge-data storage, slot encoding,
// per-edge locks, and the four access policies (Section III).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <type_traits>

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
  for (EdgeId e = 9; e < cap; ++e) {
    arr.slots()[e].store(~std::uint64_t{0}, std::memory_order_relaxed);
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

template <typename Policy>
void round_trip(Policy policy) {
  EdgeDataArray<PackedPair> arr(3, PackedPair{0, 0});
  policy.write(arr, 1, PackedPair{4.0f, 5.0f});
  const PackedPair got = policy.read(arr, 1);
  EXPECT_EQ(got.a, 4.0f);
  EXPECT_EQ(got.b, 5.0f);
  // Neighbouring slots untouched.
  EXPECT_EQ(policy.read(arr, 0).a, 0.0f);
  EXPECT_EQ(policy.read(arr, 2).b, 0.0f);
}

TEST(Policies, AlignedRoundTrip) { round_trip(AlignedAccess{}); }
TEST(Policies, RelaxedRoundTrip) { round_trip(RelaxedAtomicAccess{}); }
TEST(Policies, SeqCstRoundTrip) { round_trip(SeqCstAccess{}); }

TEST(Policies, LockedRoundTrip) {
  EdgeLockTable locks(3);
  round_trip(LockedAccess{&locks});
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
template <typename Policy>
void no_tearing(Policy policy) {
  EdgeDataArray<PackedPair> arr(1, PackedPair{1.0f, 10.0f});
  const PackedPair kA{1.0f, 10.0f};
  const PackedPair kB{2.0f, 20.0f};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  run_team(3, [&](std::size_t tid) {
    if (tid < 2) {
      const PackedPair mine = tid == 0 ? kA : kB;
      for (int i = 0; i < 30000 && !stop.load(); ++i) {
        policy.write(arr, 0, mine);
      }
      stop.store(true);
    } else {
      while (!stop.load()) {
        const PackedPair got = policy.read(arr, 0);
        const bool is_a = got.a == kA.a && got.b == kA.b;
        const bool is_b = got.a == kB.a && got.b == kB.b;
        if (!is_a && !is_b) torn.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0);
}

TEST(Policies, AlignedNeverTears) { no_tearing(AlignedAccess{}); }
TEST(Policies, RelaxedNeverTears) { no_tearing(RelaxedAtomicAccess{}); }
TEST(Policies, SeqCstNeverTears) { no_tearing(SeqCstAccess{}); }

TEST(Policies, LockedNeverTears) {
  EdgeLockTable locks(1);
  no_tearing(LockedAccess{&locks});
}

}  // namespace
}  // namespace ndg
