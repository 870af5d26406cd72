// Worklist subsystem tests (src/sched/): per-implementation semantics plus
// the invariant every implementation must keep under contention — each pushed
// item is popped EXACTLY once, by some thread. The contention tests run under
// the NDG_TSAN CI job, so they double as the data-race proof for the
// worklists themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sched/bucket.hpp"
#include "sched/scheduler_kind.hpp"
#include "sched/static_block.hpp"
#include "sched/stealing.hpp"
#include "sched/worklist.hpp"
#include "util/barrier.hpp"
#include "util/thread_team.hpp"

namespace ndg {
namespace {

TEST(SchedulerKind, ParseRoundTrips) {
  for (const SchedulerKind k :
       {SchedulerKind::kStaticBlock, SchedulerKind::kStealing,
        SchedulerKind::kBucket}) {
    const auto parsed = parse_scheduler(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_scheduler("omp").has_value());
  EXPECT_FALSE(parse_scheduler("").has_value());
}

TEST(SchedulingPriority, DefaultsToZeroWithoutHook) {
  struct NoPriority {};
  struct WithPriority {
    [[nodiscard]] std::uint64_t priority(VertexId v) const { return v + 7; }
  };
  EXPECT_EQ(scheduling_priority(NoPriority{}, 3), 0u);
  EXPECT_EQ(scheduling_priority(WithPriority{}, 3), 10u);
}

TEST(StaticBlockWorklist, FifoPerThreadAndAutoReset) {
  StaticBlockWorklist wl(2);
  wl.push(0, 10);
  wl.push(0, 11);
  wl.push(1, 20);
  wl.publish(0);
  wl.publish(1);

  VertexId v = 0;
  ASSERT_TRUE(wl.try_pop(0, v));
  EXPECT_EQ(v, 10u);
  ASSERT_TRUE(wl.try_pop(0, v));
  EXPECT_EQ(v, 11u);
  EXPECT_FALSE(wl.try_pop(0, v));  // thread 0 never sees thread 1's items
  ASSERT_TRUE(wl.try_pop(1, v));
  EXPECT_EQ(v, 20u);
  EXPECT_FALSE(wl.try_pop(1, v));

  // The failed pop reset the queue: a refill starts clean.
  wl.push(0, 30);
  ASSERT_TRUE(wl.try_pop(0, v));
  EXPECT_EQ(v, 30u);

  const WorklistStats s = wl.stats();
  EXPECT_EQ(s.pushes, 4u);
  EXPECT_EQ(s.pops, 4u);
  EXPECT_EQ(s.steals, 0u);
}

TEST(StealingWorklist, SingleThreadDrainsInPushOrder) {
  StealingWorklist wl(1, /*chunk_size=*/4);
  for (VertexId v = 0; v < 10; ++v) wl.push(0, v);
  wl.publish(0);

  std::vector<VertexId> popped;
  VertexId v = 0;
  while (wl.try_pop(0, v)) popped.push_back(v);
  // Owner pops front chunks first and walks each chunk in order: FIFO.
  std::vector<VertexId> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(wl.stats().pops, 10u);
}

TEST(StealingWorklist, ImbalancedSeedingTriggersStealsExactlyOnce) {
  constexpr std::size_t kThreads = 4;
  constexpr VertexId kItems = 50000;
  StealingWorklist wl(kThreads, /*chunk_size=*/32);
  // All the work lands on thread 0 — the skewed-frontier scenario.
  for (VertexId v = 0; v < kItems; ++v) wl.push(0, v);
  wl.publish(0);

  std::vector<std::atomic<std::uint32_t>> pop_count(kItems);
  SpinBarrier start(kThreads);  // without it thread 0 drains before the
                                // thieves even spawn and steals stay 0
  run_team(kThreads, [&](std::size_t tid) {
    bool sense = false;
    start.arrive_and_wait(sense);
    VertexId v = 0;
    while (wl.try_pop(tid, v)) {
      pop_count[v].fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (VertexId v = 0; v < kItems; ++v) {
    ASSERT_EQ(pop_count[v].load(), 1u) << "item " << v;
  }
  const WorklistStats s = wl.stats();
  EXPECT_EQ(s.pushes, kItems);
  EXPECT_EQ(s.pops, kItems);
  EXPECT_GT(s.steals, 0u);
  EXPECT_GE(s.steal_attempts, s.steals);
}

TEST(StealingWorklist, ConcurrentProducersConsumersExactlyOnce) {
  constexpr std::size_t kThreads = 4;
  constexpr VertexId kPerThread = 20000;
  StealingWorklist wl(kThreads, /*chunk_size=*/16);
  std::vector<std::atomic<std::uint32_t>> pop_count(kThreads * kPerThread);

  // Each thread interleaves producing its own range with consuming whatever
  // is reachable, then drains until nothing is left anywhere.
  run_team(kThreads, [&](std::size_t tid) {
    VertexId v = 0;
    for (VertexId i = 0; i < kPerThread; ++i) {
      wl.push(tid, static_cast<VertexId>(tid * kPerThread + i));
      if (i % 3 == 0 && wl.try_pop(tid, v)) {
        pop_count[v].fetch_add(1, std::memory_order_relaxed);
      }
    }
    wl.publish(tid);
    while (wl.try_pop(tid, v)) {
      pop_count[v].fetch_add(1, std::memory_order_relaxed);
    }
  });

  // No concurrent producers remain after the team joins, so a final drain by
  // one thread reaches anything the per-thread exits left behind.
  VertexId v = 0;
  while (wl.try_pop(0, v)) pop_count[v].fetch_add(1, std::memory_order_relaxed);

  for (std::size_t i = 0; i < pop_count.size(); ++i) {
    ASSERT_EQ(pop_count[i].load(), 1u) << "item " << i;
  }
  const WorklistStats s = wl.stats();
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.pops, s.pushes);
}

TEST(BucketWorklist, PopsInNonDecreasingPriorityOrder) {
  BucketWorklist wl(1, /*num_buckets=*/16);
  // Priorities deliberately pushed out of order.
  const std::vector<std::uint64_t> prios = {9, 2, 14, 0, 7, 2, 9, 5, 0, 12};
  std::vector<std::uint64_t> prio_of(prios.size());
  for (VertexId v = 0; v < prios.size(); ++v) {
    prio_of[v] = prios[v];
    wl.push(0, v, prios[v]);
  }

  std::uint64_t last = 0;
  VertexId v = 0;
  std::size_t popped = 0;
  while (wl.try_pop(0, v)) {
    EXPECT_GE(prio_of[v], last) << "priority inversion at pop " << popped;
    last = prio_of[v];
    ++popped;
  }
  EXPECT_EQ(popped, prios.size());
}

TEST(BucketWorklist, ClampsOverflowPrioritiesToLastBucket) {
  BucketWorklist wl(1, /*num_buckets=*/4);
  wl.push(0, 1, /*prio=*/1u << 20);  // clamps to bucket 3
  wl.push(0, 2, /*prio=*/0);
  VertexId v = 0;
  ASSERT_TRUE(wl.try_pop(0, v));
  EXPECT_EQ(v, 2u);  // bucket 0 drains before the clamped item
  ASSERT_TRUE(wl.try_pop(0, v));
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(wl.try_pop(0, v));
}

TEST(BucketWorklist, ExactlyOnceUnderContention) {
  constexpr std::size_t kThreads = 4;
  constexpr VertexId kPerThread = 20000;
  BucketWorklist wl(kThreads, /*num_buckets=*/64);
  std::vector<std::atomic<std::uint32_t>> pop_count(kThreads * kPerThread);

  run_team(kThreads, [&](std::size_t tid) {
    VertexId v = 0;
    for (VertexId i = 0; i < kPerThread; ++i) {
      const auto item = static_cast<VertexId>(tid * kPerThread + i);
      wl.push(tid, item, item % 97);  // spread across (and beyond) buckets
      if (i % 2 == 0 && wl.try_pop(tid, v)) {
        pop_count[v].fetch_add(1, std::memory_order_relaxed);
      }
    }
    while (wl.try_pop(tid, v)) {
      pop_count[v].fetch_add(1, std::memory_order_relaxed);
    }
  });
  VertexId v = 0;
  while (wl.try_pop(0, v)) pop_count[v].fetch_add(1, std::memory_order_relaxed);

  for (std::size_t i = 0; i < pop_count.size(); ++i) {
    ASSERT_EQ(pop_count[i].load(), 1u) << "item " << i;
  }
  const WorklistStats s = wl.stats();
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.pops, s.pushes);
}

}  // namespace
}  // namespace ndg
