// Cross-validation of the two implementations of the paper's Section II
// model: the ScheduleOracle (engine/schedule_order.hpp) answers "is f(v) ≺
// f(u)?" symbolically; the SimMachine (engine/simulator.cpp) embeds the same
// rules operationally in its read-visibility logic. For every processor
// count, delay and update pair, a write by f(v) must be visible to a read by
// f(u) exactly when the oracle says f(v) ≺ f(u).

#include <gtest/gtest.h>

#include <numeric>

#include "engine/schedule_order.hpp"
#include "engine/simulator.hpp"

namespace ndg {
namespace {

constexpr std::uint64_t kCommitted = 7;
constexpr std::uint64_t kWritten = 42;

/// One write/read probe on a fresh single-edge machine.
bool machine_sees_write(std::size_t procs, std::size_t delay,
                        std::uint32_t writer_proc, std::uint32_t writer_slot,
                        std::uint32_t reader_proc, std::uint32_t reader_slot) {
  detail::SimMachine machine({kCommitted}, delay, /*jitter=*/0, /*seed=*/1);
  machine.begin_iteration(0);
  machine.write(0, kWritten, writer_proc, writer_slot);
  (void)procs;
  return machine.read(0, reader_proc, reader_slot) == kWritten;
}

TEST(ModelConsistency, SimulatorVisibilityMatchesOracleOrder) {
  constexpr VertexId kBlock = 4;
  for (const std::size_t procs : {2u, 3u}) {
    const VertexId n = static_cast<VertexId>(procs) * kBlock;
    std::vector<VertexId> frontier(n);
    std::iota(frontier.begin(), frontier.end(), 0);

    for (const std::size_t delay : {0u, 1u, 2u, 5u}) {
      const ScheduleOracle oracle(frontier, procs, delay);
      for (VertexId v = 0; v < n; ++v) {
        for (VertexId u = 0; u < n; ++u) {
          if (u == v) continue;
          const bool sees = machine_sees_write(
              procs, delay, static_cast<std::uint32_t>(oracle.proc(v)),
              static_cast<std::uint32_t>(oracle.pi(v)),
              static_cast<std::uint32_t>(oracle.proc(u)),
              static_cast<std::uint32_t>(oracle.pi(u)));
          const bool precedes = oracle.order(v, u) == UpdateOrder::kPrecedes;
          EXPECT_EQ(sees, precedes)
              << "P=" << procs << " d=" << delay << " v=" << v << " u=" << u
              << " (proc " << oracle.proc(v) << " slot " << oracle.pi(v)
              << " -> proc " << oracle.proc(u) << " slot " << oracle.pi(u)
              << ")";
        }
      }
    }
  }
}

TEST(ModelConsistency, ConcurrentPairsReadTheCommittedValue) {
  // ∥ pairs must observe the pre-iteration value (Lemma 1's "either old or
  // new" resolved to old, since the write is invisible inside the window).
  const std::size_t procs = 2;
  const std::size_t delay = 3;
  const ScheduleOracle oracle({0, 1, 2, 3, 4, 5}, procs, delay);
  for (VertexId v = 0; v < 6; ++v) {
    for (VertexId u = 0; u < 6; ++u) {
      if (u == v || oracle.order(v, u) != UpdateOrder::kConcurrent) continue;
      EXPECT_FALSE(machine_sees_write(
          procs, delay, static_cast<std::uint32_t>(oracle.proc(v)),
          static_cast<std::uint32_t>(oracle.pi(v)),
          static_cast<std::uint32_t>(oracle.proc(u)),
          static_cast<std::uint32_t>(oracle.pi(u))));
    }
  }
}

TEST(ModelConsistency, CommitAlwaysTakesAWrittenValue) {
  // Lemma 2 at the machine level: after two racing writes + commit, the edge
  // holds ONE of the two written values, for every seed.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    detail::SimMachine machine({kCommitted}, /*delay=*/4, /*jitter=*/0, seed);
    machine.begin_iteration(0);
    machine.write(0, 100, /*proc=*/0, /*slot=*/0);
    machine.write(0, 200, /*proc=*/1, /*slot=*/0);
    machine.commit();
    const std::uint64_t committed = machine.committed(0);
    EXPECT_TRUE(committed == 100 || committed == 200) << "seed=" << seed;
  }
}

TEST(ModelConsistency, BothCommitOutcomesOccurAcrossSeeds) {
  bool saw_100 = false;
  bool saw_200 = false;
  for (std::uint64_t seed = 0; seed < 64 && !(saw_100 && saw_200); ++seed) {
    detail::SimMachine machine({kCommitted}, 4, 0, seed);
    machine.begin_iteration(0);
    machine.write(0, 100, 0, 0);
    machine.write(0, 200, 1, 0);
    machine.commit();
    saw_100 = saw_100 || machine.committed(0) == 100;
    saw_200 = saw_200 || machine.committed(0) == 200;
  }
  EXPECT_TRUE(saw_100);
  EXPECT_TRUE(saw_200);  // the ∥ race genuinely goes both ways
}

}  // namespace
}  // namespace ndg
