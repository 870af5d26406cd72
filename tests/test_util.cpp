// Unit tests for the utility substrate: PRNGs, stats, bitsets, barrier,
// static partitioning, CLI parsing, table formatting.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "util/barrier.hpp"
#include "util/bitset.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_team.hpp"

namespace ndg {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, XoshiroDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, RangedDoubleRespectsBounds) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double(1.0, 10.0);
    EXPECT_GE(d, 1.0);
    EXPECT_LT(d, 10.0);
  }
}

TEST(Stats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
}

TEST(DenseBitset, SetTestResetCount) {
  DenseBitset b(130);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DenseBitset, SetAllMasksTail) {
  DenseBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
}

TEST(DenseBitset, ForEachVisitsAscending) {
  DenseBitset b(200);
  b.set(5);
  b.set(63);
  b.set(64);
  b.set(199);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 63, 64, 199}));
}

TEST(AtomicBitset, SetReportsTransition) {
  AtomicBitset b(100);
  EXPECT_TRUE(b.set(42));
  EXPECT_FALSE(b.set(42));  // already set
  EXPECT_TRUE(b.test(42));
  EXPECT_EQ(b.count(), 1u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(AtomicBitset, ConcurrentSettersCountEachBitOnce) {
  constexpr std::size_t kBits = 4096;
  AtomicBitset b(kBits);
  std::atomic<std::size_t> transitions{0};
  run_team(4, [&](std::size_t) {
    std::size_t local = 0;
    for (std::size_t i = 0; i < kBits; ++i) {
      if (b.set(i)) ++local;
    }
    transitions.fetch_add(local);
  });
  EXPECT_EQ(static_cast<std::size_t>(transitions.load()), kBits);
  EXPECT_EQ(b.count(), kBits);
}

TEST(Barrier, RendezvousOrdersPhases) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::atomic<bool> failed{false};
  run_team(kThreads, [&](std::size_t) {
    bool sense = false;
    for (int r = 0; r < kRounds; ++r) {
      counter.fetch_add(1);
      barrier.arrive_and_wait(sense);
      // Between barriers every thread must observe the full round's count.
      if (counter.load() != kThreads * (r + 1)) failed.store(true);
      barrier.arrive_and_wait(sense);
    }
  });
  EXPECT_FALSE(failed.load());
}

TEST(StaticBlock, PartitionsExactlyAndContiguously) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
    for (const std::size_t nt : {1u, 2u, 3u, 8u, 16u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t t = 0; t < nt; ++t) {
        const auto [b, e] = static_block(n, nt, t);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(b, e);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(StaticBlock, BalancedWithinOne) {
  const std::size_t n = 103;
  const std::size_t nt = 8;
  std::size_t mn = n;
  std::size_t mx = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    const auto [b, e] = static_block(n, nt, t);
    mn = std::min(mn, e - b);
    mx = std::max(mx, e - b);
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--threads=8", "--eps=0.01", "--verbose",
                        "--name=web"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("threads", 1), 8);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 1.0), 0.01);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get("name", ""), "web");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  // Every line has the same width.
  std::istringstream lines(out);
  std::string line;
  std::set<std::size_t> widths;
  while (std::getline(lines, line)) widths.insert(line.size());
  EXPECT_EQ(widths.size(), 1u);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Table, ToJsonQuotesStringsAndKeepsNumbersBare) {
  TextTable t({"name", "count", "rate"});
  t.add_row({"alpha", "3", "0.25"});
  t.add_row({"be\"ta", "-7", "not-a-number"});
  const std::string json = t.to_json();
  EXPECT_EQ(json,
            "[{\"name\":\"alpha\",\"count\":3,\"rate\":0.25},"
            "{\"name\":\"be\\\"ta\",\"count\":-7,\"rate\":\"not-a-number\"}]");
}

TEST(Table, WriteJsonProducesManifest) {
  TextTable t({"k"});
  t.add_row({"1"});
  const std::string path = testing::TempDir() + "/ndg_table.json";
  t.write_json(path, "{\"experiment\":\"unit\"}");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content,
            "{\"config\":{\"experiment\":\"unit\"},\"rows\":[{\"k\":1}]}\n");
}

TEST(JsonEscape, HandlesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace ndg
