// IncrementalEngine acceptance tests (docs/DYNAMIC.md):
//
//   * PageRank (Theorem 1): a random insert/delete/reweight batch on an
//     R-MAT graph warm-starts, and the warm result converges to the cold
//     recompute's fixed point within the engines' run tolerance.
//   * SSSP / WCC (Theorem 2): monotone batches (inserts, weight decreases)
//     warm-start and land on the EXACT cold fixed point; a delete in the
//     batch makes the gate refuse warm start and recompute cold.
//   * Ineligible algorithm (push-mode atomic PageRank analyzes to
//     kNotProven): every batch is routed cold.
//   * All of the above across >= 2 atomicity policies, and compaction in the
//     middle of a stream keeps the warm state consistent.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/push_pagerank_atomic.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "dyn/dyn_graph.hpp"
#include "dyn/eligibility_gate.hpp"
#include "dyn/incremental.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ndg::dyn {
namespace {

constexpr VertexId kV = 256;

Graph base_graph() { return Graph::build(kV, gen::rmat(kV, 1400, 31)); }

EngineOptions make_opts(AtomicityMode mode) {
  EngineOptions opts;
  opts.num_threads = 4;
  opts.mode = mode;
  return opts;
}

/// A mixed batch over the current view: inserts of absent edges plus, when
/// allowed, deletes and weight INCREASES of present ones.
MutationBatch random_batch(const DynGraph& dg, std::uint64_t seed,
                           bool monotone_only, std::uint64_t epoch = 1) {
  MutationBatch batch;
  batch.epoch = epoch;
  SplitMix64 rng(seed);
  const EdgeList live = dg.live_edge_list();
  for (int i = 0; i < 120; ++i) {
    const auto u = static_cast<VertexId>(rng.next() % kV);
    const auto v = static_cast<VertexId>(rng.next() % kV);
    if (u == v) continue;
    if (!dg.has_edge(u, v)) {
      batch.mutations.push_back(
          Mutation{MutationKind::kInsertEdge, u, v,
                   1.0f + static_cast<float>(rng.next() % 8)});
    } else if (monotone_only) {
      // Weight DECREASE stays inside SSSP's monotone envelope (base weights
      // are >= 1, so 0.5 always decreases).
      batch.mutations.push_back(
          Mutation{MutationKind::kWeightChange, u, v, 0.5f});
    } else if (i % 2 == 0) {
      batch.mutations.push_back(Mutation{MutationKind::kDeleteEdge, u, v, 0});
    } else {
      batch.mutations.push_back(
          Mutation{MutationKind::kWeightChange, u, v,
                   1.0f + static_cast<float>(rng.next() % 16)});
    }
  }
  return batch;
}

class DynPolicies : public ::testing::TestWithParam<AtomicityMode> {};

// --- PageRank: Theorem 1 licenses warm start for ANY batch -----------------

TEST_P(DynPolicies, PageRankWarmMatchesColdWithinRunTolerance) {
  DynGraph dg(base_graph());
  PageRankProgram prog(/*epsilon=*/1e-4f);
  // Analyze path: core/eligibility must classify pull PageRank as Theorem 1.
  IncrementalEngine<PageRankProgram> inc(
      dg, prog, EligibilityGate::make(GateMode::kAnalyze, dg.base(), prog),
      make_opts(GetParam()));
  EXPECT_EQ(inc.gate().verdict(), EligibilityVerdict::kTheorem1);
  EXPECT_TRUE(inc.gate().analyzed());

  ASSERT_TRUE(inc.recompute_cold().converged);

  const MutationBatch batch = random_batch(dg, 77, /*monotone_only=*/false);
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_TRUE(r.warm);
  EXPECT_STREQ(r.gate_reason, "theorem-1");
  EXPECT_GT(r.apply_stats.applied, 50u);
  EXPECT_GT(r.seed_count, 0u);
  ASSERT_TRUE(r.engine.converged);
  const std::vector<float> warm = prog.ranks();

  ASSERT_TRUE(inc.recompute_cold().converged);
  const std::vector<float>& cold = prog.ranks();
  ASSERT_EQ(warm.size(), cold.size());
  for (VertexId v = 0; v < kV; ++v) {
    // Same bound the static NE-vs-reference tests use: local convergence
    // with threshold ε leaves each value within a small multiple of ε.
    EXPECT_NEAR(warm[v], cold[v], 0.05 * cold[v] + 0.01) << "v=" << v;
  }
  EXPECT_EQ(inc.warm_runs(), 1u);
}

// --- SSSP: Theorem 2, exact warm == cold for monotone batches --------------

TEST_P(DynPolicies, SsspWarmMatchesColdExactlyForMonotoneBatch) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  // Analyze path: SSSP satisfies BOTH theorems' premises; for warm-start
  // licensing the gate must prefer the Theorem 2 (monotone-envelope) route.
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate::make(GateMode::kAnalyze, dg.base(), prog),
      make_opts(GetParam()));
  EXPECT_EQ(inc.gate().verdict(), EligibilityVerdict::kTheorem2);

  ASSERT_TRUE(inc.recompute_cold().converged);

  const MutationBatch batch = random_batch(dg, 13, /*monotone_only=*/true);
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_TRUE(r.warm);
  EXPECT_STREQ(r.gate_reason, "theorem-2-monotone-batch");
  ASSERT_TRUE(r.engine.converged);
  const std::vector<float> warm = prog.distances();

  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(warm, prog.distances());  // exact, bit-for-bit
}

TEST_P(DynPolicies, SsspDeleteForcesColdRecompute) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(GetParam()));
  ASSERT_TRUE(inc.recompute_cold().converged);
  const std::uint64_t cold_before = inc.cold_runs();

  const EdgeList live = dg.live_edge_list();
  MutationBatch batch;
  batch.epoch = 1;
  batch.mutations.push_back(Mutation{MutationKind::kInsertEdge, 1, 250, 2.0f});
  batch.mutations.push_back(
      Mutation{MutationKind::kDeleteEdge, live[5].src, live[5].dst, 0});
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_FALSE(r.warm);
  EXPECT_STREQ(r.gate_reason, "non-monotone-mutation");
  ASSERT_TRUE(r.engine.converged);
  EXPECT_EQ(inc.cold_runs(), cold_before + 1);
  EXPECT_EQ(inc.warm_runs(), 0u);

  // A weight INCREASE is equally outside the monotone envelope.
  MutationBatch up;
  up.epoch = 2;
  up.mutations.push_back(
      Mutation{MutationKind::kWeightChange, live[6].src, live[6].dst, 100.0f});
  const EpochResult r2 = inc.apply_epoch(up);
  EXPECT_FALSE(r2.warm);
  EXPECT_STREQ(r2.gate_reason, "non-monotone-mutation");
}

// --- WCC: Theorem 2, exact warm == cold for insert batches -----------------

TEST_P(DynPolicies, WccWarmMatchesColdExactlyForInsertBatch) {
  DynGraph dg(base_graph());
  WccProgram prog;
  IncrementalEngine<WccProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(GetParam()));
  ASSERT_TRUE(inc.recompute_cold().converged);

  MutationBatch batch;
  batch.epoch = 1;
  SplitMix64 rng(5);
  while (batch.mutations.size() < 80) {
    const auto u = static_cast<VertexId>(rng.next() % kV);
    const auto v = static_cast<VertexId>(rng.next() % kV);
    if (u != v && !dg.has_edge(u, v)) {
      batch.mutations.push_back(
          Mutation{MutationKind::kInsertEdge, u, v, 1.0f});
    }
  }
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_TRUE(r.warm);
  ASSERT_TRUE(r.engine.converged);
  const std::vector<std::uint32_t> warm = prog.labels();

  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(warm, prog.labels());  // exact, bit-for-bit
}

TEST_P(DynPolicies, WccDeleteForcesColdRecompute) {
  DynGraph dg(base_graph());
  WccProgram prog;
  IncrementalEngine<WccProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(GetParam()));
  ASSERT_TRUE(inc.recompute_cold().converged);
  const EdgeList live = dg.live_edge_list();
  MutationBatch batch;
  batch.epoch = 1;
  batch.mutations.push_back(
      Mutation{MutationKind::kDeleteEdge, live[0].src, live[0].dst, 0});
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_FALSE(r.warm);
  EXPECT_STREQ(r.gate_reason, "non-monotone-mutation");
  ASSERT_TRUE(r.engine.converged);

  // Post-cold state equals a from-scratch run on the mutated view.
  const std::vector<std::uint32_t> after = prog.labels();
  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(after, prog.labels());
}

// --- Ineligible algorithm: analyze -> kNotProven -> always cold ------------

TEST_P(DynPolicies, IneligibleAlgorithmAlwaysRecomputesCold) {
  DynGraph dg(base_graph());
  AtomicPushPageRankProgram prog(/*epsilon=*/1e-4f);
  IncrementalEngine<AtomicPushPageRankProgram> inc(
      dg, prog, EligibilityGate::make(GateMode::kAnalyze, dg.base(), prog),
      make_opts(GetParam()));
  EXPECT_EQ(inc.gate().verdict(), EligibilityVerdict::kNotProven);

  ASSERT_TRUE(inc.recompute_cold().converged);
  const std::uint64_t cold_before = inc.cold_runs();

  MutationBatch batch;
  batch.epoch = 1;
  batch.mutations.push_back(Mutation{MutationKind::kInsertEdge, 3, 200, 1.0f});
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_FALSE(r.warm);
  EXPECT_STREQ(r.gate_reason, "not-proven");
  EXPECT_EQ(inc.cold_runs(), cold_before + 1);
  EXPECT_EQ(inc.warm_runs(), 0u);
  EXPECT_TRUE(r.engine.converged);
}

TEST(DynIncremental, GateReportsBlockingMutationIndex) {
  SsspProgram prog(/*source=*/0);
  const EligibilityGate gate(EligibilityVerdict::kTheorem2);
  std::vector<AppliedMutation> applied;
  applied.push_back({MutationKind::kInsertEdge, 0, 1, 10, 1.0f, 1.0f});
  applied.push_back({MutationKind::kWeightChange, 1, 2, 3, 0.5f, 2.0f});
  applied.push_back({MutationKind::kDeleteEdge, 2, 3, 4, 0.0f, 1.0f});
  const GateDecision d = gate.decide(prog, applied);
  EXPECT_FALSE(d.warm);
  EXPECT_STREQ(d.reason, "non-monotone-mutation");
  EXPECT_EQ(d.blocking_mutation, 2u);

  applied.pop_back();
  const GateDecision ok = gate.decide(prog, applied);
  EXPECT_TRUE(ok.warm);
  EXPECT_STREQ(ok.reason, "theorem-2-monotone-batch");
}

// --- Streaming details -----------------------------------------------------

TEST(DynIncremental, EmptyBatchIsAFixedPointNoEngineRun) {
  DynGraph dg(base_graph());
  WccProgram prog;
  IncrementalEngine<WccProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(inc.recompute_cold().converged);
  const EpochResult r = inc.apply_epoch(MutationBatch{1, {}});
  EXPECT_TRUE(r.warm);
  EXPECT_STREQ(r.gate_reason, "empty-batch");
  EXPECT_TRUE(r.engine.converged);
  EXPECT_EQ(r.engine.iterations, 0u);
  EXPECT_EQ(inc.warm_runs(), 0u);
}

TEST(DynIncremental, CompactionMidStreamPreservesWarmState) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  gopts.compact_threshold = 0.01;  // compact after essentially every batch
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kSeqCst));
  ASSERT_TRUE(inc.recompute_cold().converged);

  std::uint64_t compactions = 0;
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    const MutationBatch batch =
        random_batch(dg, 1000 + epoch, /*monotone_only=*/true, epoch);
    const EpochResult r = inc.apply_epoch(batch);
    EXPECT_TRUE(r.warm) << "epoch " << epoch;
    ASSERT_TRUE(r.engine.converged);
    compactions += r.compacted ? 1 : 0;

    const std::vector<float> warm = prog.distances();
    ASSERT_TRUE(inc.recompute_cold().converged);
    ASSERT_EQ(warm, prog.distances()) << "epoch " << epoch;
  }
  EXPECT_GT(compactions, 0u);  // the threshold really did trigger mid-stream
  EXPECT_EQ(dg.compactions(), compactions);
}

TEST(DynIncremental, PureAsyncEngineWarmMatchesColdExactly) {
  DynGraph dg(base_graph());
  WccProgram prog;
  IncrementalEngine<WccProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed), DynEngine::kPureAsync);
  ASSERT_TRUE(inc.recompute_cold().converged);

  MutationBatch batch;
  batch.epoch = 1;
  batch.mutations.push_back(Mutation{MutationKind::kInsertEdge, 0, 255, 1.0f});
  batch.mutations.push_back(Mutation{MutationKind::kInsertEdge, 255, 7, 1.0f});
  const EpochResult r = inc.apply_epoch(batch);
  EXPECT_TRUE(r.warm);
  ASSERT_TRUE(r.engine.converged);
  const std::vector<std::uint32_t> warm = prog.labels();
  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(warm, prog.labels());
}

// --- Live (mid-recompute) vertex reads -------------------------------------

// Compile-time wiring: the three dyn-capable algorithms expose live_value;
// the ineligible push-mode exhibit deliberately does not (its mid-recompute
// queries in ndg_serve degrade to the quiescent barrier).
static_assert(IncrementalEngine<SsspProgram>::kLiveQueryCapable);
static_assert(IncrementalEngine<WccProgram>::kLiveQueryCapable);
static_assert(IncrementalEngine<PageRankProgram>::kLiveQueryCapable);
static_assert(!IncrementalEngine<AtomicPushPageRankProgram>::kLiveQueryCapable);

TEST_P(DynPolicies, SsspLiveValueEqualsQuiescentDistances) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(GetParam()));
  ASSERT_TRUE(inc.recompute_cold().converged);
  ASSERT_TRUE(
      inc.apply_epoch(random_batch(dg, 21, /*monotone_only=*/true))
          .engine.converged);

  // At a quiescent point the edge-only reconstruction must agree EXACTLY:
  // the fixed point satisfies dist(v) = min_in(dist(u) + w) and the scatter
  // leaves dist(v) itself on v's out-edges.
  const std::vector<float>& dists = prog.distances();
  for (VertexId v = 0; v < kV; ++v) {
    const double live = inc.live_value(v);
    if (std::isinf(dists[v])) {
      EXPECT_TRUE(std::isinf(live)) << "v=" << v;
    } else {
      EXPECT_EQ(static_cast<float>(live), dists[v]) << "v=" << v;
    }
  }
}

TEST_P(DynPolicies, WccLiveValueEqualsQuiescentLabels) {
  DynGraph dg(base_graph());
  WccProgram prog;
  IncrementalEngine<WccProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(GetParam()));
  ASSERT_TRUE(inc.recompute_cold().converged);
  const std::vector<std::uint32_t>& labels = prog.labels();
  for (VertexId v = 0; v < kV; ++v) {
    EXPECT_EQ(static_cast<std::uint32_t>(inc.live_value(v)), labels[v])
        << "v=" << v;
  }
}

/// The servers answer quiescent queries with value(v) instead of copying
/// values(): the two must agree exactly after a cold run and after an epoch.
template <typename Program>
void expect_value_is_values_entry(Program prog, EligibilityVerdict verdict,
                                  DynGraphOptions gopts, AtomicityMode mode) {
  DynGraph dg(base_graph(), std::move(gopts));
  IncrementalEngine<Program> inc(dg, prog, EligibilityGate(verdict),
                                 make_opts(mode));
  const auto check = [&prog](const char* when) {
    const std::vector<double> all = prog.values();
    ASSERT_EQ(all.size(), kV);
    for (VertexId v = 0; v < kV; ++v) {
      ASSERT_EQ(prog.value(v), all[v]) << prog.name() << " " << when
                                       << " v=" << v;
    }
  };
  inc.recompute_cold();
  check("cold");
  inc.apply_epoch(random_batch(dg, 5, /*monotone_only=*/true));
  check("epoch");
}

TEST_P(DynPolicies, ServedProgramsValueIsValuesEntry) {
  DynGraphOptions sssp_opts;
  sssp_opts.base_weight = [](EdgeId e) {
    return SsspProgram::edge_weight(42, e);
  };
  expect_value_is_values_entry(SsspProgram(0, 42),
                               EligibilityVerdict::kTheorem2, sssp_opts,
                               GetParam());
  expect_value_is_values_entry(WccProgram(), EligibilityVerdict::kTheorem2,
                               {}, GetParam());
  expect_value_is_values_entry(PageRankProgram(1e-4f),
                               EligibilityVerdict::kTheorem1, {}, GetParam());
  expect_value_is_values_entry(AtomicPushPageRankProgram(1e-4f),
                               EligibilityVerdict::kNotProven, {}, GetParam());
}

TEST(DynIncremental, PageRankLiveValueAgreesWithinLocalConvergence) {
  DynGraph dg(base_graph());
  PageRankProgram prog(/*epsilon=*/1e-4f);
  IncrementalEngine<PageRankProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem1),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(inc.recompute_cold().converged);
  // Local convergence stops scattering below ε, so the re-gathered value can
  // lag the stored rank by the unpublished deltas of the in-neighbors —
  // bounded by in-degree * ε, far under this slack on a 1400-edge graph.
  const std::vector<float>& ranks = prog.ranks();
  for (VertexId v = 0; v < kV; ++v) {
    EXPECT_NEAR(inc.live_value(v), ranks[v], 0.02 + 0.02 * ranks[v])
        << "v=" << v;
  }
}

// The concurrency contract itself: live_value from another thread while
// apply_epoch is inside its (artificially held) engine run. The TSan CI job
// runs this test — the reads go through the atomic edge slots only, never
// the program's plain per-vertex arrays.
TEST(DynIncremental, LiveValueDuringEngineRunIsSafeAndLabeled) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(inc.phase(), EpochPhase::kIdle);

  inc.set_run_hold_ms(300);
  const MutationBatch batch = random_batch(dg, 97, /*monotone_only=*/true, 1);
  EpochResult result;
  std::thread epoch([&] { result = inc.apply_epoch(batch); });

  // Wait for the run phase to be published, then hammer live reads inside
  // the licensed window. Values must be plausible distances (the racy read
  // observes SOME prefix of the run), never garbage.
  bool saw_running = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (inc.phase() == EpochPhase::kRunning) {
      saw_running = true;
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_TRUE(saw_running);
  if (saw_running) {
    EXPECT_EQ(inc.inflight_epoch(), 1u);
    for (int round = 0; round < 50; ++round) {
      for (VertexId v = 0; v < kV; v += 7) {
        const double live = inc.live_value(v);
        EXPECT_TRUE(live >= 0.0) << "v=" << v << " live=" << live;
      }
      if (inc.phase() != EpochPhase::kRunning) break;
    }
  }

  epoch.join();
  EXPECT_TRUE(result.engine.converged);
  EXPECT_EQ(inc.phase(), EpochPhase::kIdle);
  // Back at quiescence the same reads reproduce the result exactly.
  const std::vector<float>& dists = prog.distances();
  for (VertexId v = 0; v < kV; ++v) {
    if (!std::isinf(dists[v])) {
      EXPECT_EQ(static_cast<float>(inc.live_value(v)), dists[v]) << "v=" << v;
    }
  }
}

// Deferred compaction: apply_epoch(batch, auto_compact=false) leaves the
// overlay in place even past the threshold; compact_now() at the caller's
// own quiescent point finishes the job with the warm state intact. This is
// exactly the hand-off ndg_serve's event loop performs around its worker.
TEST(DynIncremental, DeferredCompactionKeepsWarmState) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  gopts.compact_threshold = 0.01;
  DynGraph dg(base_graph(), gopts);
  SsspProgram prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> inc(
      dg, prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(inc.recompute_cold().converged);

  const MutationBatch batch = random_batch(dg, 55, /*monotone_only=*/true, 1);
  const EpochResult r = inc.apply_epoch(batch, /*auto_compact=*/false);
  ASSERT_TRUE(r.engine.converged);
  EXPECT_FALSE(r.compacted);
  ASSERT_TRUE(dg.should_compact());  // threshold tripped, compaction owed
  const std::vector<float> warm = prog.distances();

  inc.compact_now();
  EXPECT_EQ(dg.compactions(), 1u);
  // Remapped edge data still reconstructs the same distances...
  for (VertexId v = 0; v < kV; ++v) {
    if (!std::isinf(warm[v])) {
      EXPECT_EQ(static_cast<float>(inc.live_value(v)), warm[v]) << "v=" << v;
    }
  }
  // ...and the next epoch still warm-starts onto the exact fixed point.
  const MutationBatch batch2 = random_batch(dg, 56, /*monotone_only=*/true, 2);
  const EpochResult r2 = inc.apply_epoch(batch2);
  EXPECT_TRUE(r2.warm);
  ASSERT_TRUE(r2.engine.converged);
  const std::vector<float> warm2 = prog.distances();
  ASSERT_TRUE(inc.recompute_cold().converged);
  EXPECT_EQ(warm2, prog.distances());
}

// replay_epoch is the replica half of the tier's log shipping
// (docs/TIER.md): a follower engine fed the leader's validated records —
// never the raw batch — must march through the same warm/cold decisions and
// land on the same fixed points, including across an in-stream compaction.
TEST(DynIncremental, ReplayEpochTracksApplyEpochExactly) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  gopts.compact_threshold = 0.05;  // force a mid-stream compaction epoch
  DynGraph leader_g(base_graph(), gopts);
  DynGraph follower_g(base_graph(), gopts);
  SsspProgram leader_prog(/*source=*/0, /*weight_seed=*/42);
  SsspProgram follower_prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> leader(
      leader_g, leader_prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  IncrementalEngine<SsspProgram> follower(
      follower_g, follower_prog,
      EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(leader.recompute_cold().converged);
  ASSERT_TRUE(follower.recompute_cold().converged);

  bool saw_warm = false;
  bool saw_cold = false;
  bool saw_compact = false;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    // Epoch 3 sneaks in a delete so BOTH gates route that epoch cold.
    MutationBatch batch =
        random_batch(leader_g, 90 + epoch, /*monotone_only=*/epoch != 3,
                     epoch);
    std::vector<AppliedMutation> shipped;
    // Mirror the coordinator: deferred compaction becomes an explicit
    // compact_after marker on the shipped record.
    const EpochResult rl =
        leader.apply_epoch(batch, /*auto_compact=*/false, &shipped);
    bool compact_after = false;
    if (leader_g.should_compact()) {
      leader.compact_now();
      compact_after = true;
    }
    const EpochResult rf = follower.replay_epoch(epoch, shipped,
                                                 compact_after);
    EXPECT_EQ(rl.warm, rf.warm) << "epoch " << epoch;
    EXPECT_STREQ(rl.gate_reason, rf.gate_reason) << "epoch " << epoch;
    EXPECT_EQ(rf.apply_stats.applied, shipped.size());
    EXPECT_EQ(rf.apply_stats.rejected, 0u);
    ASSERT_TRUE(rf.engine.converged);
    EXPECT_EQ(rf.compacted, compact_after);

    // Identical id spaces edge-for-edge, identical exact distances (SSSP's
    // unique fixed point — Theorem 2).
    ASSERT_EQ(leader_g.num_edges(), follower_g.num_edges());
    for (const Edge& e : leader_g.live_edge_list()) {
      ASSERT_EQ(leader_g.find_edge(e.src, e.dst),
                follower_g.find_edge(e.src, e.dst));
    }
    EXPECT_EQ(leader_prog.distances(), follower_prog.distances())
        << "epoch " << epoch;
    saw_warm = saw_warm || rf.warm;
    saw_cold = saw_cold || !rf.warm;
    saw_compact = saw_compact || compact_after;
  }
  // The stream must actually have exercised all three paths.
  EXPECT_TRUE(saw_warm);
  EXPECT_TRUE(saw_cold);
  EXPECT_TRUE(saw_compact);
  EXPECT_GT(follower.warm_runs(), 0u);
}

/// `count` inserts of edges absent from the current view, all distinct.
MutationBatch insert_batch(const DynGraph& dg, std::uint64_t seed,
                           std::uint64_t epoch, std::size_t count) {
  MutationBatch batch;
  batch.epoch = epoch;
  SplitMix64 rng(seed);
  while (batch.mutations.size() < count) {
    const auto u = static_cast<VertexId>(rng.next() % kV);
    const auto v = static_cast<VertexId>(rng.next() % kV);
    const bool queued = std::any_of(
        batch.mutations.begin(), batch.mutations.end(),
        [&](const Mutation& m) { return m.src == u && m.dst == v; });
    if (u == v || queued || dg.has_edge(u, v)) continue;
    batch.mutations.push_back(Mutation{MutationKind::kInsertEdge, u, v,
                                       1.0f + static_cast<float>(rng.next() % 8)});
  }
  return batch;
}

bool same_slots(const EdgeDataArray<SsspEdge>& a,
                const EdgeDataArray<SsspEdge>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.slots(), b.slots(), a.size() * sizeof(std::uint64_t)) ==
             0;
}

// A long warm stream grows the edge-slot array a few ids at a time, the
// serving tier's steady state. Growth must keep the shipping and replaying
// engines bit-identical, reallocate only geometrically often, and leave a
// state a cold recompute agrees with; compaction packs the slack away.
TEST(DynIncremental, WarmInsertStreamGrowsSlotsGeometrically) {
  DynGraphOptions gopts;
  gopts.base_weight = [](EdgeId e) { return SsspProgram::edge_weight(42, e); };
  gopts.compact_threshold = 1e9;  // keep every epoch's growth in the array
  DynGraph leader_g(base_graph(), gopts);
  DynGraph follower_g(base_graph(), gopts);
  SsspProgram leader_prog(/*source=*/0, /*weight_seed=*/42);
  SsspProgram follower_prog(/*source=*/0, /*weight_seed=*/42);
  IncrementalEngine<SsspProgram> leader(
      leader_g, leader_prog, EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  IncrementalEngine<SsspProgram> follower(
      follower_g, follower_prog,
      EligibilityGate(EligibilityVerdict::kTheorem2),
      make_opts(AtomicityMode::kRelaxed));
  ASSERT_TRUE(leader.recompute_cold().converged);
  ASSERT_TRUE(follower.recompute_cold().converged);
  const EdgeId base_edges = leader.edges().size();
  ASSERT_EQ(leader.edges().capacity(), base_edges);

  int reallocations = 0;
  const auto* slots = leader.edges().slots();
  for (std::uint64_t epoch = 1; epoch <= 200; ++epoch) {
    const MutationBatch batch =
        insert_batch(leader_g, 7000 + epoch, epoch, /*count=*/8);
    std::vector<AppliedMutation> shipped;
    const EpochResult rl = leader.apply_epoch(batch, true, &shipped);
    const EpochResult rf =
        follower.replay_epoch(epoch, shipped, /*compact_after=*/false);
    ASSERT_TRUE(rl.warm) << "epoch " << epoch;
    ASSERT_TRUE(rf.warm) << "epoch " << epoch;
    ASSERT_EQ(rl.apply_stats.applied, batch.mutations.size());
    ASSERT_FALSE(rl.compacted);
    ASSERT_TRUE(rl.engine.converged && rf.engine.converged);
    ASSERT_TRUE(same_slots(leader.edges(), follower.edges()))
        << "epoch " << epoch;
    if (leader.edges().slots() != slots) {
      ++reallocations;
      slots = leader.edges().slots();
    }
  }
  const EdgeId grown = leader.edges().size();
  ASSERT_EQ(grown, base_edges + 200 * 8);
  // Growth by 1.5x per reallocation, not once per epoch (200 here).
  int geometric = 0;
  for (EdgeId cap = base_edges; cap < grown; cap += cap / 2) ++geometric;
  EXPECT_LE(reallocations, geometric);
  EXPECT_GT(reallocations, 0);
  EXPECT_EQ(leader_prog.distances(), follower_prog.distances());

  leader.compact_now();
  follower.compact_now();
  EXPECT_EQ(leader.edges().capacity(), leader.edges().size());
  EXPECT_EQ(follower.edges().capacity(), follower.edges().size());
  EXPECT_EQ(leader.edges().size(), grown);
  EXPECT_TRUE(same_slots(leader.edges(), follower.edges()));

  const std::vector<float> warm = follower_prog.distances();
  ASSERT_TRUE(leader.recompute_cold().converged);
  EXPECT_EQ(leader_prog.distances(), warm);
}

// The two policies the acceptance criteria require, plus both ends of the
// atomicity spectrum for good measure.
INSTANTIATE_TEST_SUITE_P(Policies, DynPolicies,
                         ::testing::Values(AtomicityMode::kRelaxed,
                                           AtomicityMode::kSeqCst));

}  // namespace
}  // namespace ndg::dyn
