// Direction-eligibility tests (docs/ANALYSIS.md): the per-direction
// compile-time verdicts, the merged-manifest cross-direction interference
// check behind kSwitchable, the refusal reason strings, resolve_direction's
// runtime gating, the registry's direction surface, and manifest enforcement
// of the push entry point (validate_manifest_push) including a deliberately
// lying push manifest.

#include <gtest/gtest.h>

#include <string>

#include "algorithms/bfs.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/label_propagation.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/push_pagerank.hpp"
#include "algorithms/push_pagerank_atomic.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/spmv.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "analysis/direction_eligibility.hpp"
#include "analysis/validate.hpp"
#include "graph/generators.hpp"

namespace ndg {
namespace {

// --- Per-direction verdicts: compile-time constants for every program ------

// BFS/SSSP: RW-only in both directions (the push publish is an RMW fold but
// still only the source side writes) — Theorem 1 each, and the merged
// manifest keeps the shape, so switching is licensed.
static_assert(StaticDirectionEligibility<BfsProgram>::kHasPush);
static_assert(StaticDirectionEligibility<BfsProgram>::kPullVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<BfsProgram>::kPushVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<BfsProgram>::kMixedVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<BfsProgram>::kSwitchable);

static_assert(StaticDirectionEligibility<SsspProgram>::kPullVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<SsspProgram>::kPushVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<SsspProgram>::kMixedVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<SsspProgram>::kSwitchable);

// WCC: both sides write in both directions — Theorem 2 everywhere, and the
// agreeing monotone claim survives the merge, so switching is licensed too.
static_assert(StaticDirectionEligibility<WccProgram>::kPullVerdict ==
              EligibilityVerdict::kTheorem2);
static_assert(StaticDirectionEligibility<WccProgram>::kPushVerdict ==
              EligibilityVerdict::kTheorem2);
static_assert(StaticDirectionEligibility<WccProgram>::kMixedVerdict ==
              EligibilityVerdict::kTheorem2);
static_assert(StaticDirectionEligibility<WccProgram>::kSwitchable);

// Pull-only programs: push side collapses to kNotProven, never switchable.
static_assert(!StaticDirectionEligibility<PageRankProgram>::kHasPush);
static_assert(StaticDirectionEligibility<PageRankProgram>::kPullVerdict ==
              EligibilityVerdict::kTheorem1);
static_assert(StaticDirectionEligibility<PageRankProgram>::kPushVerdict ==
              EligibilityVerdict::kNotProven);
static_assert(!StaticDirectionEligibility<PageRankProgram>::kSwitchable);
static_assert(!StaticDirectionEligibility<SpmvProgram>::kHasPush);
static_assert(!StaticDirectionEligibility<KCoreProgram>::kHasPush);
static_assert(!StaticDirectionEligibility<MisProgram>::kHasPush);
static_assert(!StaticDirectionEligibility<LabelPropagationProgram>::kHasPush);
static_assert(!StaticDirectionEligibility<AtomicPushPageRankProgram>::kHasPush);

// push_pagerank declares a push side — and it is refused: silent drains
// break the task rule and the WW shape has no monotone claim. The ISSUE's
// acceptance case: statically refused for NE in push direction.
static_assert(StaticDirectionEligibility<PushPageRankProgram>::kHasPush);
static_assert(StaticDirectionEligibility<PushPageRankProgram>::kPullVerdict ==
              EligibilityVerdict::kNotProven);
static_assert(StaticDirectionEligibility<PushPageRankProgram>::kPushVerdict ==
              EligibilityVerdict::kNotProven);
static_assert(!StaticDirectionEligibility<PushPageRankProgram>::kSwitchable);

// --- The cross-direction interference check ---------------------------------
// Two directions that are each Theorem 1 alone (writes confined to ONE side
// per direction) but whose mix writes BOTH sides of an edge: per-direction
// verdicts pass, the merged manifest has WW with no monotone recovery, and
// only the mixed-schedule check catches it.

constexpr AccessManifest kCrossPull{
    .in_edges = SlotAccess::kRead,
    .out_edges = SlotAccess::kReadWrite,
    .bsp_convergent = true,
    .async_convergent = true,
};
constexpr AccessManifest kCrossPush{
    .in_edges = SlotAccess::kReadWrite,
    .out_edges = SlotAccess::kRead,
    .bsp_convergent = true,
    .async_convergent = true,
};
constexpr DirectionalManifest kCross{kCrossPull, kCrossPush, true};

static_assert(direction_verdict(kCross, Direction::kPull) ==
              EligibilityVerdict::kTheorem1);
static_assert(direction_verdict(kCross, Direction::kPush) ==
              EligibilityVerdict::kTheorem1);
static_assert(ww_possible(merged_manifest(kCross)));
static_assert(mixed_verdict(kCross) == EligibilityVerdict::kNotProven);
static_assert(!direction_switchable(kCross));

// Monotone disagreement is also interference: min-race vs max-race has no
// recovery envelope, so an agreeing pair is required.
constexpr AccessManifest kDownPull{
    .in_edges = SlotAccess::kReadWrite,
    .out_edges = SlotAccess::kReadWrite,
    .monotone = MonotoneClaim::kNonIncreasing,
    .bsp_convergent = true,
    .async_convergent = true,
};
constexpr AccessManifest kUpPush{
    .in_edges = SlotAccess::kReadWrite,
    .out_edges = SlotAccess::kReadWrite,
    .monotone = MonotoneClaim::kNonDecreasing,
    .bsp_convergent = true,
    .async_convergent = true,
};
constexpr DirectionalManifest kDisagree{kDownPull, kUpPush, true};
static_assert(direction_verdict(kDisagree, Direction::kPull) ==
              EligibilityVerdict::kTheorem2);
static_assert(direction_verdict(kDisagree, Direction::kPush) ==
              EligibilityVerdict::kTheorem2);
static_assert(merged_manifest(kDisagree).monotone == MonotoneClaim::kNone);
static_assert(!direction_switchable(kDisagree));

TEST(DirectionEligibility, RefusalReasonsNameTheFailingPremises) {
  // Pull-only program asked for push.
  constexpr DirectionalManifest pr =
      StaticDirectionEligibility<PageRankProgram>::kManifest;
  const std::string no_push = direction_refusal_reason(pr, Direction::kPush);
  EXPECT_NE(no_push.find("no push-side manifest"), std::string::npos);
  EXPECT_TRUE(direction_refusal_reason(pr, Direction::kPull).empty());

  // push_pagerank: the task rule and the WW/monotone premises both fail.
  constexpr DirectionalManifest ppr =
      StaticDirectionEligibility<PushPageRankProgram>::kManifest;
  const std::string push = direction_refusal_reason(ppr, Direction::kPush);
  EXPECT_NE(push.find("task-generation"), std::string::npos);
  EXPECT_NE(push.find("write-write"), std::string::npos);

  // Cross-direction WW: both isolated directions are clean, so the reason
  // must come from the mixed-schedule check.
  const std::string cross = switchability_refusal_reason(kCross);
  EXPECT_NE(cross.find("cross-direction"), std::string::npos);
  EXPECT_NE(cross.find("write-write"), std::string::npos);

  // Switchable programs have nothing to refuse.
  EXPECT_TRUE(switchability_refusal_reason(
                  StaticDirectionEligibility<BfsProgram>::kManifest)
                  .empty());
}

TEST(DirectionEligibility, ResolveDirectionGatesRequests) {
  constexpr DirectionalManifest bfs =
      StaticDirectionEligibility<BfsProgram>::kManifest;
  constexpr DirectionalManifest pr =
      StaticDirectionEligibility<PageRankProgram>::kManifest;
  constexpr DirectionalManifest ppr =
      StaticDirectionEligibility<PushPageRankProgram>::kManifest;

  // Switchable: every request goes through unchanged.
  for (const DirectionMode m :
       {DirectionMode::kPull, DirectionMode::kPush, DirectionMode::kAuto}) {
    const DirectionResolution r = resolve_direction(bfs, m);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.pinned);
    EXPECT_EQ(r.effective, m);
  }

  // Pull-only: push refused with the verdict's reason; auto pins to pull.
  const DirectionResolution pr_push = resolve_direction(pr, DirectionMode::kPush);
  EXPECT_FALSE(pr_push.ok);
  EXPECT_NE(pr_push.reason.find("no push-side manifest"), std::string::npos);
  const DirectionResolution pr_auto = resolve_direction(pr, DirectionMode::kAuto);
  EXPECT_TRUE(pr_auto.ok);
  EXPECT_TRUE(pr_auto.pinned);
  EXPECT_EQ(pr_auto.effective, DirectionMode::kPull);
  EXPECT_NE(pr_auto.reason.find("pinned to pull"), std::string::npos);

  // Nothing proven: every request refused.
  for (const DirectionMode m :
       {DirectionMode::kPull, DirectionMode::kPush, DirectionMode::kAuto}) {
    EXPECT_FALSE(resolve_direction(ppr, m).ok);
  }
  EXPECT_NE(resolve_direction(ppr, DirectionMode::kPush)
                .reason.find("task-generation"),
            std::string::npos);

  // Atomicity gate: the push manifests declare RMW, which AlignedAccess
  // (method 2) cannot make atomic — push-admitting modes are refused there,
  // pull is fine.
  EXPECT_FALSE(
      resolve_direction(bfs, DirectionMode::kPush, AtomicityMode::kAligned).ok);
  EXPECT_FALSE(
      resolve_direction(bfs, DirectionMode::kAuto, AtomicityMode::kAligned).ok);
  EXPECT_TRUE(
      resolve_direction(bfs, DirectionMode::kPull, AtomicityMode::kAligned).ok);
  EXPECT_NE(resolve_direction(bfs, DirectionMode::kPush, AtomicityMode::kAligned)
                .reason.find("AlignedAccess"),
            std::string::npos);
}

TEST(DirectionEligibility, RegistryCarriesDirectionSurface) {
  const Graph g = Graph::build(64, gen::erdos_renyi(64, 256, 5));
  for (const auto& entry : algorithm_registry(/*source=*/0, 1000)) {
    // Surface consistency: has_push == (a push validator exists).
    EXPECT_EQ(entry.directional.has_push,
              static_cast<bool>(entry.validate_push))
        << entry.name;
    EXPECT_EQ(entry.dir_switchable, entry.dir_reason.empty()) << entry.name;
    // The pull side IS the classic manifest.
    EXPECT_EQ(entry.directional.pull.in_edges, entry.manifest.in_edges)
        << entry.name;
    // Every entry can run the direction engine; pull-only programs get
    // pinned to pull by the engine itself.
    EngineOptions opts;
    opts.num_threads = 2;
    opts.direction = DirectionMode::kPull;
    const EngineResult r = entry.run_directed(g, opts);
    // Label propagation's convergence is input-dependent by declaration;
    // everything else must drain.
    if (entry.name != "label-propagation") {
      EXPECT_TRUE(r.converged) << entry.name;
    }
    EXPECT_EQ(r.direction_push.size(), r.iterations) << entry.name;
    EXPECT_EQ(r.push_iterations(), 0u) << entry.name;

    if (entry.name == "bfs" || entry.name == "sssp" || entry.name == "wcc") {
      EXPECT_TRUE(entry.dir_switchable) << entry.name;
      // Directed-run tracer: update_push stays inside kPushManifest.
      const ManifestCheck check = entry.validate_push(g);
      EXPECT_TRUE(check.ok()) << entry.name << ": " << check.describe();
    }
    if (entry.name == "pagerank-push") {
      EXPECT_TRUE(entry.directional.has_push);
      EXPECT_EQ(entry.dir_push_verdict, EligibilityVerdict::kNotProven);
      EXPECT_FALSE(entry.dir_switchable);
      EXPECT_FALSE(entry.dir_reason.empty());
    }
    if (entry.name == "pagerank") {
      EXPECT_FALSE(entry.directional.has_push);
      EXPECT_EQ(entry.dir_pull_verdict, EligibilityVerdict::kTheorem1);
    }
  }
}

// A push manifest that LIES about the push entry point's shape: declares
// out-edge writes only, while update_push actually writes in-edges. The
// per-direction static verdict is clean (Theorem 1 shape), but the
// manifest-enforced directed run catches the escape — the runtime bridge
// that keeps the static direction verdicts honest.
class LyingPushProgram {
 public:
  using EdgeData = std::uint32_t;
  static constexpr bool kMonotonic = true;
  static constexpr AccessManifest kManifest{
      .in_edges = SlotAccess::kRead,
      .out_edges = SlotAccess::kReadWrite,
      .monotone = MonotoneClaim::kNonIncreasing,
      .bsp_convergent = true,
      .async_convergent = true,
  };
  static constexpr AccessManifest kPushManifest = kManifest;

  [[nodiscard]] const char* name() const { return "lying-push"; }

  void init(const Graph& g, EdgeDataArray<std::uint32_t>& edges) {
    (void)g;
    edges.fill(1);
  }

  [[nodiscard]] std::vector<VertexId> initial_frontier(const Graph& g) const {
    std::vector<VertexId> all(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
    return all;
  }

  template <typename Ctx>
  void update(VertexId v, Ctx& ctx) {
    (void)v;
    (void)ctx;
  }

  template <typename Ctx>
  void update_push(VertexId v, Ctx& ctx) {
    (void)v;
    // Undeclared: writes the IN side while the manifest declares reads only.
    for (const InEdge& ie : ctx.in_edges()) {
      if (ctx.read(ie.id) != 0) ctx.write(ie.id, ie.src, 0);
    }
  }

  static double project(std::uint32_t x) { return x; }

  [[nodiscard]] std::vector<double> values() const { return {}; }
};

static_assert(PushCapableProgram<LyingPushProgram>);
static_assert(StaticDirectionEligibility<LyingPushProgram>::kSwitchable);

TEST(DirectionEligibility, ValidatePushCatchesLyingManifest) {
  const Graph g = Graph::build(8, gen::chain(8));
  LyingPushProgram prog;
  const ManifestCheck check = validate_manifest_push(g, prog, 100);
  EXPECT_FALSE(check.ok());
  EXPECT_GT(check.violations, 0u);

  // The honest programs pass the same tracer.
  BfsProgram bfs(0);
  EXPECT_TRUE(validate_manifest_push(g, bfs, 100).ok());
  WccProgram wcc;
  EXPECT_TRUE(validate_manifest_push(g, wcc, 100).ok());
}

}  // namespace
}  // namespace ndg
