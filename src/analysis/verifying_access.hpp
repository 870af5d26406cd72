#pragma once
// VerifyingAccess<Inner> — an access-policy decorator that enforces a
// program's declared AccessManifest at runtime, bridging the static claim
// (analysis/static_eligibility.hpp derives verdicts from the manifest alone)
// to the dynamic ConflictTracer ground truth: if a run under VerifyingAccess
// is violation-free, every edge access the tracer could ever observe is
// inside the declared shape, so the statically derived conflict classes are
// sound for that execution.
//
// The decorator wraps any real policy (so verification composes with all
// four atomicity methods) and checks, per access, that
//   * the edge is incident to the vertex being updated (the Section II
//     update scope — update(v) may only touch v's incident edges),
//   * the incident side (own in-edge / own out-edge) declares the access
//     kind (read / write), and
//   * compound RMWs (exchange/accumulate) are declared (.rmw) AND the inner
//     policy can actually make them atomic (the runtime twin of the
//     compile-time assert_manifest_policy check — reachable when the policy
//     is chosen at runtime, e.g. the ablation benches pairing push-mode
//     programs with AlignedAccess on purpose).
//
// Violations are recorded, never thrown: the run completes and the caller
// fails it afterwards (ManifestCheck::ok), so a single report lists every
// undeclared access shape instead of the first.
//
// The decorator learns the vertex under update through the begin_update(v)
// hook the engine contexts invoke from begin(); enforcement is thread-safe
// (contexts copy the policy per worker, the enforcer is shared and atomic).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/access_manifest.hpp"
#include "atomics/edge_data.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace ndg {

struct ManifestViolation {
  enum class Kind : std::uint8_t {
    kUndeclaredRead,      // read on a side whose manifest slot lacks kRead
    kUndeclaredWrite,     // write on a side whose manifest slot lacks kWrite
    kForeignEdge,         // edge not incident to the vertex under update
    kUndeclaredRmw,       // exchange/accumulate without .rmw = true
    kRmwNonAtomicPolicy,  // declared RMW but inner policy has no atomic RMW
  };

  Kind kind;
  EdgeId edge;
  VertexId vertex;

  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* to_string(ManifestViolation::Kind k);

/// Outcome of a manifest-enforced run (see validate_manifest in
/// analysis/validate.hpp and the registry's validate closure).
struct ManifestCheck {
  std::uint64_t accesses = 0;
  std::uint64_t violations = 0;
  /// First kMaxSamples violations, for diagnostics.
  std::vector<ManifestViolation> samples;

  [[nodiscard]] bool ok() const { return violations == 0; }
  [[nodiscard]] std::string describe() const;
};

/// Shared enforcement state: the graph (for incidence queries), the declared
/// manifest, and the violation log. One enforcer per verified run; the
/// VerifyingAccess copies engines hand to worker threads all point here.
class ManifestEnforcer {
 public:
  static constexpr std::size_t kMaxSamples = 16;

  ManifestEnforcer(const Graph& g, const AccessManifest& m)
      : g_(&g), manifest_(m) {}

  [[nodiscard]] const AccessManifest& manifest() const { return manifest_; }

  void count_access() { accesses_.fetch_add(1, std::memory_order_relaxed); }

  void record(ManifestViolation::Kind kind, EdgeId e, VertexId v) {
    violations_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < kMaxSamples) samples_.push_back({kind, e, v});
  }

  /// Classifies one access and records any violation. `rmw` marks
  /// exchange/accumulate; `inner_atomic_rmw` is the wrapped policy's trait.
  void check(EdgeId e, VertexId v, bool is_write, bool rmw,
             bool inner_atomic_rmw) {
    count_access();
    if (rmw) {
      if (!manifest_.rmw) record(ManifestViolation::Kind::kUndeclaredRmw, e, v);
      if (!inner_atomic_rmw) {
        record(ManifestViolation::Kind::kRmwNonAtomicPolicy, e, v);
      }
    }
    // Incidence: a self-loop is both an in- and an out-edge of v, so either
    // declared side admits the access.
    const bool own_out = g_->is_out_edge(v, e);
    const bool own_in = g_->edge_target(e) == v;
    if (!own_out && !own_in) {
      record(ManifestViolation::Kind::kForeignEdge, e, v);
      return;
    }
    const bool allowed =
        is_write ? ((own_in && writes(manifest_.in_edges)) ||
                    (own_out && writes(manifest_.out_edges)))
                 : ((own_in && reads(manifest_.in_edges)) ||
                    (own_out && reads(manifest_.out_edges)));
    if (!allowed) {
      record(is_write ? ManifestViolation::Kind::kUndeclaredWrite
                      : ManifestViolation::Kind::kUndeclaredRead,
             e, v);
    }
  }

  [[nodiscard]] ManifestCheck result() const {
    ManifestCheck c;
    c.accesses = accesses_.load(std::memory_order_relaxed);
    c.violations = violations_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      c.samples = samples_;
    }
    return c;
  }

 private:
  const Graph* g_;
  AccessManifest manifest_;
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> violations_{0};
  mutable std::mutex mu_;
  std::vector<ManifestViolation> samples_;
};

/// The decorator. Satisfies the same duck-typed policy interface as the four
/// real policies, so engines templated on Policy take it unchanged.
template <typename Inner>
struct VerifyingAccess {
  static constexpr bool kAtomicRmw = Inner::kAtomicRmw;

  Inner inner{};
  ManifestEnforcer* enforcer = nullptr;
  VertexId current = kInvalidVertex;

  /// Invoked by the engine contexts when they repoint at a vertex (concept-
  /// gated in begin(); policies without the hook pay nothing).
  void begin_update(VertexId v) { current = v; }

  template <EdgePod T>
  [[nodiscard]] T read(const EdgeDataArray<T>& a, EdgeId e) const {
    enforcer->check(e, current, /*is_write=*/false, /*rmw=*/false, kAtomicRmw);
    return inner.read(a, e);
  }

  template <EdgePod T>
  void write(EdgeDataArray<T>& a, EdgeId e, T v) const {
    enforcer->check(e, current, /*is_write=*/true, /*rmw=*/false, kAtomicRmw);
    inner.write(a, e, v);
  }

  template <EdgePod T>
  T exchange(EdgeDataArray<T>& a, EdgeId e, T v) const {
    enforcer->check(e, current, /*is_write=*/true, /*rmw=*/true, kAtomicRmw);
    return inner.exchange(a, e, v);
  }

  template <EdgePod T, typename Fn>
  void accumulate(EdgeDataArray<T>& a, EdgeId e, Fn fn) const {
    enforcer->check(e, current, /*is_write=*/true, /*rmw=*/true, kAtomicRmw);
    inner.accumulate(a, e, fn);
  }
};

}  // namespace ndg
