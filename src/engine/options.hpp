#pragma once
// Common option/result types shared by all execution engines.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atomics/access_policy.hpp"
#include "delay/delay_spec.hpp"
#include "engine/direction_mode.hpp"
#include "engine/frontier_policy.hpp"
#include "mem/mem_policy.hpp"
#include "sched/scheduler_kind.hpp"

namespace ndg {

struct EngineOptions {
  /// Number of OS threads (the paper's "participating processors" P).
  std::size_t num_threads = 1;
  /// Safety cap; engines report converged=false when they hit it.
  std::size_t max_iterations = 100000;
  /// Atomicity method for the nondeterministic engine (Section III).
  AtomicityMode mode = AtomicityMode::kRelaxed;
  /// How updates are dispatched over threads (docs/SCHEDULERS.md). The
  /// default reproduces the paper's Fig. 1 static-block dispatch.
  SchedulerKind scheduler = SchedulerKind::kStaticBlock;
  /// Chunk size for SchedulerKind::kStealing (items per steal unit).
  std::size_t scheduler_chunk = 32;
  /// Bucket count for SchedulerKind::kBucket.
  std::size_t scheduler_buckets = 64;
  /// Frontier representation (docs/PERF.md). kAuto switches to the dense
  /// bitmap when |S_n| * frontier_dense_divisor > V.
  FrontierPolicy frontier_policy = FrontierPolicy::kAuto;
  std::size_t frontier_dense_divisor = 8;
  /// Edge-parallel hub gather: vertices with in_degree > hub_threshold are
  /// split into edge chunks co-scheduled across the worklist. 0 disables
  /// splitting. Only engines with a shared worklist (kStealing/kBucket)
  /// split; static-block dispatch has no queue to co-schedule chunks on.
  std::size_t hub_threshold = 0;
  /// Edges per hub chunk when splitting.
  std::size_t hub_chunk_edges = 1024;
  /// Placement for engine-owned scratch (hub-gather partials). Graph and
  /// edge-data placement is requested at build time (GraphBuildOptions).
  MemSpec mem{};
  /// Direction request for the direction-optimizing engine
  /// (engine/direction.hpp): pull every iteration, push every iteration, or
  /// per-iteration auto from the hybrid frontier's density signal. Callers
  /// are expected to gate the request through the static direction verdicts
  /// first (analysis/directional_manifest.hpp resolve_direction); the engine
  /// itself pins to pull when the program has no push entry point. Read only
  /// where the barriered NE skeleton runs with its direction hook on
  /// (run_direction_optimizing); plain NE, delayed NE and the other engines
  /// always pull, whatever the value.
  DirectionMode direction = DirectionMode::kAuto;
  /// Bounded-staleness injection (docs/DELAY.md): with delay.steps > 0 the
  /// delayed entry points (src/delay/delayed_engine.hpp) buffer every write
  /// in a per-thread queue for a controlled number of update steps before it
  /// becomes visible — the paper's propagation delay d as a runtime knob.
  /// Read only by those entry points, which set the write-sink hook of the
  /// NE skeleton or of the async sweep to delay::DelayedWrites; calling
  /// run_nondeterministic or run_pure_async directly ignores it. steps == 0
  /// means baseline behaviour.
  DelaySpec delay{};
};

/// Potential-conflict counts observed by the ConflictTracer (lower bounds —
/// see conflict_tracer.hpp).
struct ConflictReport {
  std::uint64_t read_write = 0;
  std::uint64_t write_write = 0;

  [[nodiscard]] bool has_read_write() const { return read_write > 0; }
  [[nodiscard]] bool has_write_write() const { return write_write > 0; }
};

struct EngineResult {
  /// Iterations executed (the paper's N; I_0 is the initial state so the
  /// count here is the number of update rounds run).
  std::size_t iterations = 0;
  /// Total update-function invocations across all iterations and threads.
  std::uint64_t updates = 0;
  /// True if the frontier drained before max_iterations.
  bool converged = false;
  /// Wall-clock compute time (graph loading excluded, as in the paper).
  double seconds = 0.0;
  /// Filled only when a tracer was attached.
  ConflictReport conflicts;
  /// |S_n| for every executed iteration — the convergence curve. One entry
  /// per iteration; cheap enough to record unconditionally. 64-bit: at
  /// Graph500 scale-27+ a dense frontier's size does not fit 32 bits once
  /// hub splitting multiplies entries, and a silent wrap corrupts the curve.
  std::vector<std::uint64_t> frontier_sizes;
  /// Update invocations per thread (empty for sequential engines). Sums to
  /// `updates` for engines that run the whole algorithm on one team.
  std::vector<std::uint64_t> per_thread_updates;
  /// Degree-weighted work per thread: each update of v counts
  /// in_degree(v) + out_degree(v) edge touches. Update *counts* are equalised
  /// by construction under static blocks, so load imbalance on skewed graphs
  /// only shows up in this weighted view.
  std::vector<std::uint64_t> per_thread_work;
  /// Worklist telemetry (nonzero only under SchedulerKind::kStealing).
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  /// Representation chosen for S_n each iteration (parallel to
  /// frontier_sizes; true = dense bitmap). Empty for engines without the
  /// hybrid frontier.
  std::vector<std::uint8_t> frontier_dense;
  /// Hub-gather telemetry: hubs split and edge chunks dispatched.
  std::uint64_t hub_splits = 0;
  std::uint64_t hub_chunks = 0;

  /// Direction executed each iteration (parallel to frontier_sizes; 1 =
  /// push). Empty for engines without direction dispatch
  /// (engine/direction.hpp is the only producer).
  std::vector<std::uint8_t> direction_push;
  /// Number of adjacent iteration pairs that flipped direction.
  std::uint64_t direction_switches = 0;

  // --- Staleness telemetry (docs/DELAY.md; nonzero only for the delayed
  // engines in src/delay/). Staleness is measured at commit time: how many
  // of the writing thread's own update steps a write sat buffered before it
  // became visible. ---
  /// Writes routed through a delay queue (== total commits).
  std::uint64_t delayed_writes = 0;
  /// Largest observed staleness of any committed write, in steps. Bounded by
  /// DelaySpec::max_steps() (forced end-of-run flushes can only LOWER it).
  std::uint64_t max_staleness = 0;
  /// Exact sum of all observed stalenesses (for an unrounded mean).
  std::uint64_t staleness_total = 0;
  /// Observed-d histogram: staleness_hist[s] counts commits held exactly s
  /// steps; the last bucket absorbs everything >= its index. Empty when no
  /// delay layer ran.
  std::vector<std::uint64_t> staleness_hist;

  // --- Speculation telemetry (docs/SPECULATION.md; nonzero only for the
  // speculative engine in engine/speculative.hpp). Every planned update is
  // either committed or aborted, so spec_commits + spec_aborts == updates
  // for that engine. ---
  /// Speculative updates whose footprints survived conflict resolution.
  std::uint64_t spec_commits = 0;
  /// Speculative updates rolled back and re-executed in a later round.
  std::uint64_t spec_aborts = 0;

  /// Fraction of speculative updates aborted (0.0 when none ran).
  [[nodiscard]] double abort_rate() const;

  /// Mean observed staleness in steps (0.0 when no writes were delayed).
  [[nodiscard]] double mean_staleness() const;

  /// Iterations that ran in push direction (sum over direction_push).
  [[nodiscard]] std::uint64_t push_iterations() const;

  /// Load-imbalance summary: max/mean over per_thread_work (falling back to
  /// per_thread_updates when no work counts were recorded). 1.0 = perfectly
  /// balanced; 1.0 is also returned when nothing was recorded at all.
  [[nodiscard]] double load_imbalance() const;
};

}  // namespace ndg
