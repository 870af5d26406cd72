#pragma once
// Shared plumbing of the repository benchmark (perfbench/README.md): run
// arguments, the span recorder, sample statistics and the report each
// workload fills.
//
// Spans are recorded here, in the benchmark's own files, around each call
// into a layer's public functions; they stay in memory and are written out
// once the run ends. The program itself carries no tracing.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ndg {
class Graph;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Engine threads of the in-process workloads.
  std::size_t threads = 2;
  /// Directory inside the checkout for sockets and the trace file.
  std::string workdir = ".bench_build/run";
};

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. Disabled, it records nothing; callers time their
/// calls the same way either way, so the untraced run pays only for reading
/// the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Records [start, end) under `name`. `parent` and `id` come from
  /// reserve(), which lets a span that ends last (an epoch) be the parent of
  /// the spans recorded before it (its RPCs); without `id` a fresh one is
  /// taken.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::uint64_t id = 0) {
    if (enabled_) spans_.push_back({name, id ? id : ++next_id_, parent, start, end});
  }

  /// An id for a span recorded later (0 when disabled).
  std::uint64_t reserve() { return enabled_ ? ++next_id_ : 0; }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span (name, id, parent, start and duration
  /// in microseconds from the first span). Returns false on an I/O error.
  bool write(const std::string& path) const;

  /// Measured cost of recording one span, in seconds (clock reads included).
  [[nodiscard]] static double span_cost();

 private:
  bool enabled_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one call: construct before it, stop() after it.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name), start_(Clock::now()) {}

  /// Ends the span and returns its duration in seconds.
  double stop() {
    const Clock::time_point end = Clock::now();
    tracer_.record(name_, start_, end);
    return secs(start_, end);
  }

 private:
  Tracer& tracer_;
  const char* name_;
  Clock::time_point start_;
};

/// q-quantile (0..1) with linear interpolation between closest ranks, the
/// definition numpy and Python's statistics module call "inclusive".
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// What one workload run hands back to main(): its metrics, its operation
/// counts and the header facts describing its inputs.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failure counted above.
  std::vector<std::string> errors;
  /// Extra header fields as (key, raw JSON value).
  std::vector<std::pair<std::string, std::string>> header;
  /// Set by a workload whose load generator could not keep its schedule:
  /// its latencies describe the generator, not the program.
  bool invalid = false;
  /// Wall seconds of the measured window (the tracing-overhead base).
  double window_s = 0.0;

  void e2e(std::string name, double value, std::string unit, std::size_t n) {
    end_to_end.push_back({std::move(name), value, std::move(unit), n});
  }
  void layer(std::string name, double value, std::string unit, std::size_t n) {
    per_layer.push_back({std::move(name), value, std::move(unit), n});
  }
  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
  void info(std::string key, std::string json_value) {
    header.emplace_back(std::move(key), std::move(json_value));
  }
};

/// Computed working set of a solve on `g`, in MiB: CSR + CSC topology (the
/// edge-to-source inverse is not read by the engines), the per-edge data
/// array and the program's per-vertex state.
double working_set_mb(const ndg::Graph& g, std::size_t edge_data_bytes,
                      std::size_t vertex_state_bytes);

/// Peak resident set of process `pid` (VmHWM) in MiB; 0 when unreadable.
double vm_hwm_mb(long pid);

/// Resets this process's VmHWM to its current resident set.
void reset_peak_rss();

Report run_rmat_pagerank(const Args& args, Tracer& tracer);
Report run_grid_sssp(const Args& args, Tracer& tracer);
Report run_spec_coloring(const Args& args, Tracer& tracer);
Report run_tier_sssp(const Args& args, Tracer& tracer);

}  // namespace perfbench
