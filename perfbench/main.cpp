// perfbench — the repository benchmark's measuring program (see
// perfbench/README.md; perfbench/run.py builds and runs it).
//
//   perfbench --workload rmat-pagerank|grid-sssp|spec-coloring|tier-sssp
//             --seed N --seconds S --trace 0|1 [--threads T] [--workdir DIR]
//
// Prints a header line, one line per metric (value, unit, sample count) and,
// last, one JSON object {"correct","attempted","failed","metrics"} holding
// every end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
// that BENCHMARK.json declares, whichever workload runs.
// Exits 1 when any output failed its correctness check, 2 on bad arguments.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  secs(t0, s.start) * 1e6, secs(s.start, s.end) * 1e6);
    out << line;
  }
  return static_cast<bool>(out.flush());
}

double Tracer::span_cost() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Timed t(probe, "probe");
    t.stop();
  }
  return secs(t0, Clock::now()) / kSpans;
}

double vm_hwm_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

namespace {

/// Total and stolen CPU time of the machine so far, in clock ticks. On a VM,
/// stolen time (the hypervisor running something else) slows every metric.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    double t = 0.0;
    in >> t;
    total += t;
    if (i == 7) steal = t;
  }
  return {total, steal};
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument: " + a);
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      throw std::runtime_error("missing value for --" + a);
    }
  }
  Args args;
  for (const auto& [k, v] : kv) {
    if (k == "workload") {
      args.workload = v;
    } else if (k == "seed") {
      args.seed = std::stoull(v);
    } else if (k == "seconds") {
      args.seconds = std::stod(v);
    } else if (k == "trace") {
      args.trace = v == "1";
    } else if (k == "threads") {
      args.threads = std::stoul(v);
    } else if (k == "workdir") {
      args.workdir = v;
    } else {
      throw std::runtime_error("unknown flag --" + k);
    }
  }
  if (args.seconds <= 0 || args.threads == 0) {
    throw std::runtime_error("--seconds and --threads must be positive");
  }
  return args;
}

struct Declared {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order. Every workload reports
// every end-to-end metric. A per-layer metric a workload does not measure,
// because its layer is not on that workload's path, reads 0 with n=0.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"rss_peak_mb", "MiB"}};

constexpr Declared kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"graph.build_s", "s"},
    {"graph.ws_mb", "MiB"},
    {"engine.init_s", "s"},
    {"engine.run_s", "s"},
    {"engine.iterations", "count"},
    {"engine.iter_us", "us"},
    {"engine.updates", "count"},
    {"engine.updates_per_s", "1/s"},
    {"sched.load_imbalance", "ratio"},
    {"sched.steals", "count"},
    {"frontier.mean", "count"},
    {"frontier.dense_frac", "ratio"},
    {"spec.rounds", "count"},
    {"spec.commits", "count"},
    {"spec.aborts", "count"},
    {"spec.commit_frac", "ratio"},
    {"spec.round_us", "us"},
    {"tier.launch_s", "s"},
    {"tier.sync_s", "s"},
    {"wire.intake_ms", "ms"},
    {"tier.epoch_p50_ms", "ms"},
    {"tier.epoch_p90_ms", "ms"},
    {"dyn.applied", "count"},
    {"dyn.rejected", "count"},
    {"dyn.seeds", "count"},
    {"dyn.warm_frac", "ratio"},
    {"dyn.compactions", "count"},
    {"engine.epoch_iterations", "count"},
    {"engine.epoch_updates", "count"},
    {"tier.replica_lag_p50_ms", "ms"},
    {"tier.replica_lag_p90_ms", "ms"},
    {"tier.bytes_out_per_epoch", "bytes"},
    {"tier.visible_p90_ms", "ms"},
    {"tier.read_p50_us", "us"},
    {"tier.read_p99_us", "us"},
    {"gen.late_p99_ms", "ms"},
    {"gen.backlog_max", "count"},
    {"trace.overhead_pct", "%"},
};

/// `got` in the order of `declared`. A declared metric missing from `got`
/// reads 0 with n=0 when `fill` is set and is an error otherwise; a metric
/// not declared, or declared with another unit, is an error.
template <std::size_t N>
std::vector<Metric> conform(const std::vector<Metric>& got, const Declared (&declared)[N],
                            bool fill) {
  std::vector<Metric> out;
  for (const Declared& d : declared) {
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&](const Metric& m) { return m.name == d.name; });
    if (it == got.end()) {
      if (!fill) throw std::logic_error(std::string("metric ") + d.name + " not reported");
      out.push_back({d.name, 0.0, d.unit, 0});
    } else if (it->unit != d.unit) {
      throw std::logic_error("metric " + it->name + " reported in " + it->unit + ", not " +
                             d.unit);
    } else {
      out.push_back(*it);
    }
  }
  for (const Metric& m : got) {
    if (std::none_of(std::begin(declared), std::end(declared),
                     [&](const Declared& d) { return m.name == d.name; })) {
      throw std::logic_error("metric " + m.name + " is not declared");
    }
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::cout << "# " << title << "\n";
  for (const Metric& m : ms) {
    char line[200];
    std::snprintf(line, sizeof line, "%-26s %16.6g %-8s n=%zu\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    std::cout << line;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (::mkdir(args.workdir.c_str(), 0700) != 0 && errno != EEXIST) {
    std::cerr << "perfbench: cannot create " << args.workdir << ": "
              << std::strerror(errno) << "\n";
    return 2;
  }

  // A fixed mmap threshold: every large buffer is mapped on allocation and
  // unmapped on free. glibc's default raises the threshold each time such a
  // buffer is freed, so which later buffers land on the heap, and with them
  // the peak resident set of the in-process workloads, would depend on the
  // order of earlier frees.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);

  Tracer tracer(args.trace);
  Report rep;
  const auto [total0, steal0] = cpu_ticks();
  try {
    if (args.workload == "rmat-pagerank") {
      rep = run_rmat_pagerank(args, tracer);
    } else if (args.workload == "grid-sssp") {
      rep = run_grid_sssp(args, tracer);
    } else if (args.workload == "spec-coloring") {
      rep = run_spec_coloring(args, tracer);
    } else if (args.workload == "tier-sssp") {
      rep = run_tier_sssp(args, tracer);
    } else {
      std::cerr << "perfbench: unknown --workload '" << args.workload
                << "' (rmat-pagerank|grid-sssp|spec-coloring|tier-sssp)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }

  const auto [total1, steal1] = cpu_ticks();
  rep.info("steal_pct", json_num(total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0)
                                                 : 0.0));

  if (args.trace) {
    const double cost = Tracer::span_cost();
    const double pct = rep.window_s > 0
                           ? 100.0 * cost * static_cast<double>(tracer.size()) /
                                 rep.window_s
                           : 0.0;
    rep.layer("trace.overhead_pct", pct, "%", tracer.size());
    const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.write(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
    }
    rep.info("trace_file", "\"" + path + "\"");
  }
  try {
    rep.end_to_end = conform(rep.end_to_end, kEndToEnd, false);
    rep.per_layer = conform(rep.per_layer, kPerLayer, true);
  } catch (const std::logic_error& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::ostringstream header;
  header << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
         << ",\"seconds\":" << json_num(args.seconds)
         << ",\"trace\":" << (args.trace ? 1 : 0)
         << ",\"cores\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
         << ",\"l3_bytes\":" << ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  for (const auto& [k, v] : rep.header) header << ",\"" << k << "\":" << v;
  header << ",\"valid\":" << (rep.invalid ? "false" : "true") << "}";
  std::cout << "# header " << header.str() << "\n";

  print_metrics("end-to-end", rep.end_to_end);
  if (args.trace) print_metrics("per-layer", rep.per_layer);
  const double fail_frac =
      rep.attempted ? static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted)
                    : 1.0;
  std::cout << "# fail_frac " << json_num(fail_frac) << " (" << rep.failed
            << " of " << rep.attempted << " operations)\n";
  for (const std::string& e : rep.errors) std::cerr << "perfbench: FAIL: " << e << "\n";
  if (rep.invalid) {
    std::cerr << "perfbench: the load generator missed its schedule; this "
                 "run's latencies are invalid, not slow\n";
  }

  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  const std::vector<Metric>& ms = args.trace ? rep.per_layer : rep.end_to_end;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
        << json_num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
