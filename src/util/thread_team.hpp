#pragma once
// Thread-team helpers. The engines follow an SPMD structure: spawn T workers
// once per run, keep them alive across iterations (synchronizing on a
// SpinBarrier), and join at the end. That matches the paper's system model,
// where the same P threads persist for all N iterations.
//
// Engines that need a data-parallel region *inside* an iteration loop (PSW's
// per-interval batches, the OOC engine's per-shard dispatch) can hoist one
// ThreadTeam out of the loop and reuse it: ThreadTeam parks its workers on a
// condition variable between run() calls, so each call pays a notify, a
// futex wake and a done-wait instead of a thread spawn+join. That is not
// cheap: an empty run() with 2 workers measured about 20 µs on an idle
// shared 4-vCPU VM, where a SpinBarrier round trip took under 1 µs, and up
// to about 95 µs when other tenants loaded it. A loop that dispatches once
// or more per round (per iteration) should instead run the whole loop inside
// one run_team region and separate its phases with a SpinBarrier, as the NE
// and speculative engines do.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace ndg {

namespace detail {
/// The worker index within the innermost run_team/ThreadTeam region, for code
/// (allocator shims, tracing) that cannot thread a tid parameter through.
/// 0 on threads outside any team region.
inline thread_local std::size_t tls_thread_id = 0;
}  // namespace detail

/// Thread id of the calling worker within its team (0 outside a team).
[[nodiscard]] inline std::size_t current_thread_id() {
  return detail::tls_thread_id;
}

/// A persistent worker pool: spawns `num_threads` workers once, then each
/// run(fn) dispatches fn(thread_id) to every worker and blocks until all
/// return. Workers park on a condition variable between runs. Not reentrant:
/// one run() at a time, and run() must not be called from inside fn.
class ThreadTeam {
 public:
  explicit ThreadTeam(std::size_t num_threads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Runs fn(tid) on all workers and waits for completion. Exceptions thrown
  /// by fn terminate (workers run fn directly), matching run_team.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void worker(std::size_t tid);

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // valid during a run
  std::uint64_t epoch_ = 0;   // bumped per run(); workers wait for a new epoch
  std::size_t remaining_ = 0;  // workers still executing the current run
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(thread_id) on `num_threads` threads and joins them all.
/// thread_id 0 runs on a spawned thread too, so the caller's thread is free
/// (and so that all workers have symmetric scheduling behaviour). For a
/// one-shot region this is fine; inside an iteration loop, prefer a hoisted
/// ThreadTeam (see above).
template <typename Fn>
void run_team(std::size_t num_threads, Fn&& fn) {
  NDG_ASSERT(num_threads >= 1);
  std::vector<std::thread> team;
  team.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    team.emplace_back([&fn, t] {
      detail::tls_thread_id = t;
      fn(t);
      detail::tls_thread_id = 0;
    });
  }
  for (auto& th : team) th.join();
}

/// Static block partition of [0, n): returns [begin, end) for `tid` of `nt`.
/// This is the "static scheduling by the OpenMP runtime" dispatch the paper's
/// Fig. 1 describes: thread t owns one contiguous block of labels.
struct BlockRange {
  std::size_t begin;
  std::size_t end;
};

inline BlockRange static_block(std::size_t n, std::size_t nt, std::size_t tid) {
  NDG_ASSERT(tid < nt);
  const std::size_t base = n / nt;
  const std::size_t extra = n % nt;
  // The first `extra` threads get one extra element; keeps blocks contiguous.
  const std::size_t begin = tid * base + std::min(tid, extra);
  const std::size_t len = base + (tid < extra ? 1 : 0);
  return {begin, begin + len};
}

/// Data-parallel loop over [0, n) with static block partitioning.
/// fn(begin, end, tid) is invoked once per thread.
template <typename Fn>
void parallel_for_blocks(std::size_t n, std::size_t num_threads, Fn&& fn) {
  if (num_threads <= 1 || n == 0) {
    fn(std::size_t{0}, n, std::size_t{0});
    return;
  }
  run_team(num_threads, [&](std::size_t tid) {
    const auto [begin, end] = static_block(n, num_threads, tid);
    fn(begin, end, tid);
  });
}

/// Same loop on a persistent team — the per-iteration-loop variant.
template <typename Fn>
void parallel_for_blocks(std::size_t n, ThreadTeam& team, Fn&& fn) {
  if (team.size() <= 1 || n == 0) {
    fn(std::size_t{0}, n, std::size_t{0});
    return;
  }
  team.run([&](std::size_t tid) {
    const auto [begin, end] = static_block(n, team.size(), tid);
    fn(begin, end, tid);
  });
}

}  // namespace ndg
