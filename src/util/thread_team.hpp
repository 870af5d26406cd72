#pragma once
// Thread-team helpers. The engines follow an SPMD structure: spawn T workers
// once per run, keep them alive across iterations (synchronizing on a
// SpinBarrier), and join at the end. That matches the paper's system model,
// where the same P threads persist for all N iterations. Every parallel
// engine runs this way: the barriered NE skeleton (run_barriered in
// engine/nondeterministic.hpp), the speculative engine, PSW and OOC-NE. A
// phase that only one thread may run (advancing the frontier, partitioning an
// interval, loading a shard) runs on thread 0 between two barriers.

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace ndg {

/// Runs fn(thread_id) on `num_threads` threads and joins them all.
/// thread_id 0 runs on a spawned thread too, so the caller's thread is free
/// (and so that all workers have symmetric scheduling behaviour).
template <typename Fn>
void run_team(std::size_t num_threads, Fn&& fn) {
  NDG_ASSERT(num_threads >= 1);
  std::vector<std::thread> team;
  team.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    team.emplace_back([&fn, t] { fn(t); });
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

}  // namespace ndg
