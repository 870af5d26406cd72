#pragma once
// MutationLog — the append-only front door of the streaming subsystem.
//
// Producers (ingest threads, the serving coordinator's loop) append mutations
// concurrently; the epoch owner calls seal() to stamp everything accumulated
// since the last seal with the next epoch number and take it out as one
// MutationBatch. The log itself never validates — validation is DynGraph's
// job at apply time, when the adjacency state needed to judge a mutation
// actually exists. A bounded history of sealed batches is kept for replay
// and diagnostics (the coordinator's `stats` op reports log totals from here).

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "dyn/mutation.hpp"

namespace ndg::dyn {

class MutationLog {
 public:
  /// `history_limit`: sealed batches retained for replay()/history(); older
  /// batches are dropped front-first. 0 keeps nothing.
  explicit MutationLog(std::size_t history_limit = 64)
      : history_limit_(history_limit) {}

  /// Thread-safe append of one mutation to the open (unsealed) tail.
  void append(const Mutation& m);

  /// Thread-safe bulk append.
  void append(const std::vector<Mutation>& ms);

  /// Seals the open tail into a batch stamped with the next epoch and
  /// returns it; the tail restarts empty. Sealing an empty tail still
  /// advances the epoch (an epoch with no mutations is a valid quiescent
  /// point for the coordinator's recompute-only commands).
  [[nodiscard]] MutationBatch seal();

  /// Mutations appended since the last seal().
  [[nodiscard]] std::size_t pending() const;

  /// Epoch of the most recently sealed batch (0 = nothing sealed yet).
  [[nodiscard]] std::uint64_t epoch() const;

  /// Totals across the log's lifetime.
  [[nodiscard]] std::uint64_t total_appended() const;
  [[nodiscard]] std::uint64_t total_sealed_batches() const;

  /// Copy of the retained sealed batches, oldest first.
  [[nodiscard]] std::vector<MutationBatch> history() const;

  /// Sealed batches currently retained (<= the history limit) — the lag
  /// window observable from the coordinator's `stats` reply without copying.
  [[nodiscard]] std::size_t history_size() const;
  [[nodiscard]] std::size_t history_limit() const { return history_limit_; }

 private:
  mutable std::mutex mu_;
  std::vector<Mutation> tail_;
  std::deque<MutationBatch> sealed_;
  std::size_t history_limit_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t total_appended_ = 0;
  std::uint64_t total_batches_ = 0;
};

}  // namespace ndg::dyn
