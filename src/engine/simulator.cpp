#include "engine/simulator.hpp"

#include "util/assert.hpp"

namespace ndg::detail {

SimMachine::SimMachine(std::vector<std::uint64_t> committed,
                       std::size_t delay, std::size_t delay_jitter,
                       std::uint64_t seed)
    : committed_(std::move(committed)), logs_(committed_.size()),
      delay_(delay), delay_jitter_(delay_jitter), seed_(seed) {}

std::size_t SimMachine::effective_delay(EdgeId e, const WriteRec& w,
                                        std::uint32_t proc,
                                        std::uint32_t slot) const {
  if (delay_jitter_ == 0) return delay_;
  // Stable within a run (pure function of the identifying fields), different
  // across seeds: one seed == one noisy-but-consistent schedule.
  SplitMix64 sm(seed_ ^ (0xa24baed4963ee407ULL * (e + 1)) ^
                (static_cast<std::uint64_t>(iter_) << 40) ^
                (static_cast<std::uint64_t>(w.proc) << 24) ^
                (static_cast<std::uint64_t>(w.slot) << 12) ^
                (static_cast<std::uint64_t>(proc) << 6) ^ slot);
  const std::size_t span = 2 * delay_jitter_ + 1;
  const std::size_t lo = delay_ > delay_jitter_ ? delay_ - delay_jitter_ : 1;
  return lo + static_cast<std::size_t>(sm.next() % span);
}

bool SimMachine::visible(EdgeId e, const WriteRec& w, std::uint32_t proc,
                         std::uint32_t slot) const {
  if (w.proc == proc) {
    // Same logical processor: sequential program order (Definition 1 case 1).
    return w.slot < slot;
  }
  if (delay_ == 0) {
    // Instant propagation: visibility follows real (wave, proc) order.
    return w.slot < slot || (w.slot == slot && w.proc < proc);
  }
  // Definition 1 case 2: the result needs d update-slots to cross processors
  // (d perturbed by the seeded environmental noise when jitter is enabled).
  return slot >= w.slot + effective_delay(e, w, proc, slot);
}

bool SimMachine::tie_pick_first(EdgeId e, const WriteRec& a,
                                const WriteRec& b) const {
  // Deterministic per (seed, edge, iteration, contenders): one simulator seed
  // is one fully reproducible nondeterministic schedule.
  SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (e + 1)) ^
                (static_cast<std::uint64_t>(iter_) << 32) ^
                (static_cast<std::uint64_t>(a.proc) << 8) ^ b.proc);
  return (sm.next() & 1) != 0;
}

std::uint64_t SimMachine::read(EdgeId e, std::uint32_t proc, std::uint32_t slot) {
  NDG_ASSERT(e < logs_.size());
  const EdgeLog& log = logs_[e];
  const std::uint64_t value = committed_[e];
  if (log.epoch != iter_ || log.count == 0) return value;

  const WriteRec* best = nullptr;
  for (std::uint8_t i = 0; i < log.count; ++i) {
    const WriteRec& w = log.recs[i];
    if (!visible(e, w, proc, slot)) {
      // A write this iteration the reader cannot observe: if it already
      // "happened" in wave time, this read raced it (Lemma 1's ∥ case).
      if (w.slot <= slot && w.proc != proc) ++rw_overlaps_;
      continue;
    }
    if (best == nullptr || w.slot > best->slot ||
        (w.slot == best->slot && tie_pick_first(e, w, *best))) {
      best = &w;
    }
  }
  return best != nullptr ? best->value : value;
}

void SimMachine::write(EdgeId e, std::uint64_t value, std::uint32_t proc,
                       std::uint32_t slot) {
  NDG_ASSERT(e < logs_.size());
  EdgeLog& log = logs_[e];
  if (log.epoch != iter_) {
    log.epoch = iter_;
    log.count = 0;
    touched_.push_back(e);
  }
  for (std::uint8_t i = 0; i < log.count; ++i) {
    WriteRec& w = log.recs[i];
    if (w.proc != proc) {
      // Two writers in each other's ∥ window: a write-write conflict
      // (Lemma 2). With d == 0 there is no ∥ window.
      const std::uint32_t lo = std::min(w.slot, slot);
      const std::uint32_t hi = std::max(w.slot, slot);
      if (delay_ > 0 && hi - lo < delay_ + delay_jitter_) ++ww_overlaps_;
    } else if (w.slot == slot) {
      // Same update writing the same edge again: supersede in place.
      w.value = value;
      return;
    }
  }
  NDG_ASSERT_MSG(log.count < 2,
                 "an edge has only two endpoints; at most two updates may "
                 "write it per iteration (one write per update)");
  log.recs[log.count++] = WriteRec{value, slot, proc};
}

void SimMachine::commit() {
  for (const EdgeId e : touched_) {
    EdgeLog& log = logs_[e];
    if (log.epoch != iter_ || log.count == 0) continue;
    const WriteRec* winner = &log.recs[0];
    for (std::uint8_t i = 1; i < log.count; ++i) {
      const WriteRec& w = log.recs[i];
      // "Its data at the end of the iteration will be one of the written
      // values" (Lemmas 1 & 2): later wave wins; genuine ∥ ties are decided
      // by the seeded schedule.
      if (w.slot > winner->slot ||
          (w.slot == winner->slot && tie_pick_first(e, w, *winner))) {
        winner = &w;
      }
    }
    committed_[e] = winner->value;
    log.count = 0;
  }
  touched_.clear();
}

}  // namespace ndg::detail
