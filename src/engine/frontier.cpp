#include "engine/frontier.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace ndg {

Frontier::Frontier(VertexId num_vertices, FrontierPolicy policy,
                   std::size_t dense_divisor)
    : next_(num_vertices),
      touched_(next_.num_words()),
      policy_(policy),
      dense_divisor_(dense_divisor == 0 ? 1 : dense_divisor) {
  if (policy_ != FrontierPolicy::kSparse) bits_ = DenseBitset(num_vertices);
}

bool Frontier::want_dense(std::size_t count) const {
  switch (policy_) {
    case FrontierPolicy::kSparse:
      return false;
    case FrontierPolicy::kDense:
      return count > 0;
    case FrontierPolicy::kAuto:
      return count * dense_divisor_ > next_.size();
  }
  return false;
}

void Frontier::seed(std::vector<VertexId> vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  for ([[maybe_unused]] const VertexId v : vertices) {
    NDG_ASSERT(v < next_.size());
  }
  size_ = vertices.size();
  dense_ = want_dense(size_);
  if (dense_) {
    bits_.clear();
    for (const VertexId v : vertices) bits_.set(v);
    current_.clear();
  } else {
    current_ = std::move(vertices);
  }
}

void Frontier::advance() {
  // One pass over the touched words, ascending: take each word (zeroing it
  // and its summary bit, so next_ is empty again for S_{n+2}) and count.
  taken_.clear();
  size_ = 0;
  for (std::size_t s = 0; s < touched_.num_words(); ++s) {
    for (std::uint64_t summary = touched_.take_word(s); summary != 0;
         summary &= summary - 1) {
      const std::size_t w =
          s * 64 + static_cast<std::size_t>(__builtin_ctzll(summary));
      const std::uint64_t bits = next_.take_word(w);
      size_ += static_cast<std::size_t>(std::popcount(bits));
      taken_.emplace_back(w, bits);
    }
  }
  dense_ = want_dense(size_);
  current_.clear();
  if (dense_) {
    bits_.clear();
    for (const auto& [w, bits] : taken_) bits_.set_word(w, bits);
  } else {
    // Words ascend and bits within a word ascend, which gives the
    // small-label-first ordering for free.
    for (auto [w, bits] : taken_) {
      for (; bits != 0; bits &= bits - 1) {
        current_.push_back(
            static_cast<VertexId>(w * 64 + __builtin_ctzll(bits)));
      }
    }
  }
}

void Frontier::collect_range(VertexId lo, VertexId hi,
                             std::vector<VertexId>& out) const {
  if (dense_) {
    bits_.for_each_in_range(lo, hi, [&out](std::size_t v) {
      out.push_back(static_cast<VertexId>(v));
    });
    return;
  }
  const auto first = std::lower_bound(current_.begin(), current_.end(), lo);
  const auto last = std::lower_bound(first, current_.end(), hi);
  out.insert(out.end(), first, last);
}

const char* to_string(FrontierPolicy policy) {
  switch (policy) {
    case FrontierPolicy::kSparse:
      return "sparse";
    case FrontierPolicy::kDense:
      return "dense";
    case FrontierPolicy::kAuto:
      return "auto";
  }
  return "?";
}

std::optional<FrontierPolicy> parse_frontier_policy(const std::string& name) {
  if (name == "sparse") return FrontierPolicy::kSparse;
  if (name == "dense") return FrontierPolicy::kDense;
  if (name == "auto") return FrontierPolicy::kAuto;
  return std::nullopt;
}

}  // namespace ndg
