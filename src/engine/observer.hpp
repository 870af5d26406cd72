#pragma once
// Instrumentation hook for edge accesses. Observers are attached to the
// deterministic engine by the eligibility analysis (core/eligibility.hpp):
// conflict classification needs (edge, vertex, iteration); monotonicity
// checking additionally needs the written value. Instrumented runs pay one
// predictable virtual call per access; uninstrumented runs pass nullptr and
// pay one well-predicted branch.

#include <cstdint>

#include "util/types.hpp"

namespace ndg {

class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  virtual void on_read(EdgeId /*e*/, VertexId /*reader*/,
                       std::uint32_t /*iteration*/) {}
  /// `slot_value` is the 64-bit logical word of the written edge datum,
  /// whatever its storage width (decode with detail::from_slot<EdgeData>).
  virtual void on_write(EdgeId /*e*/, VertexId /*writer*/,
                        std::uint32_t /*iteration*/,
                        std::uint64_t /*slot_value*/) {}
};

/// Fans one access stream out to several observers.
class CompositeObserver final : public AccessObserver {
 public:
  CompositeObserver(AccessObserver* a, AccessObserver* b) : a_(a), b_(b) {}

  void on_read(EdgeId e, VertexId reader, std::uint32_t iter) override {
    a_->on_read(e, reader, iter);
    b_->on_read(e, reader, iter);
  }
  void on_write(EdgeId e, VertexId writer, std::uint32_t iter,
                std::uint64_t slot_value) override {
    a_->on_write(e, writer, iter, slot_value);
    b_->on_write(e, writer, iter, slot_value);
  }

 private:
  AccessObserver* a_;
  AccessObserver* b_;
};

}  // namespace ndg
