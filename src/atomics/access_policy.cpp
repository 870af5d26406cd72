#include "atomics/access_policy.hpp"

#include <stdexcept>
#include <string>

namespace ndg {

const char* to_string(AtomicityMode mode) {
  switch (mode) {
    case AtomicityMode::kLocked:
      return "locked";
    case AtomicityMode::kAligned:
      return "aligned";
    case AtomicityMode::kRelaxed:
      return "relaxed";
    case AtomicityMode::kSeqCst:
      return "seq_cst";
  }
  return "?";
}

AtomicityMode parse_atomicity_mode(std::string_view name) {
  for (const AtomicityMode m : {AtomicityMode::kLocked, AtomicityMode::kAligned,
                                AtomicityMode::kRelaxed,
                                AtomicityMode::kSeqCst}) {
    if (name == to_string(m)) return m;
  }
  throw std::invalid_argument("unknown --mode: " + std::string(name) +
                              " (expected locked|aligned|relaxed|seq_cst)");
}

}  // namespace ndg
