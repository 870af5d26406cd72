#pragma once
// One client op, whichever wire it came over (docs/DYNAMIC.md, docs/TIER.md).
//
// A client connection speaks newline JSON and may upgrade once to bin1
// frames (dyn/wire.hpp). This module is the only code that knows both:
// decode_op turns the front line or frame of a LineConn into one ClientOp,
// and the reply_* helpers answer in whatever the connection speaks, so the
// coordinator and each replica handle every op in one switch. An op a
// server does not serve is answered `unknown op: X` (JSON) or `unexpected
// frame type: N`, undecoded.
//
// `malformed` marks input the server could not decode, which the
// coordinator counts in `parse_errors`: a line that is not flat JSON, a
// missing `op`, an unknown op or frame type, a missing or ill-typed field,
// an unknown `kind` or `proto`, or a frame payload its codec rejects. A
// well-formed request refused for its value is not: an id wider than 32
// bits here; a vertex out of range, a refused `shutdown` or a `hello` over
// stdio in the servers.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dyn/mutation.hpp"
#include "dyn/wire.hpp"
#include "tier/net.hpp"

namespace ndg::tier {

/// kHello is JSON only (the bin1 upgrade), kMBatch frames only.
enum class OpKind : std::uint8_t {
  kHello, kMutate, kMBatch, kQuery, kRecompute, kStats, kQuit, kShutdown,
  kError,
};

/// The ops a server serves, one bit per OpKind.
using OpSet = std::uint32_t;
constexpr OpSet op_bit(OpKind k) {
  return OpSet{1} << static_cast<unsigned>(k);
}
inline constexpr OpSet kAllOps = op_bit(OpKind::kError) - 1;

struct ClientOp {
  OpKind kind = OpKind::kError;
  dyn::Mutation mutation;            // kMutate
  std::vector<dyn::Mutation> batch;  // kMBatch
  std::uint64_t vertex = 0;          // kQuery; the server checks its range
  std::string error;                 // kError: the reply text
  bool malformed = false;            // kError: counts in parse_errors
};

/// Decodes the front message of `c` into `op` WITHOUT popping it, so an op
/// that must wait for an epoch stays queued; blank JSON lines ahead of it
/// are dropped. False when no message is queued.
bool decode_op(LineConn& c, OpSet served, ClientOp& op);
void pop_op(LineConn& c);

/// Answers and pops a kHello, then switches `c` to bin1; frame bytes
/// pipelined behind the hello are kept.
void accept_hello(LineConn& c);

void reply_error(LineConn& c, std::string_view what);
/// `{"ok":true,"pending":N}`, kMutateAck or kMBatchAck.
void reply_ack(LineConn& c, const ClientOp& op, std::uint64_t pending);
/// A replica's JSON answer also names the replica.
void reply_query(LineConn& c, const dyn::QueryReplyBin& qr,
                 std::optional<std::uint64_t> replica = std::nullopt);
void reply_recompute(LineConn& c, const dyn::RecomputeReplyBin& r);
/// A JSON object (a stats reply) as a line or a kJson frame.
void reply_json(LineConn& c, const std::string& json);
void reply_bye(LineConn& c);

}  // namespace ndg::tier
