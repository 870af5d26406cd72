#include "tier/client_op.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

namespace ndg::tier {

namespace {

constexpr std::pair<std::string_view, OpKind> kJsonOps[] = {
    {"hello", OpKind::kHello},     {"mutate", OpKind::kMutate},
    {"query", OpKind::kQuery},     {"recompute", OpKind::kRecompute},
    {"stats", OpKind::kStats},     {"quit", OpKind::kQuit},
    {"shutdown", OpKind::kShutdown}};
constexpr std::pair<dyn::FrameType, OpKind> kFrameOps[] = {
    {dyn::FrameType::kMutate, OpKind::kMutate},
    {dyn::FrameType::kMBatch, OpKind::kMBatch},
    {dyn::FrameType::kQuery, OpKind::kQuery},
    {dyn::FrameType::kRecompute, OpKind::kRecompute},
    {dyn::FrameType::kStats, OpKind::kStats},
    {dyn::FrameType::kQuit, OpKind::kQuit},
    {dyn::FrameType::kShutdown, OpKind::kShutdown}};
constexpr std::pair<std::string_view, dyn::MutationKind> kMutationKinds[] = {
    {"insert", dyn::MutationKind::kInsertEdge},
    {"delete", dyn::MutationKind::kDeleteEdge},
    {"weight", dyn::MutationKind::kWeightChange}};

/// What `key` maps to in `table`; nullptr when it is not there.
template <class K, class V, std::size_t N>
const V* lookup(const std::pair<K, V> (&table)[N], const auto& key) {
  for (const auto& entry : table) {
    if (entry.first == key) return &entry.second;
  }
  return nullptr;
}

OpKind op_kind(const OpKind* k) { return k ? *k : OpKind::kError; }

bool is_bin(const LineConn& c) { return c.proto == dyn::WireProto::kBin; }

void bad(ClientOp& op, std::string what, bool malformed = true) {
  op.kind = OpKind::kError;
  op.error = std::move(what);
  op.malformed = malformed;
}

void decode_mutate_fields(const dyn::WireMessage& msg, ClientOp& op) {
  const std::string* kind = msg.find("kind");
  if (kind == nullptr) return bad(op, "mutate: missing field: kind");
  const dyn::MutationKind* known = lookup(kMutationKinds, *kind);
  if (known == nullptr) return bad(op, "mutate: unknown kind: " + *kind);
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  if (!msg.get_u64("src", src) || !msg.get_u64("dst", dst)) {
    return bad(op, "mutate: missing field: src/dst");
  }
  // Truncating an id past VertexId's range would apply a different edge;
  // the request is well-formed, so it is refused, not malformed.
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max();
  if (src > kMaxId || dst > kMaxId) {
    return bad(op,
               "mutate: vertex id does not fit 32 bits: " +
                   std::to_string(src > kMaxId ? src : dst),
               /*malformed=*/false);
  }
  double weight = 1.0;
  msg.get_double("weight", weight);
  op.mutation = dyn::Mutation{*known, static_cast<VertexId>(src),
                              static_cast<VertexId>(dst),
                              static_cast<float>(weight)};
}

void decode_line(std::string_view line, OpSet served, ClientOp& op) {
  dyn::WireMessage msg;
  std::string err;
  if (!dyn::parse_wire(line, msg, &err)) return bad(op, "parse: " + err);
  const std::string* name = msg.find("op");
  if (name == nullptr) return bad(op, "missing field: op");
  op.kind = op_kind(lookup(kJsonOps, *name));
  if ((served & op_bit(op.kind)) == 0) return bad(op, "unknown op: " + *name);
  if (op.kind == OpKind::kHello) {
    const std::string* proto = msg.find("proto");
    if (proto == nullptr) return bad(op, "hello: missing field: proto");
    if (*proto != dyn::kBinProtoName) {
      return bad(op, "hello: unknown proto: " + *proto);
    }
  } else if (op.kind == OpKind::kMutate) {
    decode_mutate_fields(msg, op);
  } else if (op.kind == OpKind::kQuery && !msg.get_u64("vertex", op.vertex)) {
    bad(op, "query: missing field: vertex");
  }
}

void decode_frame(const dyn::Frame& f, OpSet served, ClientOp& op) {
  op.kind = op_kind(lookup(kFrameOps, f.type));
  if ((served & op_bit(op.kind)) == 0) {
    return bad(op, "unexpected frame type: " +
                       std::to_string(static_cast<unsigned>(f.type)));
  }
  std::string err;
  if ((op.kind == OpKind::kMutate &&
       !dyn::decode_mutate(f.payload, op.mutation, &err)) ||
      (op.kind == OpKind::kMBatch &&
       !dyn::decode_mbatch(f.payload, op.batch, &err)) ||
      (op.kind == OpKind::kQuery &&
       !dyn::decode_query(f.payload, op.vertex, &err))) {
    bad(op, std::move(err));
  }
}

}  // namespace

bool decode_op(LineConn& c, OpSet served, ClientOp& op) {
  op.malformed = false;
  if (is_bin(c)) {
    if (c.frames.empty()) return false;
    decode_frame(c.frames.front(), served, op);
    return true;
  }
  while (!c.pending.empty() &&
         c.pending.front().find_first_not_of(" \t\r") == std::string::npos) {
    c.pending.pop_front();
  }
  if (c.pending.empty()) return false;
  decode_line(c.pending.front(), served, op);
  return true;
}

void pop_op(LineConn& c) {
  if (is_bin(c)) return c.frames.pop_front();
  c.pending.pop_front();
}

void accept_hello(LineConn& c) {
  c.queue_line(dyn::WireWriter()
                   .boolean("ok", true)
                   .str("proto", dyn::kBinProtoName)
                   .finish());
  c.pending.pop_front();
  c.upgrade_to_bin();
}

void reply_error(LineConn& c, std::string_view what) {
  if (is_bin(c)) return c.queue_frame(dyn::FrameType::kError, what);
  c.queue_line(
      dyn::WireWriter().boolean("ok", false).str("error", what).finish());
}

void reply_ack(LineConn& c, const ClientOp& op, std::uint64_t pending) {
  if (!is_bin(c)) {
    c.queue_line(
        dyn::WireWriter().boolean("ok", true).u64("pending", pending).finish());
  } else if (op.kind == OpKind::kMBatch) {
    c.queue_frame(dyn::FrameType::kMBatchAck,
                  dyn::encode_mbatch_ack(
                      static_cast<std::uint32_t>(op.batch.size()), pending));
  } else {
    c.queue_frame(dyn::FrameType::kMutateAck, dyn::encode_mutate_ack(pending));
  }
}

void reply_query(LineConn& c, const dyn::QueryReplyBin& qr,
                 std::optional<std::uint64_t> replica) {
  if (is_bin(c)) {
    return c.queue_frame(dyn::FrameType::kQueryReply,
                         dyn::encode_query_reply(qr));
  }
  dyn::WireWriter w;
  w.boolean("ok", true).u64("vertex", qr.vertex);
  // JSON has no literal for the IEEE specials; label them distinctly.
  if (std::isnan(qr.value)) {
    w.str("value", "nan");
  } else if (std::isinf(qr.value)) {
    w.str("value", qr.value > 0 ? "inf" : "-inf");
  } else {
    w.num("value", qr.value);
  }
  if (qr.has_quiescent) w.boolean("quiescent", qr.quiescent);
  w.u64("epoch", qr.epoch);
  if (replica) w.u64("replica", *replica);
  c.queue_line(w.finish());
}

void reply_recompute(LineConn& c, const dyn::RecomputeReplyBin& r) {
  if (is_bin(c)) {
    return c.queue_frame(dyn::FrameType::kRecomputeReply,
                         dyn::encode_recompute_reply(r));
  }
  c.queue_line(dyn::WireWriter()
                   .boolean("ok", true)
                   .u64("epoch", r.epoch)
                   .boolean("warm", r.warm)
                   .str("reason", r.reason)
                   .u64("applied", r.applied)
                   .u64("rejected", r.rejected)
                   .u64("seeds", r.seeds)
                   .u64("iterations", r.iterations)
                   .u64("updates", r.updates)
                   .boolean("converged", r.converged)
                   .boolean("compacted", r.compacted)
                   .u64("live_edges", r.live_edges)
                   .finish());
}

void reply_json(LineConn& c, const std::string& json) {
  if (is_bin(c)) return c.queue_frame(dyn::FrameType::kJson, json);
  c.queue_line(json);
}

void reply_bye(LineConn& c) {
  if (is_bin(c)) return c.queue_frame(dyn::FrameType::kBye, {});
  c.queue_line(R"({"ok":true,"bye":true})");
}

}  // namespace ndg::tier
