#pragma once
// Wire codecs of the serving tier (docs/DYNAMIC.md, docs/TIER.md): the
// newline-JSON client protocol, the bin1 framing and the client op
// payloads. tier/client_op.hpp turns both into one client op; rep.sock's
// payloads live in dyn/replication.hpp.
//
// JSON: one newline-delimited FLAT JSON object per command/reply. Flat means every value is a scalar (string / number / bool /
// null) — nested objects and arrays are rejected. That restriction is what
// keeps the parser ~100 lines with no dependency, and the protocol
// (docs/DYNAMIC.md) needs nothing more: a mutate is {"op":"mutate",
// "kind":"insert","src":3,"dst":7,"weight":2.5}, a query reply is
// {"ok":true,"vertex":7,"value":0.173}.
//
// Parsed values are kept as text; typed getters convert on demand so the
// server can give precise error messages naming the offending field.
// Unquoted values must still SPELL like JSON scalars (strict number grammar,
// true/false/null) — a bare word like {"vertex":xyz} is a parse error that
// names the key, not a value that limps along until a getter fails.
//
// Newline-JSON is the DEFAULT transport; a connection may upgrade once to
// the length-prefixed binary framing below ({"op":"hello","proto":"bin1"})
// for the high-frequency messages. Scripts, smoke tests and old clients
// never see a frame unless they ask for one.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dyn/mutation.hpp"

namespace ndg::dyn {

class WireMessage {
 public:
  /// Raw text of `key`'s value (unescaped for strings, literal spelling for
  /// numbers/bools), or nullptr when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;

  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }

  /// Typed getters: false when the key is absent or does not parse.
  bool get_string(std::string_view key, std::string& out) const;
  bool get_u64(std::string_view key, std::uint64_t& out) const;
  bool get_double(std::string_view key, double& out) const;
  bool get_bool(std::string_view key, bool& out) const;

  void add(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), std::move(value));
  }

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Parses one flat JSON object. On failure returns false and sets `err` (if
/// non-null) to a one-line diagnostic. Duplicate keys are kept in order and
/// find() returns the first (the server never sends duplicates).
bool parse_wire(std::string_view line, WireMessage& out,
                std::string* err = nullptr);

/// Reply builder producing one flat JSON object (no trailing newline).
/// Values added with the typed methods are emitted with correct JSON
/// spelling; strings are escaped.
class WireWriter {
 public:
  WireWriter& str(std::string_view key, std::string_view value);
  WireWriter& u64(std::string_view key, std::uint64_t value);
  WireWriter& i64(std::string_view key, std::int64_t value);
  WireWriter& num(std::string_view key, double value);
  WireWriter& boolean(std::string_view key, bool value);

  [[nodiscard]] std::string finish() const;

 private:
  std::vector<std::pair<std::string, std::string>> parts_;  // key -> raw json
};

// ── Binary framing ("bin1", docs/DYNAMIC.md) ────────────────────────────────
//
// A client connection starts in newline-JSON and may upgrade exactly once
// with {"op":"hello","proto":"bin1"}. The server answers with a JSON ok line
// and from then on BOTH directions speak length-prefixed frames (the tier's
// replication socket skips the upgrade: frames from the first byte):
//
//   u32 len (LE, payload bytes) | u8 type | payload[len]
//
// Payloads are fixed-layout little-endian structs (field tables in
// docs/DYNAMIC.md); floats travel as IEEE-754 bit patterns, so NaN/inf need
// no string spelling on this path. kMaxFrameLen mirrors the kMaxRecordMuts
// hardening: a hostile length field is a protocol error that breaks the
// connection, never a multi-gigabyte allocation.

/// Which transport a connection is currently speaking.
enum class WireProto : std::uint8_t { kJson, kBin };

/// Protocol token a client sends in the hello upgrade.
inline constexpr std::string_view kBinProtoName = "bin1";

/// u32 length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Upper bound on a single frame's payload (64 MiB). Large enough for a
/// replication record of ~2.6M applied mutations or a full snapshot chunk,
/// small enough that a corrupt/hostile length can never drive a giant
/// reserve. A peer announcing more is broken, not buffered.
inline constexpr std::uint32_t kMaxFrameLen = 1u << 26;

enum class FrameType : std::uint8_t {
  // Client <-> server (ndg_serve / coordinator / replica read path).
  kError = 0x00,       // payload: utf-8 message (reply to a bad frame)
  kJson = 0x01,        // payload: one flat JSON object (stats replies etc.)
  kMutate = 0x02,      // kind u8 | src u32 | dst u32 | weight f32
  kMutateAck = 0x03,   // pending u64
  kMBatch = 0x04,      // count u32 | count x (kind u8|src u32|dst u32|w f32)
  kMBatchAck = 0x05,   // accepted u32 | pending u64
  kQuery = 0x06,       // vertex u64
  kQueryReply = 0x07,  // flags u8 | vertex u64 | value f64 | epoch u64
  kRecompute = 0x08,   // (empty)
  kRecomputeReply = 0x09,  // fixed stats block + trailing reason text
  kStats = 0x0A,       // (empty; reply rides a kJson frame)
  kQuit = 0x0B,        // (empty)
  kBye = 0x0C,         // (empty)
  // Replication stream (docs/TIER.md; layouts in dyn/replication.hpp).
  kRepRecord = 0x10,
  kSnapshot = 0x11,
  kSnapChunk = 0x12,
  kAck = 0x13,
  kSync = 0x14,
  kShutdown = 0x15,
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// Little-endian scalar append/read helpers. Explicit byte shifts keep the
// layout host-endian independent; floats travel as their IEEE bit patterns.
inline void put_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}
inline void put_u32(std::string& s, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    s.push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}
inline void put_u64(std::string& s, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    s.push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}
inline void put_f32(std::string& s, float v) {
  put_u32(s, std::bit_cast<std::uint32_t>(v));
}
inline void put_f64(std::string& s, double v) {
  put_u64(s, std::bit_cast<std::uint64_t>(v));
}

inline bool get_u8(std::string_view s, std::size_t& off, std::uint8_t& v) {
  if (off + 1 > s.size()) return false;
  v = static_cast<std::uint8_t>(s[off]);
  off += 1;
  return true;
}
inline bool get_u32(std::string_view s, std::size_t& off, std::uint32_t& v) {
  if (off + 4 > s.size()) return false;
  v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[off + k]))
         << (8 * k);
  }
  off += 4;
  return true;
}
inline bool get_u64(std::string_view s, std::size_t& off, std::uint64_t& v) {
  if (off + 8 > s.size()) return false;
  v = 0;
  for (int k = 0; k < 8; ++k) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[off + k]))
         << (8 * k);
  }
  off += 8;
  return true;
}
inline bool get_f32(std::string_view s, std::size_t& off, float& v) {
  std::uint32_t bits = 0;
  if (!get_u32(s, off, bits)) return false;
  v = std::bit_cast<float>(bits);
  return true;
}
inline bool get_f64(std::string_view s, std::size_t& off, double& v) {
  std::uint64_t bits = 0;
  if (!get_u64(s, off, bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

/// Appends one complete frame (header + payload) to `out`.
void append_frame(std::string& out, FrameType type, std::string_view payload);

enum class FrameParse : std::uint8_t {
  kNeedMore,  // buffer holds a prefix of a frame; read more bytes
  kOk,        // one frame extracted and consumed from the buffer front
  kBad,       // length field exceeds kMaxFrameLen — connection is broken
};

/// Incremental frame reader: consumes one complete frame from the front of
/// `buf`. kBad is unrecoverable (there is no way to resynchronize a framed
/// stream after a corrupt length); the caller drops the connection.
FrameParse extract_frame(std::string& buf, Frame& out,
                         std::string* err = nullptr);

// ── Fixed-layout payload codecs for the serve ops ───────────────────────────
// Every decode_* validates the exact payload size and every enum byte, and
// reports one-line diagnostics like the JSON parser does.

[[nodiscard]] std::string encode_mutate(const Mutation& m);
bool decode_mutate(std::string_view p, Mutation& out,
                   std::string* err = nullptr);

/// One frame carrying a whole intake batch: feeds MutationLog::append(vector)
/// in a single syscall instead of `count` line round-trips.
[[nodiscard]] std::string encode_mbatch(const std::vector<Mutation>& ms);
bool decode_mbatch(std::string_view p, std::vector<Mutation>& out,
                   std::string* err = nullptr);

[[nodiscard]] std::string encode_mutate_ack(std::uint64_t pending);
bool decode_mutate_ack(std::string_view p, std::uint64_t& pending,
                       std::string* err = nullptr);
[[nodiscard]] std::string encode_mbatch_ack(std::uint32_t accepted,
                                            std::uint64_t pending);
bool decode_mbatch_ack(std::string_view p, std::uint32_t& accepted,
                       std::uint64_t& pending, std::string* err = nullptr);

[[nodiscard]] std::string encode_query(std::uint64_t vertex);
bool decode_query(std::string_view p, std::uint64_t& vertex,
                  std::string* err = nullptr);

/// flags bit 0: the quiescent field is present (live-query servers);
/// flags bit 1: the value IS quiescent (meaningful only when bit 0 is set).
struct QueryReplyBin {
  bool has_quiescent = false;
  bool quiescent = false;
  std::uint64_t vertex = 0;
  double value = 0.0;
  std::uint64_t epoch = 0;
};
[[nodiscard]] std::string encode_query_reply(const QueryReplyBin& r);
bool decode_query_reply(std::string_view p, QueryReplyBin& out,
                        std::string* err = nullptr);

/// Binary shape of the recompute reply: the fixed counters, then the gate
/// reason as trailing text (variable length, rest of the payload).
struct RecomputeReplyBin {
  std::uint64_t epoch = 0;
  bool warm = false;
  bool converged = false;
  bool compacted = false;
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t seeds = 0;
  std::uint64_t iterations = 0;
  std::uint64_t updates = 0;
  std::uint64_t live_edges = 0;
  std::string reason;
};
[[nodiscard]] std::string encode_recompute_reply(const RecomputeReplyBin& r);
bool decode_recompute_reply(std::string_view p, RecomputeReplyBin& out,
                            std::string* err = nullptr);

/// Wire-level counters a transport keeps per server (exposed via `stats`):
/// byte totals, messages that failed to parse, and how many connections
/// negotiated each protocol.
struct WireCounters {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t conns_json = 0;  // currently open, still newline-JSON
  std::uint64_t conns_bin = 0;   // currently open, upgraded to bin1
};

}  // namespace ndg::dyn
