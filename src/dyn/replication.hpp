#pragma once
// Log shipping for the replicated serving tier (docs/TIER.md).
//
// The coordinator owns the single MutationLog; after it applies each sealed
// epoch locally it appends one RepRecord — the *validated* AppliedMutation
// batch plus a compact marker — to a bounded ReplicationLog and streams the
// record to every replica. Replicas replay records strictly in sequence
// through DynGraph::apply_replicated, so their id spaces track the
// coordinator's exactly; a replica whose cursor falls behind the bounded
// history is re-seeded with a full Snapshot (canonical live-edge list +
// weights) instead of erroring. Compaction is itself an in-stream event
// (kCompact records, or the compact_after flag on a batch record): every
// replica compacts at the same point in its ordered stream, which is what
// keeps edge ids convergent — DynGraph::compact is deterministic in the
// live edge set.
//
// The wire format is bin1 frames (dyn/wire.hpp): a record is one
// kRepRecord frame; a snapshot is a kSnapshot header frame followed by
// kSnapChunk frames carrying the live edges in canonical (src, dst) order
// (edge k's id is k after the rebuild, matching the coordinator's
// post-compaction ids). The replica opens with a kSync frame and acks each
// applied record or snapshot with a kAck frame.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dyn/mutation.hpp"
#include "dyn/wire.hpp"
#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace ndg::dyn {

enum class RepKind : std::uint8_t {
  kBatch,    // one applied epoch batch (possibly empty), compact_after flag
  kCompact,  // standalone compaction fence (snapshot preparation)
};

/// One replication-stream record. `seq` increases by one per record and is
/// the replica's replay cursor; `epoch` is the MutationLog epoch the record
/// brings a replica up to.
struct RepRecord {
  std::uint64_t seq = 0;
  RepKind kind = RepKind::kBatch;
  std::uint64_t epoch = 0;
  std::vector<AppliedMutation> muts;  // kBatch only
  /// kBatch: coordinator compacted right after applying this batch; the
  /// replica must do the same before touching the next record.
  bool compact_after = false;
};

/// Bounded, single-threaded (coordinator event loop) record history. Records
/// older than `history_limit` are dropped front-first; a replica asking for
/// a dropped seq gets a snapshot instead.
class ReplicationLog {
 public:
  explicit ReplicationLog(std::size_t history_limit = 64)
      : history_limit_(history_limit) {}

  const RepRecord& append_batch(std::uint64_t epoch,
                                std::vector<AppliedMutation> muts,
                                bool compact_after);
  const RepRecord& append_compact(std::uint64_t epoch);

  /// Seq the NEXT appended record will get (== 1 + newest existing seq).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Oldest retained seq; next_seq() when the history is empty.
  [[nodiscard]] std::uint64_t oldest_seq() const;
  [[nodiscard]] bool has(std::uint64_t seq) const;
  [[nodiscard]] const RepRecord& get(std::uint64_t seq) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t history_limit() const { return history_limit_; }

 private:
  const RepRecord& push(RepRecord rec);

  std::deque<RepRecord> records_;
  std::size_t history_limit_;
  std::uint64_t next_seq_ = 1;
};

/// One live edge of a snapshot, shipped in canonical (src, dst) order so the
/// k-th edge's id is k on both sides after the rebuild.
struct SnapshotEdge {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  float weight = 1.0f;
};

struct SnapshotHeader {
  std::uint64_t seq = 0;    // replica cursor after installing the snapshot
  std::uint64_t epoch = 0;  // epoch watermark the snapshot represents
  VertexId vertices = 0;
  EdgeId edges = 0;
};

/// Hard ceiling on a record frame's wire-supplied `count` field — far
/// above any batch a coordinator actually seals, low enough that a corrupt
/// header is rejected as a parse error instead of driving a multi-gigabyte
/// reserve / bad_alloc.
inline constexpr std::uint64_t kMaxRecordMuts = std::uint64_t{1} << 28;

// ── Replication codec (frames, docs/TIER.md) ────────────────────────────────
//
//   kRepRecord  seq u64 | kind u8 | epoch u64 | compact u8 | count u32
//               | count x (kind u8|src u32|dst u32|id u64|weight f32|old f32)
//   kSnapshot   seq u64 | epoch u64 | vertices u32 | edges u64
//   kSnapChunk  count u32 | count x (src u32|dst u32|weight f32)
//   kAck        replica u64 | seq u64 | epoch u64
//   kSync       replica u64 | seq u64
//
// A whole record is ONE frame — one write per epoch shipped — and snapshot
// chunks are raw 12 B/edge images of the coordinator's shared SnapshotData
// buffer (on little-endian hosts the chunk body is a straight memcpy of the
// SnapshotEdge array). Every decode_* checks the exact payload size, and
// decode_record_bin bounds the count field by kMaxRecordMuts, so a lying
// header is a parse error, not an allocation.

[[nodiscard]] std::string encode_record_bin(const RepRecord& rec);
bool decode_record_bin(std::string_view p, RepRecord& out,
                       std::string* err = nullptr);

[[nodiscard]] std::string encode_snapshot_header_bin(const SnapshotHeader& h);
bool decode_snapshot_header_bin(std::string_view p, SnapshotHeader& out,
                                std::string* err = nullptr);

/// Builds one kSnapChunk payload from `count` edges starting at `edges`.
[[nodiscard]] std::string encode_snapshot_chunk(const SnapshotEdge* edges,
                                                std::size_t count);
/// Appends the chunk's edges to `out`; returns false on a malformed payload.
bool decode_snapshot_chunk(std::string_view p, std::vector<SnapshotEdge>& out,
                           std::string* err = nullptr);

[[nodiscard]] std::string encode_sync_bin(std::uint64_t replica,
                                          std::uint64_t seq);
bool decode_sync_bin(std::string_view p, std::uint64_t& replica,
                     std::uint64_t& seq, std::string* err = nullptr);
[[nodiscard]] std::string encode_ack_bin(std::uint64_t replica,
                                         std::uint64_t seq,
                                         std::uint64_t epoch);
bool decode_ack_bin(std::string_view p, std::uint64_t& replica,
                    std::uint64_t& seq, std::uint64_t& epoch,
                    std::string* err = nullptr);

}  // namespace ndg::dyn
