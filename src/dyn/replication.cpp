#include "dyn/replication.hpp"

#include <bit>
#include <cstring>
#include <utility>

namespace ndg::dyn {

const RepRecord& ReplicationLog::push(RepRecord rec) {
  rec.seq = next_seq_++;
  records_.push_back(std::move(rec));
  while (records_.size() > history_limit_) records_.pop_front();
  return records_.back();
}

const RepRecord& ReplicationLog::append_batch(
    std::uint64_t epoch, std::vector<AppliedMutation> muts,
    bool compact_after) {
  RepRecord rec;
  rec.kind = RepKind::kBatch;
  rec.epoch = epoch;
  rec.muts = std::move(muts);
  rec.compact_after = compact_after;
  return push(std::move(rec));
}

const RepRecord& ReplicationLog::append_compact(std::uint64_t epoch) {
  RepRecord rec;
  rec.kind = RepKind::kCompact;
  rec.epoch = epoch;
  return push(std::move(rec));
}

std::uint64_t ReplicationLog::oldest_seq() const {
  return records_.empty() ? next_seq_ : records_.front().seq;
}

bool ReplicationLog::has(std::uint64_t seq) const {
  return !records_.empty() && seq >= records_.front().seq &&
         seq < next_seq_;
}

const RepRecord& ReplicationLog::get(std::uint64_t seq) const {
  return records_[seq - records_.front().seq];
}

namespace {

constexpr std::size_t kAppliedBytes = 25;  // kind|src|dst|id|weight|old
constexpr std::size_t kSnapEdgeBytes = 12;  // src u32 | dst u32 | weight f32

bool fail(std::string* err, const char* what) {
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

std::string encode_record_bin(const RepRecord& rec) {
  std::string s;
  s.reserve(8 + 1 + 8 + 1 + 4 + rec.muts.size() * kAppliedBytes);
  put_u64(s, rec.seq);
  put_u8(s, static_cast<std::uint8_t>(rec.kind));
  put_u64(s, rec.epoch);
  put_u8(s, rec.compact_after ? 1 : 0);
  put_u32(s, static_cast<std::uint32_t>(rec.muts.size()));
  for (const AppliedMutation& m : rec.muts) {
    put_u8(s, static_cast<std::uint8_t>(m.kind));
    put_u32(s, m.src);
    put_u32(s, m.dst);
    put_u64(s, m.id);
    put_f32(s, m.weight);
    put_f32(s, m.old_weight);
  }
  return s;
}

bool decode_record_bin(std::string_view p, RepRecord& out, std::string* err) {
  std::size_t off = 0;
  std::uint8_t kind = 0;
  std::uint8_t compact = 0;
  std::uint32_t count = 0;
  if (!get_u64(p, off, out.seq) || !get_u8(p, off, kind) ||
      !get_u64(p, off, out.epoch) || !get_u8(p, off, compact) ||
      !get_u32(p, off, count)) {
    return fail(err, "replicate: truncated record header");
  }
  if (kind > static_cast<std::uint8_t>(RepKind::kCompact)) {
    return fail(err, "replicate: unknown kind byte");
  }
  out.kind = static_cast<RepKind>(kind);
  out.compact_after = compact != 0;
  // A wire count above the record bound is a parse error, and the
  // exact-size check below makes any count that disagrees with the frame a
  // parse error too (never a bad reserve — kMaxFrameLen already bounds what
  // can reach this function).
  if (count > kMaxRecordMuts) {
    return fail(err, "replicate: count exceeds record bound");
  }
  if (p.size() != off + static_cast<std::uint64_t>(count) * kAppliedBytes) {
    return fail(err, "replicate: count disagrees with payload size");
  }
  out.muts.clear();
  out.muts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    AppliedMutation m{};
    std::uint8_t mk = 0;
    get_u8(p, off, mk);
    get_u32(p, off, m.src);
    get_u32(p, off, m.dst);
    std::uint64_t id = 0;
    get_u64(p, off, id);
    m.id = static_cast<EdgeId>(id);
    get_f32(p, off, m.weight);
    get_f32(p, off, m.old_weight);
    if (mk > static_cast<std::uint8_t>(MutationKind::kWeightChange)) {
      return fail(err, "rmut: unknown kind byte");
    }
    m.kind = static_cast<MutationKind>(mk);
    out.muts.push_back(m);
  }
  return true;
}

std::string encode_snapshot_header_bin(const SnapshotHeader& h) {
  std::string s;
  put_u64(s, h.seq);
  put_u64(s, h.epoch);
  put_u32(s, h.vertices);
  put_u64(s, h.edges);
  return s;
}

bool decode_snapshot_header_bin(std::string_view p, SnapshotHeader& out,
                                std::string* err) {
  std::size_t off = 0;
  std::uint64_t edges = 0;
  if (!get_u64(p, off, out.seq) || !get_u64(p, off, out.epoch) ||
      !get_u32(p, off, out.vertices) || !get_u64(p, off, edges) ||
      off != p.size()) {
    return fail(err, "snapshot: malformed header payload");
  }
  out.edges = static_cast<EdgeId>(edges);
  return true;
}

std::string encode_snapshot_chunk(const SnapshotEdge* edges,
                                  std::size_t count) {
  std::string s;
  s.reserve(4 + count * kSnapEdgeBytes);
  put_u32(s, static_cast<std::uint32_t>(count));
  static_assert(sizeof(SnapshotEdge) == kSnapEdgeBytes,
                "SnapshotEdge must stay a packed 12-byte triple");
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory array IS the wire image: ship the coordinator's shared
    // snapshot buffer directly instead of re-encoding per edge.
    s.append(reinterpret_cast<const char*>(edges),  // ndg-lint: allow(raw-cast)
             count * kSnapEdgeBytes);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      put_u32(s, edges[i].src);
      put_u32(s, edges[i].dst);
      put_f32(s, edges[i].weight);
    }
  }
  return s;
}

bool decode_snapshot_chunk(std::string_view p, std::vector<SnapshotEdge>& out,
                           std::string* err) {
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!get_u32(p, off, count)) {
    return fail(err, "sedge: truncated chunk payload");
  }
  if (p.size() != 4 + static_cast<std::uint64_t>(count) * kSnapEdgeBytes) {
    return fail(err, "sedge: count disagrees with payload size");
  }
  out.reserve(out.size() + count);
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t base = out.size();
    out.resize(base + count);
    std::memcpy(out.data() + base, p.data() + off, count * kSnapEdgeBytes);
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      SnapshotEdge e;
      get_u32(p, off, e.src);
      get_u32(p, off, e.dst);
      get_f32(p, off, e.weight);
      out.push_back(e);
    }
  }
  return true;
}

std::string encode_sync_bin(std::uint64_t replica, std::uint64_t seq) {
  std::string s;
  put_u64(s, replica);
  put_u64(s, seq);
  return s;
}

bool decode_sync_bin(std::string_view p, std::uint64_t& replica,
                     std::uint64_t& seq, std::string* err) {
  std::size_t off = 0;
  if (!get_u64(p, off, replica) || !get_u64(p, off, seq) ||
      off != p.size()) {
    return fail(err, "sync: malformed payload");
  }
  return true;
}

std::string encode_ack_bin(std::uint64_t replica, std::uint64_t seq,
                           std::uint64_t epoch) {
  std::string s;
  put_u64(s, replica);
  put_u64(s, seq);
  put_u64(s, epoch);
  return s;
}

bool decode_ack_bin(std::string_view p, std::uint64_t& replica,
                    std::uint64_t& seq, std::uint64_t& epoch,
                    std::string* err) {
  std::size_t off = 0;
  if (!get_u64(p, off, replica) || !get_u64(p, off, seq) ||
      !get_u64(p, off, epoch) || off != p.size()) {
    return fail(err, "ack: malformed payload");
  }
  return true;
}

}  // namespace ndg::dyn
