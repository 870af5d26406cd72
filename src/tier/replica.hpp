#pragma once
// Worker replica of the serving tier (docs/TIER.md).
//
// A replica owns a full DynGraph + IncrementalEngine of its own but never
// validates a mutation: it connects to the coordinator's replication socket,
// announces its cursor with a kSync frame (its first bytes; the stream is
// bin1 frames both ways, dyn/replication.hpp), and replays whatever arrives
// strictly in sequence — batch records through
// IncrementalEngine::replay_epoch (same warm-or-cold gate decision the
// coordinator made, taken independently from the replica's own
// EligibilityGate), compaction fences through compact_now(), and full
// snapshots by rebuilding the graph from the shipped canonical edge list and
// cold-recomputing. Each applied record is acked with the seq + epoch it
// brought the replica to; the ack is what releases the coordinator's
// window-of-1 for the next record. A frame it cannot decode, or a stream
// that breaks on its input (a frame length past kMaxFrameLen), is fatal: the
// replica exits with status 1. A coordinator that closes the stream, or a
// write that fails on it, ends the replica with status 0.
//
// Concurrently, the replica serves reads on its own socket
// (<dir>/replica-K.sock): `query`, `stats`, `quit` and the bin1 `hello`
// upgrade, decoded from either transport into one ClientOp
// (tier/client_op.hpp) and handled in one op switch (drain_client); any
// other op is answered as unknown. Replies carry the replica's epoch
// WATERMARK — the epoch of the last record it applied — so a client can
// tell how stale the answer is relative to the coordinator. Serving stale
// values is exactly the license the paper's Theorem 2 grants for monotone
// programs: a lagging replica's state is a valid intermediate state of the
// computation, and replaying the missing records from it converges to the
// same fixed point a fresh cold run would reach (docs/TIER.md spells out the
// argument).
//
// Chaos injection comes in two flavours (--chaos=hold:<ms>|stale:<records>,
// docs/TIER.md, docs/DELAY.md):
//   hold:  the replica sleeps that long before applying EACH replication
//          record or snapshot, so a test can hold a replica back until its
//          cursor falls past the coordinator's bounded history and the
//          snapshot path is forced.
//   stale: the replica applies records at full speed but SERVES reads from a
//          retained state up to N records old — the serving-tier analogue of
//          the engines' bounded propagation delay d: every answer is a real
//          state the replica passed through at most N records ago, stamped
//          with that state's honest epoch. Theorem 2's stale-read license is
//          exactly what makes this sound for monotone programs.

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dyn/dyn_graph.hpp"
#include "dyn/eligibility_gate.hpp"
#include "dyn/incremental.hpp"
#include "dyn/replication.hpp"
#include "dyn/wire.hpp"
#include "graph/graph.hpp"
#include "tier/client_op.hpp"
#include "tier/net.hpp"

namespace ndg::tier {

struct ReplicaOptions {
  std::size_t id = 0;
  std::string dir;
  std::uint32_t chaos_hold_ms = 0;  // hold: sleep before applying each record
  /// stale: serve reads from a retained state up to this many records old
  /// (0 = serve the latest applied state, no chaos).
  std::uint32_t chaos_stale_records = 0;
};

template <VertexProgram Program>
class Replica {
 public:
  /// `graph_opts` is kept (minus its base_weight, which a snapshot replaces
  /// with the shipped weights) so a re-seeded graph keeps the same
  /// compaction threshold and memory placement as the original.
  Replica(dyn::DynGraph graph, Program prog, dyn::EligibilityGate gate,
          EngineOptions eopts, dyn::DynEngine ekind,
          dyn::DynGraphOptions graph_opts, ReplicaOptions opts)
      : g_(std::move(graph)),
        prog_(std::move(prog)),
        gate_(std::move(gate)),
        eopts_(eopts),
        ekind_(ekind),
        graph_opts_(std::move(graph_opts)),
        opts_(std::move(opts)) {
    inc_.emplace(g_, prog_, gate_, eopts_, ekind_);
    inc_->recompute_cold();
    push_history();
    listen_fd_ = listen_unix(replica_sock(opts_.dir, opts_.id));
    rep_.fd = connect_unix(rep_sock(opts_.dir));
    set_nonblocking(rep_.fd);
    rep_.proto = dyn::WireProto::kBin;
    rep_.queue_frame(dyn::FrameType::kSync,
                     dyn::encode_sync_bin(opts_.id, cursor_));
    rep_.flush();
  }

  ~Replica() {
    rep_.close_fd();
    for (auto& [id, c] : clients_) c.close_fd();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(replica_sock(opts_.dir, opts_.id).c_str());
  }

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// 0 after a sanctioned stop or the coordinator going away; 1 after a
  /// malformed replication frame or stream (die), so the launcher sees a
  /// crash.
  int run() {
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> owner;  // 0 = listener/replication stream
    while (!stop_) {
      pfds.clear();
      owner.clear();
      pfds.push_back({listen_fd_, POLLIN, 0});
      owner.push_back(0);
      {
        short ev = POLLIN;
        if (!rep_.out_buf.empty()) ev |= POLLOUT;
        pfds.push_back({rep_.fd, ev, 0});
        owner.push_back(0);
      }
      for (auto& [id, c] : clients_) {
        short ev = 0;
        if (!c.eof && !c.draining) ev |= POLLIN;
        if (!c.out_buf.empty()) ev |= POLLOUT;
        if (ev == 0) continue;
        pfds.push_back({c.fd, ev, 0});
        owner.push_back(id);
      }
      const int rc = ::poll(pfds.data(), pfds.size(), -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        std::cerr << "ndg_tier: replica " << opts_.id
                  << " poll failed: " << std::strerror(errno) << "\n";
        return 1;
      }
      for (std::size_t i = 0; i < pfds.size() && !stop_; ++i) {
        const short re = pfds[i].revents;
        if (re == 0) continue;
        if (pfds[i].fd == listen_fd_) {
          accept_clients();
        } else if (pfds[i].fd == rep_.fd) {
          if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) rep_.read_input();
          if ((re & POLLOUT) != 0) rep_.flush();
          drain_replication();
          // Coordinator gone: eof after the stream drained, or a failed ack
          // (it can close mid-replay if shutdown races an in-flight record).
          // A stream whose input broke is a failure, not a goodbye.
          if (!rep_.input_error.empty()) die(rep_.input_error);
          if (rep_.broken || (rep_.eof && rep_.frames.empty())) {
            stop_ = true;
          }
        } else if (auto it = clients_.find(owner[i]); it != clients_.end()) {
          LineConn& c = it->second;
          if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) c.read_input();
          if ((re & POLLOUT) != 0) c.flush();
          drain_client(c);
        }
      }
      reap();
    }
    return failed_ ? 1 : 0;
  }

 private:
  enum class StreamState {
    kIdle,           // expecting a record or snapshot header
    kSnapshotEdges,  // inside a snapshot, `need_` edges left
  };

  // --- Replication stream ---

  /// A whole batch record arrives in ONE kRepRecord frame; snapshots keep
  /// the header → chunks → done shape with `need_` counting down per chunk.
  void drain_replication() {
    while (!stop_ && !rep_.frames.empty()) {
      const dyn::Frame f = std::move(rep_.frames.front());
      rep_.frames.pop_front();
      std::string err;
      switch (f.type) {
        case dyn::FrameType::kShutdown:
          // Snapshots stream in chunks, so a tier-wide stop can land
          // mid-snapshot; honour it from any state.
          stop_ = true;
          return;
        case dyn::FrameType::kRepRecord:
          if (state_ != StreamState::kIdle) {
            die("record frame inside a snapshot");
            return;
          }
          if (!dyn::decode_record_bin(f.payload, cur_rec_, &err)) {
            die(err);
            return;
          }
          complete_record();
          break;
        case dyn::FrameType::kSnapshot:
          if (state_ != StreamState::kIdle) {
            die("snapshot header inside a snapshot");
            return;
          }
          if (!dyn::decode_snapshot_header_bin(f.payload, snap_header_,
                                               &err)) {
            die(err);
            return;
          }
          snap_edges_.clear();
          snap_weights_.clear();
          need_ = snap_header_.edges;
          if (need_ == 0) {
            install_snapshot();
          } else {
            state_ = StreamState::kSnapshotEdges;
          }
          break;
        case dyn::FrameType::kSnapChunk: {
          if (state_ != StreamState::kSnapshotEdges) {
            die("unexpected snapshot chunk");
            return;
          }
          std::vector<dyn::SnapshotEdge> chunk;
          if (!dyn::decode_snapshot_chunk(f.payload, chunk, &err)) {
            die(err);
            return;
          }
          if (chunk.size() > need_) {
            die("snapshot chunk overruns header");
            return;
          }
          for (const dyn::SnapshotEdge& e : chunk) {
            snap_edges_.push_back(Edge{e.src, e.dst});
            snap_weights_.push_back(e.weight);
          }
          need_ -= chunk.size();
          if (need_ == 0) install_snapshot();
          break;
        }
        default:
          die("unexpected replication frame");
          return;
      }
    }
  }

  void chaos_hold() {
    if (opts_.chaos_hold_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.chaos_hold_ms));
    }
  }

  // --- Stale-serving chaos (bounded per-record staleness) ---

  /// Retains the just-applied state in the serving ring. The ring holds at
  /// most chaos_stale_records+1 states; reads are answered from its OLDEST
  /// entry, so the served state is at most chaos_stale_records behind the
  /// replica's applied watermark — a bounded delay, never an unbounded one.
  void push_history() {
    if (opts_.chaos_stale_records == 0) return;
    history_.push_back(ServedState{prog_.values(), epoch_, cursor_});
    while (history_.size() >
           static_cast<std::size_t>(opts_.chaos_stale_records) + 1) {
      history_.pop_front();
    }
  }

  /// Reads run on the loop that replays, never during a replay, so without
  /// stale chaos they read the program's own state directly.
  [[nodiscard]] double serve_value(VertexId v) const {
    return history_.empty() ? prog_.value(v) : history_.front().values[v];
  }
  [[nodiscard]] std::uint64_t serve_epoch() const {
    return history_.empty() ? epoch_ : history_.front().epoch;
  }
  /// How many applied records behind the watermark reads currently are.
  [[nodiscard]] std::uint64_t serve_lag() const {
    return history_.empty() ? 0 : history_.size() - 1;
  }

  void complete_record() {
    chaos_hold();
    if (cur_rec_.kind == dyn::RepKind::kBatch) {
      inc_->replay_epoch(cur_rec_.epoch, cur_rec_.muts,
                         cur_rec_.compact_after);
    } else {
      inc_->compact_now();
    }
    cursor_ = cur_rec_.seq;
    epoch_ = cur_rec_.epoch;
    push_history();
    ++records_replayed_;
    cur_rec_ = dyn::RepRecord{};
    state_ = StreamState::kIdle;
    send_ack();
  }

  void send_ack() {
    rep_.queue_frame(dyn::FrameType::kAck,
                     dyn::encode_ack_bin(opts_.id, cursor_, epoch_));
    rep_.flush();
  }

  /// Re-seed from a canonical snapshot: rebuild the base CSR from the
  /// shipped (src, dst)-sorted edge list — edge k gets id k, matching the
  /// coordinator's post-compaction ids — attach the shipped weights as the
  /// base weights, re-create the engine over the new graph and cold-run it.
  void install_snapshot() {
    chaos_hold();
    dyn::DynGraphOptions gopts = graph_opts_;
    auto weights =
        std::make_shared<std::vector<float>>(std::move(snap_weights_));
    gopts.base_weight = [weights](EdgeId e) { return (*weights)[e]; };
    inc_.reset();  // engine's DynGraph* would dangle across the swap
    g_ = dyn::DynGraph(
        Graph::build(snap_header_.vertices, std::move(snap_edges_)),
        std::move(gopts));
    snap_edges_ = EdgeList{};
    snap_weights_ = std::vector<float>{};
    inc_.emplace(g_, prog_, gate_, eopts_, ekind_);
    inc_->recompute_cold();
    cursor_ = snap_header_.seq;
    epoch_ = snap_header_.epoch;
    // A snapshot starts a fresh lineage: pre-snapshot states belong to a
    // graph this replica discarded, so stale serving must not hand them out.
    history_.clear();
    push_history();
    ++snapshots_installed_;
    state_ = StreamState::kIdle;
    send_ack();
  }

  void die(const std::string& what) {
    std::cerr << "ndg_tier: replica " << opts_.id << ": " << what << "\n";
    rep_.broken = true;
    failed_ = true;
    stop_ = true;
  }

  // --- Read serving ---

  void accept_clients() {
    for (int fd; (fd = accept_nonblocking(listen_fd_)) >= 0;) {
      LineConn& c = clients_[++next_client_id_];
      c.fd = fd;
      c.queue_line(dyn::WireWriter()
                       .boolean("ok", true)
                       .boolean("ready", true)
                       .str("role", "replica")
                       .u64("replica", opts_.id)
                       .str("algo", prog_.name())
                       .finish());
    }
  }

  /// The op switch. Reads never wait: replay runs on this same loop. Query
  /// replies carry the replica's epoch WATERMARK on both transports (the
  /// replica id travels only on the JSON shape — a binary client knows which
  /// socket it dialed).
  void drain_client(LineConn& c) {
    constexpr OpSet kServed = op_bit(OpKind::kHello) | op_bit(OpKind::kQuery) |
                              op_bit(OpKind::kStats) | op_bit(OpKind::kQuit);
    ClientOp op;
    while (!c.draining && !c.broken && decode_op(c, kServed, op)) {
      switch (op.kind) {
        case OpKind::kHello:
          accept_hello(c);
          continue;
        case OpKind::kQuery:
          if (op.vertex >= g_.num_vertices()) {
            reply_error(c, "query: vertex out of range: " +
                               std::to_string(op.vertex));
          } else {
            dyn::QueryReplyBin qr;
            qr.vertex = op.vertex;
            qr.value = serve_value(static_cast<VertexId>(op.vertex));
            qr.epoch = serve_epoch();
            reply_query(c, qr, opts_.id);
          }
          break;
        case OpKind::kStats:
          reply_json(c, stats_line());
          break;
        case OpKind::kQuit:
          reply_bye(c);
          c.draining = true;
          break;
        default:
          reply_error(c, op.error);
          break;
      }
      pop_op(c);
    }
    c.flush();
  }

  [[nodiscard]] std::string stats_line() const {
    return dyn::WireWriter()
        .boolean("ok", true)
        .str("role", "replica")
        .u64("replica", opts_.id)
        .str("algo", prog_.name())
        .u64("epoch_watermark", epoch_)
        .u64("seq", cursor_)
        .u64("records_replayed", records_replayed_)
        .u64("snapshots_installed", snapshots_installed_)
        .u64("vertices", g_.num_vertices())
        .u64("live_edges", g_.num_live_edges())
        .u64("warm_runs", inc_->warm_runs())
        .u64("cold_runs", inc_->cold_runs())
        .u64("chaos_stale_records", opts_.chaos_stale_records)
        .u64("serving_epoch", serve_epoch())
        .u64("serving_lag", serve_lag())
        .finish();
  }

  void reap() {
    for (auto it = clients_.begin(); it != clients_.end();) {
      if (it->second.finished()) {
        it->second.close_fd();
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
  }

  dyn::DynGraph g_;
  Program prog_;
  dyn::EligibilityGate gate_;  // copied into each re-created engine
  EngineOptions eopts_;
  dyn::DynEngine ekind_;
  dyn::DynGraphOptions graph_opts_;
  ReplicaOptions opts_;
  std::optional<dyn::IncrementalEngine<Program>> inc_;

  /// One retained serving state for the stale chaos mode.
  struct ServedState {
    std::vector<double> values;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
  };
  std::deque<ServedState> history_;  // oldest first; front is served

  LineConn rep_;  // replication stream to the coordinator
  int listen_fd_ = -1;
  std::map<std::uint64_t, LineConn> clients_;
  std::uint64_t next_client_id_ = 0;

  StreamState state_ = StreamState::kIdle;
  dyn::RepRecord cur_rec_;
  dyn::SnapshotHeader snap_header_;
  EdgeList snap_edges_;
  std::vector<float> snap_weights_;
  std::uint64_t need_ = 0;
  std::uint64_t cursor_ = 0;  // last applied seq
  std::uint64_t epoch_ = 0;   // epoch watermark
  std::uint64_t records_replayed_ = 0;
  std::uint64_t snapshots_installed_ = 0;
  bool stop_ = false;
  bool failed_ = false;  // die() ran: exit 1
};

}  // namespace ndg::tier
