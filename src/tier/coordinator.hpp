#pragma once
// Coordinator: the serving front-end (docs/TIER.md, docs/DYNAMIC.md).
//
// One front-end, two launchers. ndg_tier binds <dir>/coord.sock for clients
// and <dir>/rep.sock for its forked replicas; ndg_serve binds --socket=PATH
// with no replication socket, or speaks to one client over stdin/stdout.
// Every client line or frame decodes to one ClientOp (tier/client_op.hpp),
// handled in one op switch (serve) whatever the transport, and every epoch
// runs through the same two functions (run_epoch, finish_epoch).
// Replication peers on rep.sock speak bin1 frames only
// (dyn/replication.hpp), from their first byte.
//
// The coordinator is the ONLY process that owns a MutationLog: every write
// enters here, is sealed into an epoch batch on `recompute`, applied to the
// coordinator's own DynGraph + IncrementalEngine (so the coordinator always
// holds an authoritative quiescent result), and the *validated*
// AppliedMutation records — ids already assigned — are appended to a bounded
// ReplicationLog and streamed to every connected replica. Replicas never
// validate or allocate; they replay the shipped records verbatim
// (DynGraph::apply_replicated), which keeps their edge-id spaces identical
// to the coordinator's.
//
// Flow control is a window of ONE record per replica: the next record is
// sent only after the previous one is acked. A replica that stalls (or is
// held with --chaos=hold:<ms>) therefore genuinely falls behind while the
// coordinator keeps sealing epochs; once its cursor drops past the bounded
// history the coordinator stops trying to stream and re-seeds it with a full
// canonical snapshot instead. If any topology mutation landed since the last
// compaction (DynGraph::ids_canonical — NOT overflow_ratio, which the edge-id
// freelist can return to 0 with ids out of order) it compacts first and
// appends an in-stream kCompact fence for the replicas that are current, so
// the shipped edge list is in canonical (src, dst) order and edge k's id is
// k on both sides. Snapshot edges are NOT queued into the peer's out buffer
// in one O(E) shot: the edge list is materialized once into a shared
// immutable SnapshotData (consistent even if later epochs mutate the graph
// mid-stream — the records appended after the snapshot point replay on top)
// and each lagging peer streams from it behind its own cursor as POLLOUT
// drains, keeping per-peer buffered output bounded.
//
// Threading: one poll() loop plus one epoch worker. `recompute` seals the
// batch on the loop and hands it to the worker, which runs apply_epoch
// without compaction and wakes the loop through a self-pipe; the loop then
// finishes the epoch (deferred compaction, ready-line refresh,
// ReplicationLog append, peer pump, the issuer's reply). While an epoch is in
// flight the loop touches g_, inc_ and prog_ only through live_value in the
// kRunning phase: `recompute`, `stats` and plain queries wait for the epoch
// to land, and so does a peer that needs a snapshot or a compaction fence;
// mutate, mbatch, hello, quit and decode errors are answered at once. A plain
// query is answered only when no epoch is in flight, so it reads the
// program's own state (prog_.value) with no per-epoch copy. replog_ and
// snap_cache_ are written on the loop thread only. Stdio has no worker: each
// epoch runs inline through the same two functions.
//
// --live-queries: a query that arrives while the worker is inside its racy
// engine run is answered FROM THE LIVE EDGE ARRAYS through the configured
// access policy — licensed by Lemma 1 (individual edge reads are atomic) —
// labeled "quiescent":false and stamped with the in-flight epoch. Quiescent
// answers then carry "quiescent":true; without the flag neither label
// appears and queries queue behind the epoch.

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dyn/dyn_graph.hpp"
#include "dyn/eligibility_gate.hpp"
#include "dyn/incremental.hpp"
#include "dyn/mutation_log.hpp"
#include "dyn/replication.hpp"
#include "dyn/wire.hpp"
#include "tier/client_op.hpp"
#include "tier/net.hpp"

namespace ndg::tier {

/// Which client op stops the whole server. `quit` always closes its own
/// connection, and on stdio that connection is the server.
enum class StopOp {
  kNone,      // ndg_serve: no client may stop the server
  kShutdown,  // ndg_tier: the `shutdown` op and the kShutdown frame
  kQuit,      // ndg_serve --allow-shutdown: `quit` and the kQuit frame
};

/// Launch settings of one coordinator (tools/serve_launch.hpp fills them).
struct CoordinatorOptions {
  std::string client_socket;  // client endpoint; empty = stdin/stdout
  std::string rep_socket;     // replication endpoint; empty = no replicas
  std::size_t history = 64;   // ReplicationLog bound (records retained)
  StopOp stop = StopOp::kShutdown;
  bool live_queries = false;        // answer queries mid-run (labeled racy)
  std::uint32_t epoch_hold_ms = 0;  // test aid: stretch the engine-run phase
};

/// Compact wire token for the verdict (core's to_string is a prose line).
inline const char* verdict_token(EligibilityVerdict v) {
  switch (v) {
    case EligibilityVerdict::kTheorem1: return "theorem-1";
    case EligibilityVerdict::kTheorem2: return "theorem-2";
    case EligibilityVerdict::kNotProven: return "not-proven";
  }
  return "unknown";
}

template <VertexProgram Program>
class Coordinator {
 public:
  Coordinator(dyn::DynGraph graph, Program prog, dyn::EligibilityGate gate,
              EngineOptions eopts, dyn::DynEngine ekind,
              CoordinatorOptions opts)
      : g_(std::move(graph)),
        prog_(std::move(prog)),
        inc_(g_, prog_, std::move(gate), eopts, ekind),
        replog_(opts.history),
        opts_(std::move(opts)),
        num_vertices_(g_.num_vertices()) {
    inc_.set_run_hold_ms(opts_.epoch_hold_ms);
    inc_.recompute_cold();
    ready_ = ready_line();
    if (!opts_.client_socket.empty()) {
      client_listen_ = listen_unix(opts_.client_socket);
    }
    if (!opts_.rep_socket.empty()) rep_listen_ = listen_unix(opts_.rep_socket);
  }

  ~Coordinator() {
    if (worker_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_worker_ = true;
      }
      cv_.notify_one();
      worker_.join();
    }
    for (auto& [id, c] : clients_) c.conn.close_fd();
    for (auto& [id, p] : peers_) p.conn.close_fd();
    for (const int fd : {client_listen_, rep_listen_, wake_r_, wake_w_}) {
      if (fd >= 0) ::close(fd);
    }
    if (client_listen_ >= 0) ::unlink(opts_.client_socket.c_str());
    if (rep_listen_ >= 0) ::unlink(opts_.rep_socket.c_str());
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Serves until a sanctioned stop (or stdin EOF); 1 if a replica child
  /// crashed along the way.
  int run() {
    if (client_listen_ < 0) return run_stdio();
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");
    wake_r_ = pipe_fds[0];
    wake_w_ = pipe_fds[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
    worker_ = std::thread([this] { worker_main(); });

    std::vector<pollfd> pfds;
    std::vector<std::pair<std::uint64_t, bool>> owner;  // (id, is peer)
    while (!exit_ready()) {
      pfds.clear();
      owner.clear();
      const auto add = [&](int fd, short events, std::uint64_t id, bool peer) {
        if (fd < 0 || events == 0) return;
        pfds.push_back({fd, events, 0});
        owner.emplace_back(id, peer);
      };
      add(wake_r_, POLLIN, 0, false);
      if (!shutdown_) {
        add(client_listen_, POLLIN, 0, false);
        add(rep_listen_, POLLIN, 0, false);
      }
      // After a stop nothing more is read; out buffers still drain.
      const auto events = [this](const LineConn& c) {
        const bool in = !c.eof && !c.draining && !shutdown_;
        return static_cast<short>((in ? POLLIN : 0) |
                                  (c.out_buf.empty() ? 0 : POLLOUT));
      };
      for (auto& [id, c] : clients_) add(c.conn.fd, events(c.conn), id, false);
      for (auto& [id, p] : peers_) add(p.conn.fd, events(p.conn), id, true);
      // A live query waiting for the kRunning phase has no fd to wake it.
      const int timeout = (inflight_ && opts_.live_queries) ? 5 : -1;
      if (::poll(pfds.data(), pfds.size(), timeout) < 0) {
        if (errno == EINTR) continue;
        std::cerr << "coordinator: poll failed: " << std::strerror(errno)
                  << "\n";
        return 1;
      }
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        const short re = pfds[i].revents;
        if (re == 0) continue;
        const auto [id, peer] = owner[i];
        if (pfds[i].fd == wake_r_) {
          on_wake();
        } else if (pfds[i].fd == client_listen_ || pfds[i].fd == rep_listen_) {
          accept_into(pfds[i].fd, pfds[i].fd == rep_listen_);
        } else if (peer) {
          if (auto it = peers_.find(id); it != peers_.end()) {
            RepPeer& p = it->second;
            if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) p.conn.read_input();
            if ((re & POLLOUT) != 0) p.conn.flush();
            drain_peer(p);
          }
        } else if (auto it = clients_.find(id); it != clients_.end()) {
          LineConn& c = it->second.conn;
          if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) c.read_input();
          if ((re & POLLOUT) != 0) c.flush();
        }
      }
      for (auto& [id, c] : clients_) dispatch(id, c);
      reap();
    }
    return children_crashed_ > 0 ? 1 : 0;
  }

  /// Lowest epoch every connected, synced replica has acked — the tier's
  /// guaranteed-visible watermark. Coordinator epoch when no replica is up.
  [[nodiscard]] std::uint64_t min_acked_epoch() const {
    std::uint64_t lo = log_.epoch();
    for (const auto& [id, p] : peers_) {
      if (p.synced && p.acked_epoch < lo) lo = p.acked_epoch;
    }
    return lo;
  }

 private:
  static constexpr bool kLiveCapable =
      dyn::IncrementalEngine<Program>::kLiveQueryCapable;

  struct Client {
    LineConn conn;
    bool awaiting_epoch = false;  // this client's recompute is in flight
  };

  /// One consistent snapshot: the canonical live edge list at the moment
  /// `header.seq` was the newest record. Shared (immutable) between every
  /// peer re-seeding from the same point; 12 bytes/edge, encoded lazily
  /// per peer as its socket drains.
  struct SnapshotData {
    dyn::SnapshotHeader header;
    std::vector<dyn::SnapshotEdge> edges;
  };

  struct RepPeer {
    LineConn conn;
    bool synced = false;       // sync handshake received
    std::uint64_t replica_id = 0;
    std::uint64_t next_seq = 1;    // next record this replica needs
    bool awaiting_ack = false;     // window-of-1 flow control
    std::uint64_t acked_seq = 0;
    std::uint64_t acked_epoch = 0;
    std::shared_ptr<const SnapshotData> snap;  // in-flight snapshot, if any
    std::size_t snap_pos = 0;                  // next edge to encode
  };

  /// What the worker hands back: the epoch's result and its validated
  /// records, or the exception apply_epoch threw.
  struct Landed {
    dyn::EpochResult result;
    std::vector<dyn::AppliedMutation> shipped;
    std::exception_ptr error;
  };

  /// Per-peer bound on buffered, not-yet-flushed snapshot output: streaming
  /// pauses once out_buf reaches this and resumes as POLLOUT drains it.
  static constexpr std::size_t kSnapshotChunkBytes = 256 * 1024;

  /// Edges per kSnapChunk frame (~96 KiB of payload); the
  /// kSnapshotChunkBytes backlog bound still governs how many frames are
  /// buffered at once.
  static constexpr std::size_t kSnapEdgesPerChunk = 8192;

  /// Stdio transport: one implicit JSON client, read with getline on this
  /// thread (stdin and stdout keep their blocking mode) and answered through
  /// the same op switch; recompute runs inline.
  int run_stdio() {
    const std::uint64_t id = ++next_id_;
    Client& c = clients_[id];
    c.conn.fd = STDOUT_FILENO;
    c.conn.queue_line(ready_);
    c.conn.bytes_out = 0;  // stdio counts replies only, not the ready line
    std::string line;
    while (!c.conn.draining && !c.conn.broken &&
           std::getline(std::cin, line)) {
      c.conn.bytes_in += line.size() + 1;
      c.conn.pending.push_back(std::move(line));
      dispatch(id, c);
    }
    c.conn.fd = -1;  // stdout is not ours to close
    return 0;
  }

  // --- Epoch worker ---

  void worker_main() {
    for (;;) {
      dyn::MutationBatch batch;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_worker_ || job_.has_value(); });
        if (stop_worker_) return;
        batch = std::move(*job_);
        job_.reset();
      }
      Landed landed = run_epoch(batch);
      {
        std::lock_guard<std::mutex> lk(mu_);
        done_ = std::move(landed);
      }
      // Self-pipe wakeup; a full pipe already guarantees a pending wake.
      const char b = 1;
      while (::write(wake_w_, &b, 1) < 0 && errno == EINTR) {
      }
    }
  }

  /// The epoch's racy part: the worker's only call (stdio calls it inline).
  /// Compaction is deferred to finish_epoch so live readers never race a
  /// CSR rebuild.
  Landed run_epoch(const dyn::MutationBatch& batch) {
    Landed l;
    try {
      l.result = inc_.apply_epoch(batch, /*auto_compact=*/false, &l.shipped);
    } catch (...) {
      l.error = std::current_exception();
    }
    return l;
  }

  void on_wake() {
    char buf[64];
    while (::read(wake_r_, buf, sizeof buf) > 0) {
    }
    std::optional<Landed> landed;
    {
      std::lock_guard<std::mutex> lk(mu_);
      landed.swap(done_);
    }
    if (landed) finish_epoch(std::move(*landed));
  }

  /// Seals the pending tail and runs it as the next epoch on behalf of `c`:
  /// on the worker when there is one, otherwise inline.
  void start_epoch(std::uint64_t id, Client& c) {
    dyn::MutationBatch batch = log_.seal();
    inflight_ = true;
    inflight_client_ = id;
    inflight_epoch_ = batch.epoch;
    c.awaiting_epoch = true;
    if (!worker_.joinable()) {
      finish_epoch(run_epoch(batch));
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = std::move(batch);
    }
    cv_.notify_one();
  }

  /// Loop thread, worker idle: the deferred compaction, the quiescent
  /// caches, the replication append and peer pump, then the issuer's reply.
  void finish_epoch(Landed landed) {
    if (landed.error) std::rethrow_exception(landed.error);
    dyn::EpochResult& r = landed.result;
    r.compacted = g_.should_compact();
    if (r.compacted) inc_.compact_now();
    ready_ = ready_line();
    replog_.append_batch(inflight_epoch_, std::move(landed.shipped),
                         r.compacted);
    snap_cache_.reset();  // graph/seq moved on; peers mid-stream keep theirs
    inflight_ = false;
    // The record goes out before the reply: replica replay, not the reply,
    // is on the path to a visible write.
    pump_all_peers();
    if (auto it = clients_.find(inflight_client_); it != clients_.end()) {
      Client& c = it->second;
      c.awaiting_epoch = false;
      reply_recompute(c.conn, recompute_bin(r));
    }
  }

  // --- Client ops (every transport) ---

  void accept_into(int listen_fd, bool peer) {
    for (int fd; (fd = accept_nonblocking(listen_fd)) >= 0;) {
      const std::uint64_t id = ++next_id_;
      if (peer) {
        // rep.sock speaks bin1 frames from byte 0 in both directions.
        LineConn& c = peers_[id].conn;
        c.fd = fd;
        c.proto = dyn::WireProto::kBin;
      } else {
        LineConn& c = clients_[id].conn;
        c.fd = fd;
        c.queue_line(ready_);
      }
    }
  }

  /// Refreshed at every quiescent point, so a client accepted mid-epoch gets
  /// the last landed state without the loop touching g_.
  [[nodiscard]] std::string ready_line() const {
    return dyn::WireWriter()
        .boolean("ok", true)
        .boolean("ready", true)
        .str("role", "coordinator")
        .str("algo", prog_.name())
        .str("verdict", verdict_token(inc_.gate().verdict()))
        .str("engine", to_string(inc_.engine_kind()))
        .u64("vertices", g_.num_vertices())
        .u64("live_edges", g_.num_live_edges())
        .finish();
  }

  /// Runs the client's queued ops strictly in order, stopping at the first
  /// that must wait for the in-flight epoch, so each client sees one reply
  /// per op in send order. A hello upgrade switches the same pass from lines
  /// to frames; replies are flushed once at the end.
  void dispatch(std::uint64_t id, Client& c) {
    ClientOp op;
    while (!c.awaiting_epoch && !c.conn.draining && !c.conn.broken &&
           decode_op(c.conn, kAllOps, op) && serve(id, c, op)) {
    }
    c.conn.flush();
  }

  /// The op switch. False when `op` waits for the in-flight epoch: it stays
  /// queued and is decoded again once the epoch lands.
  bool serve(std::uint64_t id, Client& c, const ClientOp& op) {
    LineConn& conn = c.conn;
    switch (op.kind) {
      case OpKind::kHello:
        if (client_listen_ < 0) {
          reply_error(conn, "hello: bin1 needs a socket");
          break;
        }
        accept_hello(conn);
        return true;
      case OpKind::kMutate:
        log_.append(op.mutation);
        reply_ack(conn, op, log_.pending());
        break;
      case OpKind::kMBatch:
        log_.append(op.batch);
        reply_ack(conn, op, log_.pending());
        break;
      case OpKind::kQuery: {
        if (op.vertex >= num_vertices_) {
          reply_error(conn, "query: vertex out of range: " +
                                std::to_string(op.vertex));
          break;
        }
        const auto qr = answer_query(op.vertex);
        if (!qr) return false;  // barrier: answered when the epoch lands
        reply_query(conn, *qr);
        break;
      }
      case OpKind::kRecompute:
        if (inflight_) return false;  // one epoch at a time; wait our turn
        start_epoch(id, c);
        break;
      case OpKind::kStats:
        if (inflight_) return false;  // counters quiesce with the epoch
        reply_json(conn, stats_reply());
        break;
      case OpKind::kQuit:
      case OpKind::kShutdown:
        if (op.kind == OpKind::kShutdown && opts_.stop != StopOp::kShutdown) {
          reply_error(conn, kShutdownRefused);
          break;
        }
        reply_bye(conn);
        conn.draining = true;
        if (op.kind == OpKind::kShutdown || opts_.stop == StopOp::kQuit) {
          stop_server(id);
        }
        break;
      case OpKind::kError:
        if (op.malformed) ++parse_errors_;
        reply_error(conn, op.error);
        break;
    }
    pop_op(conn);
    return true;
  }

  static constexpr const char* kShutdownRefused =
      "shutdown: refused (ndg_serve stops only on quit, with "
      "--allow-shutdown)";

  /// Sanctioned stop issued by client `id`: tell every replica to exit; the
  /// loop ends once the epoch in flight has landed, the issuer's bye is
  /// flushed and every peer has drained.
  void stop_server(std::uint64_t id) {
    for (auto& [pid, p] : peers_) {
      p.conn.queue_frame(dyn::FrameType::kShutdown, {});
      p.conn.flush();
      p.conn.draining = true;
    }
    shutdown_ = true;
    shutdown_client_ = id;
  }

  [[nodiscard]] bool exit_ready() const {
    return shutdown_ && !inflight_ && peers_.empty() &&
           !clients_.contains(shutdown_client_);
  }

  /// A query's answer now, or nullopt while it must wait for the in-flight
  /// epoch. Quiescent answers read the program directly (no epoch is in
  /// flight, so the worker is idle); with --live-queries, a query during the
  /// racy run reads the live edge arrays (Lemma 1).
  [[nodiscard]] std::optional<dyn::QueryReplyBin> answer_query(
      std::uint64_t v) const {
    dyn::QueryReplyBin qr;
    qr.vertex = v;
    qr.has_quiescent = opts_.live_queries;
    if (!inflight_) {
      qr.quiescent = true;
      qr.value = prog_.value(static_cast<VertexId>(v));
      qr.epoch = log_.epoch();
      return qr;
    }
    if constexpr (kLiveCapable) {
      if (opts_.live_queries &&
          inc_.phase() == dyn::EpochPhase::kRunning) {
        qr.value = inc_.live_value(static_cast<VertexId>(v));
        qr.epoch = inflight_epoch_;
        return qr;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] dyn::RecomputeReplyBin recompute_bin(
      const dyn::EpochResult& r) const {
    dyn::RecomputeReplyBin b;
    b.epoch = r.epoch;
    b.warm = r.warm;
    b.converged = r.engine.converged;
    b.compacted = r.compacted;
    b.applied = r.apply_stats.applied;
    b.rejected = r.apply_stats.rejected;
    b.seeds = r.seed_count;
    b.iterations = r.engine.iterations;
    b.updates = r.engine.updates;
    b.live_edges = g_.num_live_edges();
    b.reason = r.gate_reason;
    return b;
  }

  /// Transport counters across clients AND replication peers; closed
  /// connections' byte totals live on in closed_wire_.
  [[nodiscard]] dyn::WireCounters wire_totals() const {
    dyn::WireCounters w = closed_wire_;
    w.parse_errors = parse_errors_;
    const auto count = [&w](const LineConn& c) {
      w.bytes_in += c.bytes_in;
      w.bytes_out += c.bytes_out;
      if (c.proto == dyn::WireProto::kBin) {
        ++w.conns_bin;
      } else {
        ++w.conns_json;
      }
    };
    for (const auto& [id, c] : clients_) count(c.conn);
    for (const auto& [id, p] : peers_) count(p.conn);
    return w;
  }

  /// Quiescent only (serve holds `stats` behind the epoch).
  std::string stats_reply() const {
    std::size_t synced = 0;
    for (const auto& [id, p] : peers_) {
      if (p.synced) ++synced;
    }
    const dyn::WireCounters wire = wire_totals();
    return dyn::WireWriter()
        .boolean("ok", true)
        .str("role", "coordinator")
        .str("algo", prog_.name())
        .str("verdict", verdict_token(inc_.gate().verdict()))
        .str("engine", to_string(inc_.engine_kind()))
        .u64("epoch", log_.epoch())
        .u64("epoch_watermark", min_acked_epoch())
        .u64("log_history_len", log_.history_size())
        .u64("pending", log_.pending())
        .u64("total_mutations", log_.total_appended())
        .u64("sealed_batches", log_.total_sealed_batches())
        .u64("rep_next_seq", replog_.next_seq())
        .u64("rep_oldest_seq", replog_.oldest_seq())
        .u64("rep_history", replog_.size())
        .u64("replicas", synced)
        .u64("replicas_broken", replicas_broken_)
        .u64("children_reaped", children_reaped_)
        .u64("snapshots_served", snapshots_served_)
        .u64("vertices", g_.num_vertices())
        .u64("live_edges", g_.num_live_edges())
        .u64("edge_bound", g_.num_edges())
        .u64("inserted", g_.total_inserted())
        .u64("deleted", g_.total_deleted())
        .u64("reweighted", g_.total_reweighted())
        .u64("compactions", g_.compactions())
        .num("overflow", g_.overflow_ratio())
        .u64("warm_runs", inc_.warm_runs())
        .u64("cold_runs", inc_.cold_runs())
        .u64("bytes_in", wire.bytes_in)
        .u64("bytes_out", wire.bytes_out)
        .u64("parse_errors", wire.parse_errors)
        .u64("conns_json", wire.conns_json)
        .u64("conns_bin", wire.conns_bin)
        .finish();
  }

  // --- Replication peer path ---

  /// A peer that does not speak frames breaks at its first bytes (a JSON
  /// line's length field exceeds kMaxFrameLen), and one whose frame does not
  /// decode breaks here; reap() logs, counts and drops either.
  void drain_peer(RepPeer& p) {
    while (!p.conn.broken && !p.conn.frames.empty()) {
      const dyn::Frame f = std::move(p.conn.frames.front());
      p.conn.frames.pop_front();
      std::string err;
      if (f.type == dyn::FrameType::kSync) {
        std::uint64_t seq = 0;
        if (!dyn::decode_sync_bin(f.payload, p.replica_id, seq, &err)) {
          return p.conn.fail_input("bad sync frame: " + err);
        }
        p.synced = true;
        p.next_seq = seq + 1;
      } else if (f.type == dyn::FrameType::kAck) {
        std::uint64_t replica = 0;
        if (!dyn::decode_ack_bin(f.payload, replica, p.acked_seq,
                                 p.acked_epoch, &err)) {
          return p.conn.fail_input("bad ack frame: " + err);
        }
        p.awaiting_ack = false;
      } else {
        return p.conn.fail_input(
            "unexpected replication frame type: " +
            std::to_string(static_cast<unsigned>(f.type)));
      }
    }
    if (p.snap != nullptr) stream_snapshot(p);
    pump_peer(p);
  }

  void pump_all_peers() {
    for (auto& [id, p] : peers_) pump_peer(p);
  }

  /// Ships at most ONE record (or one snapshot) and waits for the ack —
  /// the window-of-1 that lets a slow replica's cursor genuinely fall
  /// behind the bounded history instead of buffering unboundedly in its
  /// socket.
  void pump_peer(RepPeer& p) {
    // eof counts as dead: a SIGKILLed replica surfaces as POLLHUP/read()==0
    // (and EPIPE on the next write); pumping — or worse, materializing an
    // O(E) snapshot — for it is pure waste. reap() retires it this pass.
    if (!p.synced || p.awaiting_ack || p.conn.broken || p.conn.eof ||
        p.conn.draining || shutdown_) {
      return;
    }
    if (p.next_seq >= replog_.next_seq()) return;  // caught up
    if (!replog_.has(p.next_seq)) {
      // A snapshot reads (and may compact) g_: wait for the epoch to land;
      // finish_epoch pumps every peer again.
      if (!inflight_) send_snapshot(p);
      return;
    }
    const dyn::RepRecord& rec = replog_.get(p.next_seq);
    // One frame per record: a whole applied epoch ships in one write.
    p.conn.queue_frame(dyn::FrameType::kRepRecord, dyn::encode_record_bin(rec));
    p.conn.flush();
    p.awaiting_ack = true;
    p.next_seq = rec.seq + 1;
  }

  /// Full re-seed for a replica that fell past the history bound. The
  /// snapshot must be CANONICAL — edge k of the shipped (src, dst)-sorted
  /// list gets id k when the replica rebuilds — so if any topology mutation
  /// landed since the last compaction it compacts first and appends an
  /// in-stream kCompact fence (replicas that are current replay the fence
  /// and compact at the same stream point, keeping every id space aligned).
  /// Canonicality comes from DynGraph::ids_canonical, NOT overflow_ratio():
  /// the edge-id freelist lets a delete + reuse-insert return the ratio to
  /// exactly 0 while id k no longer matches canonical (src, dst) order —
  /// skipping the compact then would ship ids the replica's rebuild
  /// disagrees with, and every later id-addressed record would hit the
  /// wrong edge.
  void send_snapshot(RepPeer& p) {
    const bool fenced = !g_.ids_canonical();
    if (fenced) {
      inc_.compact_now();
      replog_.append_compact(log_.epoch());
      snap_cache_.reset();  // ids just changed under any cached edge list
    }
    if (snap_cache_ == nullptr) {
      auto snap = std::make_shared<SnapshotData>();
      snap->header.seq = replog_.next_seq() - 1;
      snap->header.epoch = log_.epoch();
      snap->header.vertices = g_.num_vertices();
      snap->header.edges = g_.num_live_edges();
      snap->edges.reserve(g_.num_live_edges());
      // Vertex-major with sorted targets == canonical (src, dst) order.
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        const auto nbrs = g_.out_neighbors(v);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          snap->edges.push_back(dyn::SnapshotEdge{
              v, nbrs[k], g_.edge_weight(g_.out_edge_id(v, k))});
        }
      }
      snap_cache_ = std::move(snap);
    }
    p.snap = snap_cache_;
    p.snap_pos = 0;
    p.conn.queue_frame(dyn::FrameType::kSnapshot,
                       dyn::encode_snapshot_header_bin(p.snap->header));
    p.awaiting_ack = true;
    p.next_seq = snap_cache_->header.seq + 1;
    ++snapshots_served_;
    stream_snapshot(p);
    // Caught-up idle peers must see the fence now, not on their next ack;
    // safe to re-enter pump_peer: this peer is awaiting_ack and any other
    // lagging peer snapshots without fencing again (ids are canonical).
    if (fenced) pump_all_peers();
  }

  /// Encodes more of the in-flight snapshot into the peer's out buffer, up
  /// to kSnapshotChunkBytes of backlog; drain_peer re-invokes this as
  /// POLLOUT drains, so a large snapshot never sits fully encoded in
  /// coordinator memory.
  void stream_snapshot(RepPeer& p) {
    if (p.snap == nullptr) return;
    if (p.conn.broken || p.conn.eof || p.conn.draining) {
      p.snap.reset();  // peer died mid-stream; stop encoding at a dead fd
      return;
    }
    while (p.snap_pos < p.snap->edges.size() && !p.conn.broken &&
           p.conn.out_buf.size() < kSnapshotChunkBytes) {
      // 12 B/edge raw chunks straight off the shared snapshot buffer.
      const std::size_t n =
          std::min(kSnapEdgesPerChunk, p.snap->edges.size() - p.snap_pos);
      p.conn.queue_frame(
          dyn::FrameType::kSnapChunk,
          dyn::encode_snapshot_chunk(p.snap->edges.data() + p.snap_pos, n));
      p.snap_pos += n;
    }
    p.conn.flush();  // queue_frame does not flush; one write per pass
    if (p.snap_pos == p.snap->edges.size()) p.snap.reset();
  }

  void reap() {
    // A connection dropped for its input counts as a parse error.
    const auto retire = [this](const LineConn& c, const char* who) {
      closed_wire_.bytes_in += c.bytes_in;
      closed_wire_.bytes_out += c.bytes_out;
      if (!c.input_error.empty()) {
        ++parse_errors_;
        std::cerr << "coordinator: dropped " << who << ": " << c.input_error
                  << "\n";
      }
    };
    for (auto it = clients_.begin(); it != clients_.end();) {
      const Client& c = it->second;
      if (c.conn.finished() && !c.awaiting_epoch) {
        retire(c.conn, "client");
        it->second.conn.close_fd();
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (it->second.conn.finished()) {
        // A synced replica only leaves cleanly during tier shutdown; losing
        // one any other way (EPIPE -> broken, SIGKILL -> POLLHUP/eof) is a
        // crash, surfaced in stats as replicas_broken.
        if (it->second.synced && (it->second.conn.broken || !shutdown_)) {
          ++replicas_broken_;
          std::cerr << "ndg_tier: replication peer for replica "
                    << it->second.replica_id << " died (last acked seq "
                    << it->second.acked_seq << ")\n";
        }
        retire(it->second.conn, "replication peer");
        it->second.conn.close_fd();
        it = peers_.erase(it);
      } else {
        ++it;
      }
    }
    // Collect exited replica children (ndg_tier forks them into this
    // process; elsewhere waitpid finds none) so a crashed replica is reaped
    // promptly instead of lingering as a zombie until the coordinator
    // itself exits. Clean exits (tier shutdown) count only as reaped;
    // anything else marks the tier failed.
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      ++children_reaped_;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++children_crashed_;
        std::cerr << "ndg_tier: replica child " << pid << " "
                  << (WIFSIGNALED(status)
                          ? "killed by signal " +
                                std::to_string(WTERMSIG(status))
                          : "exited with status " +
                                std::to_string(WEXITSTATUS(status)))
                  << "\n";
      }
    }
  }

  dyn::DynGraph g_;
  Program prog_;
  dyn::MutationLog log_;
  dyn::IncrementalEngine<Program> inc_;
  dyn::ReplicationLog replog_;
  CoordinatorOptions opts_;
  /// Query range bound, read while the worker owns g_ (edges only mutate).
  std::uint64_t num_vertices_;
  std::string ready_;  // greeting as of the last quiescent point
  /// Snapshot shared by every peer re-seeding from the current seq; reset
  /// whenever a record is appended (the graph or seq moved on). Peers
  /// mid-stream keep their shared_ptr, so their snapshot stays consistent
  /// and the records after its seq replay on top.
  std::shared_ptr<const SnapshotData> snap_cache_;

  int client_listen_ = -1;
  int rep_listen_ = -1;
  std::map<std::uint64_t, Client> clients_;
  std::map<std::uint64_t, RepPeer> peers_;
  std::uint64_t next_id_ = 0;
  std::uint64_t snapshots_served_ = 0;
  std::uint64_t replicas_broken_ = 0;   // synced peers lost outside shutdown
  std::uint64_t children_reaped_ = 0;   // waitpid'd replica children
  std::uint64_t children_crashed_ = 0;  // ...of those, abnormal exits
  dyn::WireCounters closed_wire_;   // byte totals of reaped connections
  std::uint64_t parse_errors_ = 0;  // malformed ops + input-broken drops
  bool shutdown_ = false;
  std::uint64_t shutdown_client_ = 0;

  // In-flight epoch (loop thread only).
  bool inflight_ = false;
  std::uint64_t inflight_client_ = 0;
  std::uint64_t inflight_epoch_ = 0;

  // Worker handshake: job_, done_ and stop_worker_ are guarded by mu_.
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_worker_ = false;
  std::optional<dyn::MutationBatch> job_;
  std::optional<Landed> done_;
};

}  // namespace ndg::tier
