#pragma once
// Socket plumbing shared by the serving stack (docs/TIER.md, docs/DYNAMIC.md):
// the coordinator (the one serving front-end, whichever of ndg_serve or
// ndg_tier launched it), the replicas, bench_tier, bench_serve and the
// tests multiplex unix stream sockets with the same nonblocking buffered
// connection state. This header is that shared layer: it splits bytes into
// newline-JSON lines or bin1 frames (dyn/wire.hpp) and knows nothing of what
// they say. tier/client_op.hpp decodes a client's lines and frames into ops;
// dyn/replication.hpp encodes what rep.sock carries. The tier's well-known
// socket names inside a run directory:
//
//   <dir>/coord.sock      writes + coordinator-local reads (ndg_tier; ndg_serve
//                         binds the same coordinator at --socket=PATH)
//   <dir>/rep.sock        replication stream (replicas only, bin1 frames)
//   <dir>/replica-K.sock  read fan-out endpoint of replica K

#include <deque>
#include <string>
#include <string_view>
#include <utility>

#include "dyn/wire.hpp"

namespace ndg::tier {

void set_nonblocking(int fd);

/// Binds + listens a unix stream socket at `path` (unlinking any stale
/// file first) and returns the nonblocking listen fd. Throws on failure.
int listen_unix(const std::string& path, int backlog = 16);

/// Connects to a unix socket, retrying while the server is still coming up
/// (ECONNREFUSED / ENOENT), up to ~`timeout_ms`. Returns a BLOCKING fd —
/// callers that join a poll loop set_nonblocking() it themselves. Throws
/// once the deadline passes.
int connect_unix(const std::string& path, int timeout_ms = 10000);

/// Accepts one waiting connection on a listen fd as a nonblocking fd; -1
/// when none is waiting (or on a transient error: retry on the next POLLIN).
int accept_nonblocking(int listen_fd);

/// One nonblocking buffered peer: bytes in -> complete messages out, replies
/// queued into `out_buf` and flushed as the socket accepts them. The flag
/// trio is the coordinator's client lifecycle: eof = peer closed its write
/// side (an unterminated tail still counts as a final line), draining =
/// close once out_buf empties, broken = write/protocol error, drop without
/// ceremony. `input_error` says why, when the peer's input broke it.
///
/// A client connection starts in newline-JSON (`proto == kJson`, messages
/// land in `pending`) and may switch to bin1 framing (`upgrade_to_bin()`,
/// messages land in `frames`) — this is the FrameConn role folded into the
/// same struct, because negotiation happens mid-stream on a live connection
/// and the buffered bytes must carry over losslessly. Both ends of a
/// replication stream set `proto = kBin` before any byte moves.
struct LineConn {
  /// Input bounds. A connection whose unterminated line exceeds
  /// kMaxLineBytes is marked broken — no forward progress is possible and
  /// letting it grow hands a hostile client unbounded server memory. A
  /// single read_input() pass stops pulling from the socket once in_buf
  /// holds kMaxReadBytes; the surplus waits in the kernel socket buffer
  /// (POLLIN stays set) until the caller has drained `pending`, so a
  /// writer that outpaces its drain is backpressured, not buffered.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
  static constexpr std::size_t kMaxReadBytes = std::size_t{4} << 20;

  int fd = -1;
  dyn::WireProto proto = dyn::WireProto::kJson;
  std::string in_buf;
  std::string out_buf;
  std::deque<std::string> pending;   // complete JSON lines (kJson mode)
  std::deque<dyn::Frame> frames;     // complete frames (kBin mode)
  std::uint64_t bytes_in = 0;        // raw bytes read off the socket
  std::uint64_t bytes_out = 0;       // raw bytes written to the socket
  bool eof = false;
  bool draining = false;
  bool broken = false;
  std::string input_error;  // why input broke the connection, if it did

  /// Drains the socket (up to kMaxReadBytes per pass) and splits complete
  /// messages into `pending` (lines) or `frames`; an unterminated line past
  /// kMaxLineBytes or a frame length past kMaxFrameLen calls fail_input.
  void read_input();

  /// Input the connection cannot recover from: marks it broken and records
  /// why, so its owner can log and count the drop.
  void fail_input(std::string why) {
    broken = true;
    input_error = std::move(why);
  }

  /// Writes as much of out_buf as the socket takes; EAGAIN leaves the rest
  /// for the next POLLOUT, a hard error sets `broken`.
  void flush();

  void queue_line(const std::string& line) {
    if (broken) return;
    out_buf += line;
    out_buf += '\n';
    flush();
  }

  /// Appends one frame WITHOUT flushing — the writev-style batching path: a
  /// drain pass queues every frame it produces (a record, a reply burst, a
  /// run of snapshot chunks) and the caller flushes once, so a multi-message
  /// exchange costs one write syscall instead of one per message.
  void queue_frame(dyn::FrameType type, std::string_view payload) {
    if (broken) return;
    append_frame(out_buf, type, payload);
  }

  /// Switches input parsing to bin1 frames. Called while handling the hello
  /// line, possibly with MORE bytes already buffered behind it (a client may
  /// pipeline hello + frames in one write): the already-split lines are
  /// rejoined with their newlines and re-parsed as frame bytes, so the
  /// upgrade is lossless at any byte boundary.
  void upgrade_to_bin();

  /// True when the connection has nothing left to do and can be closed.
  [[nodiscard]] bool finished() const {
    return broken || (draining && out_buf.empty()) ||
           (eof && pending.empty() && frames.empty() && out_buf.empty());
  }

  void close_fd();

 private:
  void parse_frames();
};

// Well-known socket names inside a tier run directory.
[[nodiscard]] inline std::string coord_sock(const std::string& dir) {
  return dir + "/coord.sock";
}
[[nodiscard]] inline std::string rep_sock(const std::string& dir) {
  return dir + "/rep.sock";
}
[[nodiscard]] inline std::string replica_sock(const std::string& dir,
                                              std::size_t k) {
  return dir + "/replica-" + std::to_string(k) + ".sock";
}

}  // namespace ndg::tier
