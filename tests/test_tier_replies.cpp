// Reply table of the serving tier's client ops (docs/DYNAMIC.md,
// docs/TIER.md): every op and every error reply of the coordinator and of a
// replica, over newline JSON and over bin1 frames. Each coordinator row also
// pins how much it raises the coordinator's `parse_errors`.
//
// Servers: ndg_serve --socket (a coordinator that refuses `shutdown`),
// ndg_serve over stdio (`hello` without a socket) and ndg_tier with one
// replica (the replica rows and an accepted `shutdown`), all on an 8-vertex
// WCC chain whose answers are 0 everywhere. The binaries arrive via the
// NDG_SERVE_BIN / NDG_TIER_BIN compile definitions (tools/CMakeLists.txt).

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dyn/wire.hpp"
#include "tier/net.hpp"

namespace {

namespace dyn = ndg::dyn;
using dyn::FrameType;

constexpr int kTimeoutMs = 30000;
const std::vector<std::string> kGraph = {"--algo=wcc", "--kind=chain",
                                         "--vertices=8", "--threads=2"};

/// One forked server process in its own mkdtemp directory.
struct Proc {
  pid_t pid = -1;
  std::string dir;

  /// `stdin_fd`/`stdout_fd` >= 0 replace the child's standard streams.
  Proc(std::vector<std::string> args, int stdin_fd = -1, int stdout_fd = -1) {
    char tmpl[] = "/tmp/ndg_replies_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return;
    dir = tmpl;
    for (std::string& a : args) {
      if (a == "@dir") a = "--dir=" + dir;
      if (a == "@socket") a = "--socket=" + dir + "/serve.sock";
    }
    pid = ::fork();
    if (pid != 0) return;
    if (stdin_fd >= 0) ::dup2(stdin_fd, STDIN_FILENO);
    if (stdout_fd >= 0) ::dup2(stdout_fd, STDOUT_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  /// Wait status once the process exits on its own; -1 on a timeout.
  int join() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kTimeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

  ~Proc() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

/// Blocking client that reads JSON lines and bin1 frames off one buffer.
class Conn {
 public:
  explicit Conn(const std::string& path)
      : fd_(ndg::tier::connect_unix(path, kTimeoutMs)) {}
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }
  void send_line(std::string_view line) { send(std::string(line) + "\n"); }
  void send_frame(FrameType type, std::string_view payload) {
    std::string out;
    dyn::append_frame(out, type, payload);
    send(out);
  }

  std::string line() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      if (!fill()) {
        ADD_FAILURE() << "no reply line";
        return {};
      }
    }
    std::string l = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return l;
  }

  std::string rpc(std::string_view request) {
    send_line(request);
    return line();
  }

  dyn::Frame frame() {
    dyn::Frame f;
    for (;;) {
      const dyn::FrameParse rc = dyn::extract_frame(buf_, f);
      if (rc == dyn::FrameParse::kOk) return f;
      if (rc == dyn::FrameParse::kBad || !fill()) {
        ADD_FAILURE() << "no reply frame";
        return {};
      }
    }
  }

  /// True once the server closes the connection with nothing more sent.
  bool closed() {
    while (buf_.empty() && fill()) {
    }
    return eof_ && buf_.empty();
  }

 private:
  bool fill() {
    pollfd p{fd_, POLLIN, 0};
    int rc;
    while ((rc = ::poll(&p, 1, kTimeoutMs)) < 0 && errno == EINTR) {
    }
    if (rc <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) {
      eof_ = true;
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
  bool eof_ = false;
};

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

/// The u64 value of `key` in a flat JSON line (0 when absent).
std::uint64_t u64_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = line.find(pat);
  EXPECT_NE(p, std::string::npos) << key << " missing in " << line;
  return p == std::string::npos
             ? 0
             : std::strtoull(line.c_str() + p + pat.size(), nullptr, 10);
}

std::uint64_t parse_errors(Conn& observer) {
  return u64_field(observer.rpc(R"({"op":"stats"})"), "parse_errors");
}

std::string error_line(const std::string& what) {
  return R"({"ok":false,"error":")" + what + R"("})";
}

constexpr const char* kRefused =
    "shutdown: refused (ndg_serve stops only on quit, with "
    "--allow-shutdown)";

struct JsonRow {
  std::string request;
  std::string reply;  // exact reply line
  std::uint64_t parse_errors = 0;  // coordinator parse_errors delta
};

struct FrameRow {
  FrameType type;
  std::string payload;
  FrameType reply_type;
  std::string reply;  // exact reply payload
  std::uint64_t parse_errors = 0;  // coordinator parse_errors delta
};

dyn::Mutation insert(ndg::VertexId src, ndg::VertexId dst) {
  return dyn::Mutation{dyn::MutationKind::kInsertEdge, src, dst, 1.0f};
}

/// The coordinator marks its answers quiescent even when, without
/// --live-queries, the flag that says so is not set; a replica never does.
std::string query_reply(std::uint64_t vertex, std::uint64_t epoch,
                        bool quiescent) {
  dyn::QueryReplyBin qr;
  qr.quiescent = quiescent;
  qr.vertex = vertex;
  qr.value = 0.0;
  qr.epoch = epoch;
  return dyn::encode_query_reply(qr);
}

/// The frame error rows; the coordinator counts each undecodable one in
/// parse_errors, but not a vertex out of range.
std::vector<FrameRow> frame_error_rows() {
  std::string bad_kind = dyn::encode_mutate(insert(1, 5));
  bad_kind[0] = 7;
  std::string lying = dyn::encode_mbatch({insert(1, 5), insert(2, 6)});
  lying.resize(lying.size() - 13);  // count says 2, payload holds 1
  return {
      {FrameType::kQuery, "abc", FrameType::kError,
       "query: truncated payload", 1},
      {FrameType::kQuery, dyn::encode_query(8), FrameType::kError,
       "query: vertex out of range: 8", 0},
      {FrameType::kMutate, "abc", FrameType::kError,
       "mutate: truncated payload", 1},
      {FrameType::kMutate, bad_kind, FrameType::kError,
       "mutate: unknown kind byte", 1},
      {FrameType::kMBatch, lying, FrameType::kError,
       "mbatch: count disagrees with payload size", 1},
      {static_cast<FrameType>(0x30), "", FrameType::kError,
       "unexpected frame type: 48", 1},
      {FrameType::kSync, "", FrameType::kError, "unexpected frame type: 20",
       1},
  };
}

/// Sends each JSON row on `c` and checks the exact reply; with an
/// `observer`, also the coordinator's parse_errors delta.
void run_json_rows(Conn& c, const std::vector<JsonRow>& rows,
                   Conn* observer) {
  std::uint64_t before = observer ? parse_errors(*observer) : 0;
  for (const JsonRow& row : rows) {
    EXPECT_EQ(c.rpc(row.request), row.reply) << row.request;
    if (observer == nullptr) continue;
    const std::uint64_t now = parse_errors(*observer);
    EXPECT_EQ(now - before, row.parse_errors) << row.request;
    before = now;
  }
}

void run_frame_rows(Conn& c, const std::vector<FrameRow>& rows,
                    Conn* observer) {
  std::uint64_t before = observer ? parse_errors(*observer) : 0;
  for (const FrameRow& row : rows) {
    const auto sent = static_cast<unsigned>(row.type);
    c.send_frame(row.type, row.payload);
    const dyn::Frame f = c.frame();
    EXPECT_EQ(f.type, row.reply_type) << "frame type " << sent;
    EXPECT_EQ(f.payload, row.reply) << "frame type " << sent;
    if (observer == nullptr) continue;
    const std::uint64_t now = parse_errors(*observer);
    EXPECT_EQ(now - before, row.parse_errors) << "frame type " << sent;
    before = now;
  }
}

std::vector<std::string> serve_args(std::vector<std::string> extra) {
  std::vector<std::string> args = {NDG_SERVE_BIN};
  args.insert(args.end(), kGraph.begin(), kGraph.end());
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

// The coordinator over newline JSON: every error reply, each op once, and
// the parse_errors each row adds. ndg_serve without --allow-shutdown, so
// `shutdown` is refused.
TEST(TierReplies, CoordinatorJson) {
  Proc server(serve_args({"@socket"}));
  const std::string sock = server.dir + "/serve.sock";
  Conn c(sock);
  Conn observer(sock);
  EXPECT_TRUE(contains(c.line(), R"("ready":true,"role":"coordinator")"));
  observer.line();

  run_json_rows(
      c,
      {
          {"not json", error_line("parse: expected '{'"), 1},
          {R"({"op":"query","vertex":xyz})",
           error_line(R"(parse: bad value for key \"vertex\" (expected )"
                      R"(number, true, false or null))"),
           1},
          {R"({"vertex":1})", error_line("missing field: op"), 1},
          {R"({"op":"frobnicate"})", error_line("unknown op: frobnicate"), 1},
          {R"({"op":"mbatch"})", error_line("unknown op: mbatch"), 1},
          {R"({"op":"query"})", error_line("query: missing field: vertex"),
           1},
          {R"({"op":"query","vertex":8})",
           error_line("query: vertex out of range: 8"), 0},
          {R"({"op":"query","vertex":3})",
           R"({"ok":true,"vertex":3,"value":0,"epoch":0})", 0},
          {R"({"op":"mutate","src":1,"dst":5})",
           error_line("mutate: missing field: kind"), 1},
          {R"({"op":"mutate","kind":"bogus","src":1,"dst":5})",
           error_line("mutate: unknown kind: bogus"), 1},
          {R"({"op":"mutate","kind":"insert","src":1})",
           error_line("mutate: missing field: src/dst"), 1},
          {R"({"op":"mutate","kind":"insert","src":4294967296,"dst":5})",
           error_line("mutate: vertex id does not fit 32 bits: 4294967296"),
           0},
          {R"({"op":"mutate","kind":"insert","src":1,"dst":5})",
           R"({"ok":true,"pending":1})", 0},
          {R"({"op":"hello"})", error_line("hello: missing field: proto"), 1},
          {R"({"op":"hello","proto":"bin2"})",
           error_line("hello: unknown proto: bin2"), 1},
          {R"({"op":"shutdown"})", error_line(kRefused), 0},
      },
      &observer);

  const std::string st = c.rpc(R"({"op":"stats"})");
  EXPECT_TRUE(contains(st, R"({"ok":true,"role":"coordinator","algo":)"))
      << st;
  EXPECT_EQ(u64_field(st, "pending"), 1u) << st;
  const std::string rec = c.rpc(R"({"op":"recompute"})");
  EXPECT_TRUE(contains(rec, R"({"ok":true,"epoch":1,)")) << rec;
  EXPECT_EQ(u64_field(rec, "applied"), 1u) << rec;
  EXPECT_EQ(c.rpc(R"({"op":"query","vertex":3})"),
            R"({"ok":true,"vertex":3,"value":0,"epoch":1})");
  EXPECT_EQ(c.rpc(R"({"op":"quit"})"), R"({"ok":true,"bye":true})");
  EXPECT_TRUE(c.closed());
}

// The coordinator over bin1 frames, after a hello upgrade on the same
// connection.
TEST(TierReplies, CoordinatorBin1) {
  Proc server(serve_args({"@socket"}));
  const std::string sock = server.dir + "/serve.sock";
  Conn c(sock);
  Conn observer(sock);
  c.line();
  observer.line();
  EXPECT_EQ(c.rpc(R"({"op":"hello","proto":"bin1"})"),
            R"({"ok":true,"proto":"bin1"})");

  std::vector<FrameRow> rows = frame_error_rows();
  const std::vector<FrameRow> ok_rows = {
      {FrameType::kQuery, dyn::encode_query(3), FrameType::kQueryReply,
       query_reply(3, 0, true), 0},
      {FrameType::kMutate, dyn::encode_mutate(insert(1, 5)),
       FrameType::kMutateAck, dyn::encode_mutate_ack(1), 0},
      {FrameType::kMBatch, dyn::encode_mbatch({insert(2, 6), insert(3, 7)}),
       FrameType::kMBatchAck, dyn::encode_mbatch_ack(2, 3), 0},
      {FrameType::kShutdown, "", FrameType::kError, kRefused, 0},
  };
  rows.insert(rows.end(), ok_rows.begin(), ok_rows.end());
  run_frame_rows(c, rows, &observer);

  c.send_frame(FrameType::kStats, "");
  const dyn::Frame st = c.frame();
  EXPECT_EQ(st.type, FrameType::kJson);
  EXPECT_TRUE(contains(st.payload, R"({"ok":true,"role":"coordinator",)"))
      << st.payload;
  c.send_frame(FrameType::kRecompute, "");
  const dyn::Frame rec = c.frame();
  ASSERT_EQ(rec.type, FrameType::kRecomputeReply);
  dyn::RecomputeReplyBin rr;
  ASSERT_TRUE(dyn::decode_recompute_reply(rec.payload, rr));
  EXPECT_EQ(rr.epoch, 1u);
  EXPECT_EQ(rr.applied, 3u);
  run_frame_rows(c,
                 {{FrameType::kQuery, dyn::encode_query(3),
                   FrameType::kQueryReply, query_reply(3, 1, true), 0},
                  {FrameType::kQuit, "", FrameType::kBye, "", 0}},
                 nullptr);
  EXPECT_TRUE(c.closed());
}

// Over stdio there is no socket to upgrade: `hello` is refused and counts
// no parse error.
TEST(TierReplies, CoordinatorStdioRefusesHello) {
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  Proc server(serve_args({}), in[0], out[1]);
  ::close(in[0]);
  ::close(out[1]);
  const std::string session =
      "{\"op\":\"hello\",\"proto\":\"bin1\"}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"quit\"}\n";
  ASSERT_EQ(::write(in[1], session.data(), session.size()),
            static_cast<ssize_t>(session.size()));
  ::close(in[1]);
  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(out[0], chunk, sizeof chunk)) > 0) {
    output.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  const int status = server.join();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;

  std::vector<std::string> lines;
  for (std::size_t p = 0, nl; (nl = output.find('\n', p)) != std::string::npos;
       p = nl + 1) {
    lines.push_back(output.substr(p, nl - p));
  }
  ASSERT_EQ(lines.size(), 4u) << output;
  EXPECT_TRUE(contains(lines[0], R"("ready":true)")) << lines[0];
  EXPECT_EQ(lines[1], error_line("hello: bin1 needs a socket"));
  EXPECT_EQ(u64_field(lines[2], "parse_errors"), 0u) << lines[2];
  EXPECT_EQ(lines[3], R"({"ok":true,"bye":true})");
}

// A replica of a one-replica tier, over newline JSON and over bin1 frames:
// it serves query, stats, quit and hello, answers any other op as unknown
// without decoding it further, and stamps each answer with its watermark.
TEST(TierReplies, ReplicaJsonAndBin1) {
  std::vector<std::string> args = {NDG_TIER_BIN, "@dir", "--replicas=1"};
  args.insert(args.end(), kGraph.begin(), kGraph.end());
  Proc tier(args);
  Conn coord(tier.dir + "/coord.sock");
  coord.line();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (u64_field(coord.rpc(R"({"op":"stats"})"), "replicas") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no replica";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(coord.rpc(R"({"op":"mutate","kind":"insert","src":1,"dst":5})"),
            R"({"ok":true,"pending":1})");
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), R"("epoch":1,)"));
  while (u64_field(coord.rpc(R"({"op":"stats"})"), "epoch_watermark") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "replica lags";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const std::string rsock = tier.dir + "/replica-0.sock";
  Conn r(rsock);
  EXPECT_TRUE(contains(r.line(), R"({"ok":true,"ready":true,)"
                                 R"("role":"replica","replica":0,)"));
  run_json_rows(
      r,
      {
          {"not json", error_line("parse: expected '{'")},
          {R"({"vertex":1})", error_line("missing field: op")},
          {R"({"op":"frobnicate"})", error_line("unknown op: frobnicate")},
          {R"({"op":"mutate","kind":"bogus"})",
           error_line("unknown op: mutate")},
          {R"({"op":"recompute"})", error_line("unknown op: recompute")},
          {R"({"op":"shutdown"})", error_line("unknown op: shutdown")},
          {R"({"op":"query"})", error_line("query: missing field: vertex")},
          {R"({"op":"query","vertex":8})",
           error_line("query: vertex out of range: 8")},
          {R"({"op":"query","vertex":3})",
           R"({"ok":true,"vertex":3,"value":0,"epoch":1,"replica":0})"},
          {R"({"op":"hello"})", error_line("hello: missing field: proto")},
          {R"({"op":"hello","proto":"bin2"})",
           error_line("hello: unknown proto: bin2")},
      },
      nullptr);
  const std::string st = r.rpc(R"({"op":"stats"})");
  EXPECT_TRUE(contains(st, R"({"ok":true,"role":"replica","replica":0,)"))
      << st;
  EXPECT_EQ(u64_field(st, "epoch_watermark"), 1u) << st;
  EXPECT_EQ(r.rpc(R"({"op":"quit"})"), R"({"ok":true,"bye":true})");
  EXPECT_TRUE(r.closed());

  Conn b(rsock);
  b.line();
  EXPECT_EQ(b.rpc(R"({"op":"hello","proto":"bin1"})"),
            R"({"ok":true,"proto":"bin1"})");
  std::vector<FrameRow> rows;
  for (const FrameRow& row : frame_error_rows()) {
    // Only kQuery is decoded; every other frame type is unexpected here.
    rows.push_back(row);
    if (row.type != FrameType::kQuery) {
      rows.back().reply = "unexpected frame type: " +
                          std::to_string(static_cast<unsigned>(row.type));
    }
  }
  const std::vector<FrameRow> more = {
      {FrameType::kQuery, dyn::encode_query(3), FrameType::kQueryReply,
       query_reply(3, 1, false)},
      {FrameType::kMutate, dyn::encode_mutate(insert(1, 5)), FrameType::kError,
       "unexpected frame type: 2"},
      {FrameType::kRecompute, "", FrameType::kError,
       "unexpected frame type: 8"},
      {FrameType::kShutdown, "", FrameType::kError,
       "unexpected frame type: 21"},
  };
  rows.insert(rows.end(), more.begin(), more.end());
  run_frame_rows(b, rows, nullptr);
  b.send_frame(FrameType::kStats, "");
  const dyn::Frame bst = b.frame();
  EXPECT_EQ(bst.type, FrameType::kJson);
  EXPECT_TRUE(contains(bst.payload, R"("role":"replica")")) << bst.payload;
  EXPECT_TRUE(contains(bst.payload, R"("epoch_watermark":1,)"))
      << bst.payload;
  run_frame_rows(b, {{FrameType::kQuit, "", FrameType::kBye, ""}}, nullptr);
  EXPECT_TRUE(b.closed());

  EXPECT_EQ(coord.rpc(R"({"op":"shutdown"})"), R"({"ok":true,"bye":true})");
  const int status = tier.join();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

}  // namespace
