// End-to-end tests for the multiplexed ndg_serve socket server: two
// concurrent clients interleaving mutate/query/stats with strict per-client
// reply order, quit scoped to its own connection, --live-queries answering a
// mid-recompute query with "quiescent":false, and a bin1-upgraded client
// sharing one server (and one MutationLog) with a newline-JSON client.
//
// The server binary path arrives via the NDG_SERVE_BIN compile definition
// (tools/CMakeLists.txt); each test forks/execs its own server on a fresh
// socket under mkdtemp(/tmp/...) — /tmp because sun_path caps out around
// 108 bytes and build trees routinely blow past that.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "dyn/wire.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Server {
  pid_t pid = -1;
  std::string dir;     // mkdtemp scratch, removed in stop()
  std::string socket;  // dir + "/serve.sock"

  void start(const std::vector<std::string>& extra_args) {
    char tmpl[] = "/tmp/ndg_serve_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
    socket = dir + "/serve.sock";
    std::vector<std::string> args = {NDG_SERVE_BIN, "--socket=" + socket};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);  // exec failed
    }
  }

  [[nodiscard]] bool alive() const {
    return pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == 0;
  }

  /// Reaps a server expected to exit on its own; returns its wait status.
  int join(int timeout_ms = 10000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = -1;
    while (Clock::now() < deadline) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        pid = -1;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;  // still running
  }

  void stop() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
    std::error_code ec;  // the dir may still hold sockets: remove them too
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  ~Server() { stop(); }
};

/// Blocking line-oriented socket client with a receive deadline.
class Client {
 public:
  void connect(const std::string& path, int timeout_ms = 5000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(fd_, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "could not connect to " << path;
  }

  void send(const std::string& payload) {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::write(fd_, payload.data() + off, payload.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "write failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send(line + "\n"); }

  /// Next full reply line; fails the test on timeout or early EOF.
  std::string read_line(int timeout_ms = 15000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        ADD_FAILURE() << "timed out waiting for a reply line";
        return {};
      }
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) {
        ADD_FAILURE() << "timed out waiting for a reply line";
        return {};
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while awaiting a reply";
        return {};
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void send_frame(ndg::dyn::FrameType type, const std::string& payload) {
    std::string buf;
    ndg::dyn::append_frame(buf, type, payload);
    send(buf);
  }

  /// Next bin1 frame after the connection upgraded; fails on timeout,
  /// early EOF, or corrupt framing.
  ndg::dyn::Frame read_frame(int timeout_ms = 15000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      ndg::dyn::Frame f;
      std::string err;
      const auto st = ndg::dyn::extract_frame(buf_, f, &err);
      if (st == ndg::dyn::FrameParse::kOk) return f;
      if (st == ndg::dyn::FrameParse::kBad) {
        ADD_FAILURE() << "corrupt frame from server: " << err;
        return f;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        ADD_FAILURE() << "timed out waiting for a frame";
        return f;
      }
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) {
        ADD_FAILURE() << "timed out waiting for a frame";
        return f;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while awaiting a frame";
        return f;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the server closes this connection (draining after bye).
  bool wait_eof(int timeout_ms = 5000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) return true;
      if (n < 0) return false;
      // Stray bytes after bye would be a protocol violation.
      ADD_FAILURE() << "unexpected bytes after quit: "
                    << std::string(chunk, static_cast<std::size_t>(n));
      return false;
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  ~Client() { close(); }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// Two clients on one SSSP server: sequenced mutations from both, then a
// pipelined burst from client A whose replies must come back in send order,
// then client B querying the same epoch. quit disconnects only its issuer.
TEST(ServeMultiClient, InterleavedClientsKeepPerClientReplyOrder) {
  Server server;
  server.start({"--algo=sssp", "--kind=chain", "--vertices=300",
                "--gate=theorem2", "--engine=ne", "--threads=2"});
  Client a;
  Client b;
  a.connect(server.socket);
  b.connect(server.socket);

  // Each connection gets its own greeting.
  EXPECT_TRUE(contains(a.read_line(), "\"ready\":true"));
  EXPECT_TRUE(contains(b.read_line(), "\"ready\":true"));

  // Sequenced mutations (reply read before the next client sends) make the
  // shared log's pending counter deterministic: A appends first, then B.
  a.send_line(R"({"op":"mutate","kind":"insert","src":0,"dst":2,"weight":3})");
  EXPECT_TRUE(contains(a.read_line(), "\"ok\":true,\"pending\":1"));
  b.send_line(
      R"({"op":"mutate","kind":"insert","src":0,"dst":102,"weight":3})");
  EXPECT_TRUE(contains(b.read_line(), "\"ok\":true,\"pending\":2"));

  // Pipelined burst from A: recompute + two queries + a parse error + quit,
  // written as one blob. Replies must arrive strictly in send order even
  // though the recompute runs on the worker thread.
  a.send(
      "{\"op\":\"recompute\"}\n"
      "{\"op\":\"query\",\"vertex\":2}\n"
      "{\"op\":\"query\",\"vertex\":102}\n"
      "{\"op\":\"query\",\"vertex\":xyz}\n"
      "{\"op\":\"quit\"}\n");
  const std::string rec = a.read_line();
  EXPECT_TRUE(contains(rec, "\"epoch\":1,\"warm\":true")) << rec;
  EXPECT_TRUE(contains(rec, "\"applied\":2,\"rejected\":0")) << rec;
  // Chain topology pins the values: the only path to the shortcut targets
  // is the inserted weight-3 edge itself.
  EXPECT_TRUE(contains(a.read_line(), "\"vertex\":2,\"value\":3,\"epoch\":1"));
  EXPECT_TRUE(
      contains(a.read_line(), "\"vertex\":102,\"value\":3,\"epoch\":1"));
  const std::string bad = a.read_line();
  EXPECT_TRUE(contains(bad, "\"ok\":false")) << bad;
  EXPECT_TRUE(contains(bad, "bad value for key \\\"vertex\\\"")) << bad;
  EXPECT_TRUE(contains(a.read_line(), "\"bye\":true"));
  EXPECT_TRUE(a.wait_eof()) << "server should close A after its quit";

  // B rides the same server instance: A's quit must not have touched it.
  b.send_line(R"({"op":"query","vertex":2})");
  EXPECT_TRUE(contains(b.read_line(), "\"vertex\":2,\"value\":3,\"epoch\":1"));
  b.send_line(R"({"op":"stats"})");
  const std::string stats = b.read_line();
  EXPECT_TRUE(contains(stats, "\"total_mutations\":2")) << stats;
  EXPECT_TRUE(contains(stats, "\"warm_runs\":1")) << stats;
  b.send_line(R"({"op":"quit"})");
  EXPECT_TRUE(contains(b.read_line(), "\"bye\":true"));
  EXPECT_TRUE(b.wait_eof());

  // Without --allow-shutdown the server outlives every quit: a fresh client
  // still gets a greeting.
  EXPECT_TRUE(server.alive());
  Client c;
  c.connect(server.socket);
  EXPECT_TRUE(contains(c.read_line(), "\"ready\":true"));
  c.close();
  server.stop();
}

// One server, two protocols: client B upgrades to bin1 via the hello
// handshake (pipelined with binary frames in the same write) while client A
// stays on newline JSON. Both feed the same MutationLog and read the same
// epoch; B's malformed frame draws a kError without desyncing the stream,
// and the stats op reports one connection per protocol.
TEST(ServeMultiClient, BinaryAndJsonClientsShareOneServer) {
  namespace dyn = ndg::dyn;
  Server server;
  server.start({"--algo=sssp", "--kind=chain", "--vertices=300",
                "--gate=theorem2", "--engine=ne", "--threads=2"});
  Client a;
  Client b;
  a.connect(server.socket);
  b.connect(server.socket);
  EXPECT_TRUE(contains(a.read_line(), "\"ready\":true"));
  EXPECT_TRUE(contains(b.read_line(), "\"ready\":true"));

  // Hello + the first binary frames in ONE write: the upgrade must split
  // the line from the frame bytes that follow it in the same segment.
  std::vector<dyn::Mutation> muts(2);
  muts[0].kind = dyn::MutationKind::kInsertEdge;
  muts[0].src = 0;
  muts[0].dst = 2;
  muts[0].weight = 3.0f;
  muts[1].kind = dyn::MutationKind::kInsertEdge;
  muts[1].src = 0;
  muts[1].dst = 102;
  muts[1].weight = 3.0f;
  std::string blob = "{\"op\":\"hello\",\"proto\":\"bin1\"}\n";
  dyn::append_frame(blob, dyn::FrameType::kMBatch, dyn::encode_mbatch(muts));
  dyn::append_frame(blob, dyn::FrameType::kRecompute, "");
  dyn::append_frame(blob, dyn::FrameType::kQuery, dyn::encode_query(2));
  b.send(blob);
  const std::string hello = b.read_line();
  EXPECT_TRUE(contains(hello, "\"ok\":true")) << hello;
  EXPECT_TRUE(contains(hello, "\"proto\":\"bin1\"")) << hello;

  const dyn::Frame ack = b.read_frame();
  ASSERT_EQ(ack.type, dyn::FrameType::kMBatchAck);
  std::uint32_t accepted = 0;
  std::uint64_t pending = 0;
  std::string err;
  ASSERT_TRUE(dyn::decode_mbatch_ack(ack.payload, accepted, pending, &err))
      << err;
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(pending, 2u);

  const dyn::Frame rec = b.read_frame();
  ASSERT_EQ(rec.type, dyn::FrameType::kRecomputeReply);
  dyn::RecomputeReplyBin rr;
  ASSERT_TRUE(dyn::decode_recompute_reply(rec.payload, rr, &err)) << err;
  EXPECT_EQ(rr.epoch, 1u);
  EXPECT_EQ(rr.applied, 2u);
  EXPECT_EQ(rr.rejected, 0u);
  EXPECT_TRUE(rr.converged);

  // Chain topology pins the shortcut value to the inserted weight-3 edge.
  const dyn::Frame q = b.read_frame();
  ASSERT_EQ(q.type, dyn::FrameType::kQueryReply);
  dyn::QueryReplyBin qr;
  ASSERT_TRUE(dyn::decode_query_reply(q.payload, qr, &err)) << err;
  EXPECT_EQ(qr.vertex, 2u);
  EXPECT_EQ(qr.value, 3.0);
  EXPECT_EQ(qr.epoch, 1u);

  // The JSON client reads the exact same epoch the binary client built.
  a.send_line(R"({"op":"query","vertex":102})");
  EXPECT_TRUE(
      contains(a.read_line(), "\"vertex\":102,\"value\":3,\"epoch\":1"));
  a.send_line(R"({"op":"stats"})");
  const std::string stats = a.read_line();
  EXPECT_TRUE(contains(stats, "\"conns_json\":1")) << stats;
  EXPECT_TRUE(contains(stats, "\"conns_bin\":1")) << stats;
  EXPECT_TRUE(contains(stats, "\"parse_errors\":0")) << stats;

  // A malformed payload (truncated mutate) draws a kError frame and the
  // connection keeps working — framing never desyncs on payload errors.
  b.send_frame(dyn::FrameType::kMutate, "abc");
  const dyn::Frame bad = b.read_frame();
  EXPECT_EQ(bad.type, dyn::FrameType::kError);
  EXPECT_FALSE(bad.payload.empty());
  b.send_frame(dyn::FrameType::kQuery, dyn::encode_query(102));
  const dyn::Frame q2 = b.read_frame();
  ASSERT_EQ(q2.type, dyn::FrameType::kQueryReply);
  ASSERT_TRUE(dyn::decode_query_reply(q2.payload, qr, &err)) << err;
  EXPECT_EQ(qr.vertex, 102u);
  EXPECT_EQ(qr.value, 3.0);

  // The binary stats frame rides kJson and now counts B's parse error.
  b.send_frame(dyn::FrameType::kStats, "");
  const dyn::Frame st = b.read_frame();
  ASSERT_EQ(st.type, dyn::FrameType::kJson);
  EXPECT_TRUE(contains(st.payload, "\"parse_errors\":1")) << st.payload;
  EXPECT_TRUE(contains(st.payload, "\"total_mutations\":2")) << st.payload;

  // kQuit answers kBye and closes only B's connection.
  b.send_frame(dyn::FrameType::kQuit, "");
  EXPECT_EQ(b.read_frame().type, dyn::FrameType::kBye);
  EXPECT_TRUE(b.wait_eof());
  EXPECT_TRUE(server.alive());
  a.send_line(R"({"op":"quit"})");
  EXPECT_TRUE(contains(a.read_line(), "\"bye\":true"));
  server.stop();
}

// --live-queries: while client A's recompute is inside the (artificially
// held) engine run, client B's queries are answered from the live edge
// arrays with "quiescent":false and the in-flight epoch; after the epoch
// lands they return to "quiescent":true. --allow-shutdown then lets B stop
// the whole server cleanly.
TEST(ServeMultiClient, LiveQueriesAnswerMidRecompute) {
  Server server;
  server.start({"--algo=pagerank", "--kind=rmat", "--vertices=4000",
                "--gate=analyze", "--threads=2", "--live-queries",
                "--allow-shutdown", "--epoch-hold-ms=600"});
  Client a;
  Client b;
  a.connect(server.socket);
  b.connect(server.socket);
  EXPECT_TRUE(contains(a.read_line(), "\"verdict\":\"theorem-1\""));
  EXPECT_TRUE(contains(b.read_line(), "\"ready\":true"));

  // Quiescent query before any epoch: labeled quiescent:true, epoch 0.
  b.send_line(R"({"op":"query","vertex":1})");
  EXPECT_TRUE(
      contains(b.read_line(), "\"quiescent\":true,\"epoch\":0"));

  a.send(
      "{\"op\":\"mutate\",\"kind\":\"insert\",\"src\":1,\"dst\":7,"
      "\"weight\":1}\n"
      "{\"op\":\"mutate\",\"kind\":\"insert\",\"src\":7,\"dst\":1,"
      "\"weight\":1}\n"
      "{\"op\":\"recompute\"}\n");
  EXPECT_TRUE(contains(a.read_line(), "\"pending\":1"));
  EXPECT_TRUE(contains(a.read_line(), "\"pending\":2"));

  // Poll with B until a reply lands inside the engine-run window. The
  // 600ms post-convergence hold guarantees the window exists; each reply is
  // still answered in order, so one send -> one read.
  bool saw_live = false;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    b.send_line(R"({"op":"query","vertex":1})");
    const std::string r = b.read_line();
    ASSERT_TRUE(contains(r, "\"ok\":true")) << r;
    ASSERT_TRUE(contains(r, "\"quiescent\":")) << r;
    if (contains(r, "\"quiescent\":false")) {
      EXPECT_TRUE(contains(r, "\"epoch\":1")) << r;
      saw_live = true;
      break;
    }
  }
  EXPECT_TRUE(saw_live)
      << "never observed a \"quiescent\":false reply mid-recompute";

  // A's recompute reply arrives once the epoch lands.
  const std::string rec = a.read_line();
  EXPECT_TRUE(contains(rec, "\"epoch\":1")) << rec;
  EXPECT_TRUE(contains(rec, "\"converged\":true")) << rec;

  // Back to the cached-vector path at the quiescent point.
  b.send_line(R"({"op":"query","vertex":1})");
  EXPECT_TRUE(contains(b.read_line(), "\"quiescent\":true,\"epoch\":1"));

  // --allow-shutdown: B's quit stops the whole server, exit code 0.
  b.send_line(R"({"op":"quit"})");
  EXPECT_TRUE(contains(b.read_line(), "\"bye\":true"));
  const int status = server.join();
  ASSERT_NE(status, -1) << "server did not exit after sanctioned quit";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "status=" << status;
  server.stop();
}

// A JSON id past VertexId's 32 bits must be refused at intake, not
// truncated into a different edge (4294967296 -> 0, 4294967301 -> 5 would
// insert 0->5). The refused mutate leaves the pending count untouched.
TEST(ServeMultiClient, MutateRejectsIdsWiderThanVertexId) {
  Server server;
  server.start({"--algo=wcc", "--kind=chain", "--vertices=8", "--threads=2"});
  Client a;
  a.connect(server.socket);
  EXPECT_TRUE(contains(a.read_line(), "\"live_edges\":7"));

  for (const char* bad :
       {R"({"op":"mutate","kind":"insert","src":4294967296,"dst":4294967301})",
        R"({"op":"mutate","kind":"insert","src":1,"dst":4294967296})"}) {
    a.send_line(bad);
    const std::string r = a.read_line();
    EXPECT_TRUE(contains(r, "\"ok\":false,\"error\":\"mutate: ")) << r;
  }
  // UINT32_MAX itself fits the type; DynGraph rejects it as out of range.
  a.send_line(R"({"op":"mutate","kind":"insert","src":4294967295,"dst":1})");
  EXPECT_TRUE(contains(a.read_line(), "\"ok\":true,\"pending\":1"));
  a.send_line(R"({"op":"recompute"})");
  const std::string rec = a.read_line();
  EXPECT_TRUE(contains(rec, "\"applied\":0,\"rejected\":1")) << rec;
  EXPECT_TRUE(contains(rec, "\"live_edges\":7")) << rec;
  server.stop();
}

// Without --allow-shutdown no client can stop the server: the JSON
// `shutdown` op and the kShutdown frame both draw an error and the server
// keeps serving. With the flag, `quit` stops it with exit status 0.
TEST(ServeMultiClient, ShutdownNeedsAllowShutdown) {
  namespace dyn = ndg::dyn;
  {
    Server server;
    server.start({"--algo=wcc", "--kind=chain", "--vertices=8",
                  "--threads=2"});
    Client a;
    a.connect(server.socket);
    EXPECT_TRUE(contains(a.read_line(), "\"ready\":true"));
    a.send_line(R"({"op":"shutdown"})");
    const std::string r = a.read_line();
    EXPECT_TRUE(contains(r, "\"ok\":false")) << r;

    Client b;
    b.connect(server.socket);
    EXPECT_TRUE(contains(b.read_line(), "\"ready\":true"));
    b.send_line(R"({"op":"hello","proto":"bin1"})");
    EXPECT_TRUE(contains(b.read_line(), "\"proto\":\"bin1\""));
    b.send_frame(dyn::FrameType::kShutdown, "");
    const dyn::Frame f = b.read_frame();
    EXPECT_EQ(f.type, dyn::FrameType::kError);
    EXPECT_FALSE(f.payload.empty());

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(server.alive());
    // Both connections still work after the refusals.
    a.send_line(R"({"op":"query","vertex":3})");
    EXPECT_TRUE(contains(a.read_line(), "\"vertex\":3,\"value\":0"));
    b.send_frame(dyn::FrameType::kQuery, dyn::encode_query(3));
    EXPECT_EQ(b.read_frame().type, dyn::FrameType::kQueryReply);
    server.stop();
  }
  {
    Server server;
    server.start({"--algo=wcc", "--kind=chain", "--vertices=8",
                  "--threads=2", "--allow-shutdown"});
    Client a;
    a.connect(server.socket);
    EXPECT_TRUE(contains(a.read_line(), "\"ready\":true"));
    a.send_line(R"({"op":"quit"})");
    EXPECT_TRUE(contains(a.read_line(), "\"bye\":true"));
    const int status = server.join();
    ASSERT_NE(status, -1) << "server did not exit after sanctioned quit";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "status=" << status;
    server.stop();
  }
}

}  // namespace
