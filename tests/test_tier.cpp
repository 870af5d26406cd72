// End-to-end tests for the replicated serving tier (docs/TIER.md): a forked
// ndg_tier topology (coordinator + N replica processes over unix sockets in
// a mkdtemp dir), driven through real client connections.
//
// What they pin down:
//  * replicas replay the shipped AppliedMutation stream and answer queries
//    with EXACTLY the coordinator's quiescent values for the monotone
//    programs (SSSP, WCC — Theorem 2 territory, unique fixed point), and
//    within tolerance for PageRank (eps-converged, schedule-dependent tail);
//  * replies carry the epoch watermark so staleness is observable;
//  * a replica held back with --chaos=hold:<ms> falls past the coordinator's
//    bounded history (--history), is re-seeded with a full snapshot instead
//    of erroring, and converges to the same answers afterwards;
//  * rep.sock speaks bin1 frames only: a peer that does not is dropped, and
//    a replica that receives a malformed frame exits with status 1.
//
// The launcher path arrives via the NDG_TIER_BIN compile definition
// (tools/CMakeLists.txt). Sockets live under mkdtemp(/tmp/...) because
// sun_path caps out around 108 bytes.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <chrono>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "dyn/replication.hpp"
#include "dyn/wire.hpp"
#include "tier/net.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Raw JSON token for `key` in a flat wire line ("" when absent). Numbers
/// and bools only — enough for the fields these tests compare.
std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return {};
  p += pat.size();
  const std::size_t e = line.find_first_of(",}", p);
  return line.substr(p, e == std::string::npos ? std::string::npos : e - p);
}

double num_field(const std::string& line, const std::string& key) {
  const std::string tok = field(line, key);
  EXPECT_FALSE(tok.empty()) << "missing field " << key << " in " << line;
  return tok.empty() ? 0.0 : std::strtod(tok.c_str(), nullptr);
}

struct Tier {
  pid_t pid = -1;
  std::string dir;  // mkdtemp scratch, removed in stop(); sockets live here

  void start(const std::vector<std::string>& extra_args) {
    char tmpl[] = "/tmp/ndg_tier_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
    std::vector<std::string> args = {NDG_TIER_BIN, "--dir=" + dir};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
  }

  [[nodiscard]] std::string coord_sock() const { return dir + "/coord.sock"; }
  [[nodiscard]] std::string replica_sock(int k) const {
    return dir + "/replica-" + std::to_string(k) + ".sock";
  }

  /// Reaps a tier expected to exit on its own (after shutdown).
  int join(int timeout_ms = 20000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = -1;
    while (Clock::now() < deadline) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        pid = -1;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;  // still running
  }

  void stop() {
    if (pid > 0) {
      // The launcher owns the replica children; SIGKILL would orphan them,
      // so ask politely first is the tests' job — stop() is the teardown
      // hammer for a test that already failed.
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  ~Tier() { stop(); }
};

/// Blocking line-oriented client with connect retry and receive deadline.
class Client {
 public:
  void connect(const std::string& path, int timeout_ms = 30000) {
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
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "could not connect to " << path;
  }

  void send_line(const std::string& line) { send_bytes(line + "\n"); }

  void send_bytes(const std::string& payload) {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::write(fd_, payload.data() + off, payload.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "write failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line(int timeout_ms = 30000) {
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

  /// True once the server closes the connection (EOF or reset) within the
  /// deadline; bytes that arrive before the close are discarded.
  bool wait_closed(int timeout_ms = 10000) {
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
      if (n <= 0) return true;
    }
  }

  /// One request/reply round trip.
  std::string rpc(const std::string& line, int timeout_ms = 30000) {
    send_line(line);
    return read_line(timeout_ms);
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

/// Polls coordinator stats until `replicas` peers have completed the sync
/// handshake — before that, min_acked_epoch() trivially equals the
/// coordinator epoch and the watermark wait below would pass vacuously.
void wait_for_replicas(Client& coord, int replicas, int timeout_ms = 30000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    const std::string st = coord.rpc(R"({"op":"stats"})");
    if (num_field(st, "replicas") >= replicas) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "replicas never completed the sync handshake";
}

/// Polls coordinator stats until every replica has acked the current epoch.
std::string wait_watermark(Client& coord, int timeout_ms = 60000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string st;
  while (Clock::now() < deadline) {
    st = coord.rpc(R"({"op":"stats"})");
    if (!st.empty() &&
        field(st, "epoch_watermark") == field(st, "epoch")) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "replicas never caught up: " << st;
  return st;
}

std::string query(Client& c, int v) {
  return c.rpc(R"({"op":"query","vertex":)" + std::to_string(v) + "}");
}

// Two replicas replaying an SSSP mutation stream answer every sampled query
// with EXACTLY the coordinator's quiescent value (monotone program, unique
// fixed point), and the replies carry the replica's epoch watermark.
TEST(Tier, ReplicasConvergeToCoordinatorAnswersExactly) {
  Tier tier;
  tier.start({"--replicas=2", "--algo=sssp", "--kind=chain",
              "--vertices=400", "--gate=theorem2", "--threads=2"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 2);

  // Two epochs: shortcut edges into the chain, then a deletion epoch.
  for (int i = 0; i < 6; ++i) {
    coord.rpc(R"({"op":"mutate","kind":"insert","src":0,"dst":)" +
              std::to_string(50 * (i + 1)) + R"(,"weight":0.5})");
  }
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  coord.rpc(R"({"op":"mutate","kind":"delete","src":0,"dst":50})");
  coord.rpc(R"({"op":"mutate","kind":"weight","src":0,"dst":100,)"
            R"("weight":0.25})");
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));

  const std::string st = wait_watermark(coord);
  EXPECT_EQ(field(st, "epoch"), "2");

  Client rep0;
  Client rep1;
  rep0.connect(tier.replica_sock(0));
  rep1.connect(tier.replica_sock(1));
  EXPECT_TRUE(contains(rep0.read_line(), "\"role\":\"replica\""));
  EXPECT_TRUE(contains(rep1.read_line(), "\"role\":\"replica\""));

  for (int v = 0; v < 400; v += 13) {
    const std::string qc = query(coord, v);
    const std::string q0 = query(rep0, v);
    const std::string q1 = query(rep1, v);
    EXPECT_EQ(field(qc, "value"), field(q0, "value")) << qc << "\n" << q0;
    EXPECT_EQ(field(qc, "value"), field(q1, "value")) << qc << "\n" << q1;
    // Watermark: both replicas applied epoch 2 before answering.
    EXPECT_EQ(field(q0, "epoch"), "2") << q0;
    EXPECT_EQ(field(q1, "epoch"), "2") << q1;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// A replica held back with --chaos=hold:300 while the coordinator seals epochs
// faster than the 2-record ReplicationLog retains them must fall past the
// bound, get re-seeded with a full snapshot (stats prove it on both sides),
// and end up answering WCC queries exactly like the coordinator.
TEST(Tier, LaggedReplicaSnapshotsAndConvergesExactly) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2",
              "--history=2", "--chaos=hold:300"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);

  // Outpace the replica: 6 epochs back-to-back while it sleeps 300 ms per
  // record. With history=2 its cursor must drop off the retained window.
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 4; ++i) {
      coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
                std::to_string(290 + e) + R"(,"dst":)" +
                std::to_string((e * 37 + i * 11) % 300) + "}");
    }
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }

  const std::string st = wait_watermark(coord, 120000);
  EXPECT_GE(num_field(st, "snapshots_served"), 1) << st;

  Client rep;
  rep.connect(tier.replica_sock(0));
  rep.read_line();  // greeting
  const std::string rst = rep.rpc(R"({"op":"stats"})");
  EXPECT_GE(num_field(rst, "snapshots_installed"), 1) << rst;
  EXPECT_EQ(field(rst, "epoch_watermark"), "6") << rst;

  for (int v = 0; v < 300; v += 7) {
    const std::string qc = query(coord, v);
    const std::string qr = query(rep, v);
    EXPECT_EQ(field(qc, "value"), field(qr, "value")) << qc << "\n" << qr;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --chaos=stale:2 keeps the replica's replication at full speed (it acks
// every record promptly, so the coordinator watermark advances) but serves
// reads from a state two records behind, stamped with that state's honest
// epoch — the bounded per-record staleness mode of docs/DELAY.md.
TEST(Tier, StaleChaosServesBoundedLagWithHonestEpoch) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2",
              "--chaos=stale:2"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);

  for (int e = 0; e < 3; ++e) {
    for (int i = 0; i < 4; ++i) {
      coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
                std::to_string(290 + e) + R"(,"dst":)" +
                std::to_string((e * 37 + i * 11) % 300) + "}");
    }
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }
  // Stale serving must not stall replication: the replica still acks
  // everything, so the coordinator watermark reaches epoch 3.
  const std::string st = wait_watermark(coord);
  EXPECT_EQ(field(st, "epoch"), "3");

  Client rep;
  rep.connect(tier.replica_sock(0));
  rep.read_line();  // greeting
  const std::string rst = rep.rpc(R"({"op":"stats"})");
  EXPECT_EQ(field(rst, "epoch_watermark"), "3") << rst;
  EXPECT_EQ(field(rst, "chaos_stale_records"), "2") << rst;
  EXPECT_EQ(field(rst, "serving_lag"), "2") << rst;
  EXPECT_EQ(field(rst, "serving_epoch"), "1") << rst;
  // Query replies are stamped with the SERVED state's epoch, not the
  // applied watermark.
  EXPECT_EQ(field(query(rep, 0), "epoch"), "1");

  // Two more records slide the ring forward: still lag 2, served epoch 3.
  for (int e = 3; e < 5; ++e) {
    coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
              std::to_string(290 + e) + R"(,"dst":5})");
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }
  wait_watermark(coord);
  const std::string rst2 = rep.rpc(R"({"op":"stats"})");
  EXPECT_EQ(field(rst2, "serving_lag"), "2") << rst2;
  EXPECT_EQ(field(rst2, "serving_epoch"), "3") << rst2;
  EXPECT_EQ(field(query(rep, 0), "epoch"), "3");

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// Two replicas held back past the 2-record history are each re-seeded by a
// snapshot (header and edge chunks as frames) and must converge to EXACTLY
// the coordinator's WCC answers.
TEST(Tier, TwoLaggedReplicasSnapshotAndConvergeExactly) {
  Tier tier;
  tier.start({"--replicas=2", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2",
              "--history=2", "--chaos=hold:300"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 2);

  // Both replication peers speak frames; this client speaks JSON.
  const std::string st0 = coord.rpc(R"({"op":"stats"})");
  EXPECT_GE(num_field(st0, "conns_bin"), 2) << st0;
  EXPECT_GE(num_field(st0, "conns_json"), 1) << st0;

  // Outpace both replicas (300 ms per record, history=2): each falls off
  // the retained window and is re-seeded by a snapshot.
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 4; ++i) {
      coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
                std::to_string(290 + e) + R"(,"dst":)" +
                std::to_string((e * 37 + i * 11) % 300) + "}");
    }
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }

  const std::string st = wait_watermark(coord, 120000);
  EXPECT_GE(num_field(st, "snapshots_served"), 2) << st;

  Client rep0;
  Client rep1;
  rep0.connect(tier.replica_sock(0));
  rep1.connect(tier.replica_sock(1));
  EXPECT_TRUE(contains(rep0.read_line(), "\"role\":\"replica\""));
  EXPECT_TRUE(contains(rep1.read_line(), "\"role\":\"replica\""));
  const std::string rst0 = rep0.rpc(R"({"op":"stats"})");
  const std::string rst1 = rep1.rpc(R"({"op":"stats"})");
  EXPECT_GE(num_field(rst0, "snapshots_installed"), 1) << rst0;
  EXPECT_GE(num_field(rst1, "snapshots_installed"), 1) << rst1;
  EXPECT_EQ(field(rst0, "epoch_watermark"), "6") << rst0;
  EXPECT_EQ(field(rst1, "epoch_watermark"), "6") << rst1;

  for (int v = 0; v < 300; v += 7) {
    const std::string qc = query(coord, v);
    const std::string q0 = query(rep0, v);
    const std::string q1 = query(rep1, v);
    EXPECT_EQ(field(qc, "value"), field(q0, "value")) << qc << "\n" << q0;
    EXPECT_EQ(field(qc, "value"), field(q1, "value")) << qc << "\n" << q1;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// PageRank is eps-converged, not exact: independent racy runs on identical
// graphs land within a small neighborhood of the same fixed point, so the
// replica's answers must agree with the coordinator's within tolerance.
TEST(Tier, PageRankReplicaAgreesWithinTolerance) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=pagerank", "--kind=rmat",
              "--vertices=512", "--edges=2048", "--gate=theorem1",
              "--threads=2"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);

  for (int i = 0; i < 8; ++i) {
    coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
              std::to_string(i) + R"(,"dst":)" + std::to_string(511 - i) +
              "}");
  }
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  wait_watermark(coord);

  Client rep;
  rep.connect(tier.replica_sock(0));
  rep.read_line();
  for (int v = 0; v < 512; v += 17) {
    const double a = num_field(query(coord, v), "value");
    const double b = num_field(query(rep, v), "value");
    EXPECT_NEAR(a, b, 1e-2) << "vertex " << v;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  EXPECT_NE(tier.join(), -1);
}

// The edge-id freelist can return overflow_ratio() to exactly 0 (delete an
// edge, reuse its id for a different edge) while the id space is no longer
// canonical. A snapshot served in that state must still compact first —
// otherwise the re-seeded replica's canonically rebuilt ids disagree with
// the coordinator's, and the next id-addressed record (the weight change on
// the reused-id edge below) lands on the wrong edge and SSSP answers
// diverge.
TEST(Tier, SnapshotAfterIdReuseStaysCanonical) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=sssp", "--kind=chain",
              "--vertices=300", "--gate=theorem2", "--threads=2",
              "--history=2", "--chaos=hold:300"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);

  // Epoch 1: retire the id of chain edge (5,6). Epoch 2: reuse it for the
  // shortcut (0,7), which sorts far from (5,6) — id space hole-free again,
  // ids out of canonical order.
  coord.rpc(R"({"op":"mutate","kind":"delete","src":5,"dst":6})");
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  coord.rpc(R"({"op":"mutate","kind":"insert","src":0,"dst":7,)"
            R"("weight":1.0})");
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));

  // Epochs 3-6: weight churn on (10,11), sealed faster than the lagged
  // replica (300 ms per record) can replay with only 2 records of history,
  // forcing the snapshot path while the reused id is in place.
  for (int e = 0; e < 4; ++e) {
    coord.rpc(R"({"op":"mutate","kind":"weight","src":10,"dst":11,)"
              R"("weight":)" + std::to_string(1.0 + 0.5 * e) + "}");
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }
  {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    std::string st;
    while (Clock::now() < deadline) {
      st = coord.rpc(R"({"op":"stats"})");
      if (num_field(st, "snapshots_served") >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_GE(num_field(st, "snapshots_served"), 1) << st;
  }

  // Epoch 7, AFTER the snapshot: reweight the reused-id edge. The record is
  // addressed by the coordinator's id for (0,7); only a canonical snapshot
  // makes the replica agree on what that id names.
  coord.rpc(R"({"op":"mutate","kind":"weight","src":0,"dst":7,)"
            R"("weight":0.25})");
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));

  const std::string st = wait_watermark(coord, 120000);
  EXPECT_EQ(field(st, "epoch"), "7") << st;

  Client rep;
  rep.connect(tier.replica_sock(0));
  rep.read_line();  // greeting
  const std::string rst = rep.rpc(R"({"op":"stats"})");
  EXPECT_GE(num_field(rst, "snapshots_installed"), 1) << rst;

  // Monotone program, identical graph + weights: answers must match the
  // coordinator's EXACTLY (including the "inf" tail past the deleted edge).
  for (int v = 0; v < 300; v += 7) {
    const std::string qc = query(coord, v);
    const std::string qr = query(rep, v);
    EXPECT_EQ(field(qc, "value"), field(qr, "value")) << qc << "\n" << qr;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// Coordinator epochs run on its epoch worker (each engine run held open for
// 200 ms) while a replica held 300 ms per record falls past the 2-record
// history and must be re-seeded by snapshot — a snapshot reads the graph,
// so it has to wait for the epoch in flight to land. A query from a second
// coordinator client sent while an epoch is held is answered only once the
// epoch has landed, stamped with the new epoch; at quiescence the replica
// equals the coordinator at every vertex.
TEST(Tier, EpochWorkerHoldsReadsAndSnapshotsUntilTheEpochLands) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2",
              "--history=2", "--chaos=hold:300", "--epoch-hold-ms=200"});
  Client coord;
  Client reader;
  coord.connect(tier.coord_sock());
  reader.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  EXPECT_TRUE(contains(reader.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);

  constexpr int kEpochs = 10;
  for (int e = 1; e <= kEpochs; ++e) {
    // One write: the coordinator acks the mutates and starts the epoch in
    // the same dispatch pass, before it can read the reader's query.
    std::string burst;
    for (int i = 0; i < 4; ++i) {
      burst += R"({"op":"mutate","kind":"insert","src":)" +
               std::to_string(280 + e) + R"(,"dst":)" +
               std::to_string((e * 37 + i * 11) % 300) + "}\n";
    }
    coord.send_line(burst + R"({"op":"recompute"})");
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(contains(coord.read_line(), "\"pending\":")) << e;
    }
    const std::string q = query(reader, 290);
    EXPECT_EQ(field(q, "epoch"), std::to_string(e)) << q;
    const std::string rec = coord.read_line();
    EXPECT_EQ(field(rec, "epoch"), std::to_string(e)) << rec;
    EXPECT_EQ(field(rec, "converged"), "true") << rec;
  }

  const std::string st = wait_watermark(coord, 120000);
  EXPECT_EQ(field(st, "epoch"), std::to_string(kEpochs)) << st;
  EXPECT_GE(num_field(st, "snapshots_served"), 1) << st;

  Client rep;
  rep.connect(tier.replica_sock(0));
  rep.read_line();  // greeting
  for (int v = 0; v < 300; ++v) {
    const std::string qc = query(coord, v);
    const std::string qr = query(rep, v);
    ASSERT_EQ(field(qc, "value"), field(qr, "value")) << qc << "\n" << qr;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

/// Child pids of `parent` (the launcher's children ARE the replicas) via
/// /proc — a reaped child disappears from this list, a zombie does not.
std::vector<pid_t> child_pids(pid_t parent) {
  std::ifstream f("/proc/" + std::to_string(parent) + "/task/" +
                  std::to_string(parent) + "/children");
  std::vector<pid_t> out;
  long long p = 0;
  while (f >> p) out.push_back(static_cast<pid_t>(p));
  return out;
}

/// One non-retrying connect attempt; -1 if nothing is listening.
int try_connect_once(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return fd;
  }
  ::close(fd);
  return -1;
}

// Replica-crash regression: SIGKILL one replica while the coordinator is
// actively streaming to it (hold-chaos + a 2-record history keep the
// record/snapshot pump busy, so the death lands mid-chunk). The coordinator
// must notice the dead peer (POLLHUP/EPIPE), retire it, waitpid the child
// (no zombie), count both in stats, and keep serving the tier through the
// surviving replica — then report the crash in the launcher's exit status.
TEST(Tier, ReplicaCrashMidStreamIsReapedAndSurvived) {
  Tier tier;
  tier.start({"--replicas=2", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2",
              "--history=2", "--chaos=hold:200"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 2);
  const std::vector<pid_t> replicas = child_pids(tier.pid);
  ASSERT_EQ(replicas.size(), 2u);

  // Outpace the bounded history (200 ms hold per record, history=2) so the
  // victim is behind — records and/or snapshot chunks in flight — when shot.
  for (int e = 0; e < 3; ++e) {
    for (int i = 0; i < 4; ++i) {
      coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
                std::to_string(290 + e) + R"(,"dst":)" +
                std::to_string((e * 31 + i * 13) % 300) + "}");
    }
    EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  }
  ASSERT_EQ(::kill(replicas[0], SIGKILL), 0);

  // The crash surfaces in stats: peer retired as broken, child reaped.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  std::string st;
  for (;;) {
    st = coord.rpc(R"({"op":"stats"})");
    if (num_field(st, "replicas_broken") >= 1 &&
        num_field(st, "children_reaped") >= 1) {
      break;
    }
    ASSERT_LT(Clock::now(), deadline) << "crash never surfaced: " << st;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(field(st, "replicas"), "1") << st;
  // Reaped means gone from the launcher's child list (a zombie would stay).
  for (const pid_t pid : child_pids(tier.pid)) EXPECT_NE(pid, replicas[0]);

  // The tier keeps working: more epochs land, the watermark (which only
  // counts live synced peers) still reaches the coordinator epoch, and the
  // survivor answers queries with the coordinator's exact WCC values.
  for (int i = 0; i < 4; ++i) {
    coord.rpc(R"({"op":"mutate","kind":"insert","src":5,"dst":)" +
              std::to_string(100 + 40 * i) + "}");
  }
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  wait_watermark(coord, 120000);

  int survivor_fd = -1;
  std::size_t survivor = 0;
  for (std::size_t k = 0; k < 2 && survivor_fd < 0; ++k) {
    survivor_fd = try_connect_once(tier.replica_sock(static_cast<int>(k)));
    if (survivor_fd >= 0) survivor = k;
  }
  ASSERT_GE(survivor_fd, 0) << "no replica left listening";
  ::close(survivor_fd);  // Client does its own connect
  Client rep;
  rep.connect(tier.replica_sock(static_cast<int>(survivor)));
  EXPECT_TRUE(contains(rep.read_line(), "\"role\":\"replica\""));
  for (int v = 0; v < 300; v += 17) {
    const std::string qc = query(coord, v);
    const std::string qr = query(rep, v);
    EXPECT_EQ(field(qc, "value"), field(qr, "value")) << qc << "\n" << qr;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  // A crashed replica fails the run: the launcher must exit 1, not 0.
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "status=" << status;
}

/// Reads the first bin1 frame `fd` delivers into `f`; false on a timeout,
/// EOF or a length past kMaxFrameLen.
bool read_frame(int fd, ndg::dyn::Frame& f, int timeout_ms = 30000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buf;
  for (;;) {
    const ndg::dyn::FrameParse rc = ndg::dyn::extract_frame(buf, f);
    if (rc == ndg::dyn::FrameParse::kOk) return true;
    if (rc == ndg::dyn::FrameParse::kBad) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int prc = ::poll(&p, 1, static_cast<int>(left.count()));
    if (prc < 0 && errno == EINTR) continue;
    if (prc <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

// A replica that gives up on a malformed replication frame must exit with
// status 1, so the coordinator's reap counts a crash, not a clean exit. The
// test plays the coordinator: it binds rep.sock, takes the replica's kSync
// frame (its first bytes on the socket) and ships a kRepRecord whose count
// disagrees with its payload size.
TEST(Tier, ReplicaExitsOneOnMalformedRecordFrame) {
  Tier replica;
  replica.start({"--role=replica", "--id=0", "--algo=wcc", "--kind=er",
                 "--vertices=300", "--edges=900", "--seed=7",
                 "--gate=theorem2", "--threads=2"});
  const std::string rep_path = replica.dir + "/rep.sock";
  const int listen_fd = ndg::tier::listen_unix(rep_path);
  int fd = -1;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (fd < 0 && Clock::now() < deadline) {
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) fd = ::accept(listen_fd, nullptr, nullptr);
  }
  ::close(listen_fd);
  ::unlink(rep_path.c_str());
  ASSERT_GE(fd, 0) << "replica never connected to rep.sock";

  ndg::dyn::Frame f;
  ASSERT_TRUE(read_frame(fd, f)) << "no kSync frame from the replica";
  ASSERT_EQ(f.type, ndg::dyn::FrameType::kSync);
  std::uint64_t id = 99;
  std::uint64_t seq = 99;
  ASSERT_TRUE(ndg::dyn::decode_sync_bin(f.payload, id, seq));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(seq, 0u);

  ndg::dyn::RepRecord rec;
  rec.seq = 1;
  rec.epoch = 1;
  const ndg::dyn::AppliedMutation m{ndg::dyn::MutationKind::kInsertEdge, 1,
                                    2, 900, 1.0f, 1.0f};
  rec.muts = {m, m};
  std::string payload = ndg::dyn::encode_record_bin(rec);
  payload.resize(payload.size() - 25);  // count says 2, payload holds 1
  std::string out;
  ndg::dyn::append_frame(out, ndg::dyn::FrameType::kRepRecord, payload);
  ASSERT_EQ(::write(fd, out.data(), out.size()),
            static_cast<ssize_t>(out.size()));

  const int status = replica.join(30000);
  ::close(fd);
  ASSERT_NE(status, -1) << "replica did not exit on a malformed record";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "status=" << status;
}

/// Plays the coordinator for a lone replica launched in `dir`: binds
/// rep.sock, accepts the replica and takes its kSync frame; -1 on failure.
int accept_lone_replica(const std::string& dir) {
  const std::string rep_path = dir + "/rep.sock";
  const int listen_fd = ndg::tier::listen_unix(rep_path);
  int fd = -1;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (fd < 0 && Clock::now() < deadline) {
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) fd = ::accept(listen_fd, nullptr, nullptr);
  }
  ::close(listen_fd);
  ::unlink(rep_path.c_str());
  ndg::dyn::Frame f;
  if (fd >= 0 && (!read_frame(fd, f) || f.type != ndg::dyn::FrameType::kSync)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A replication stream that breaks on its input is a failure too: a frame
// length past kMaxFrameLen leaves no way to resynchronize, so the replica
// exits 1 like it does on a payload it cannot decode.
TEST(Tier, ReplicaExitsOneOnOversizeFrameLength) {
  Tier replica;
  replica.start({"--role=replica", "--id=0", "--algo=wcc", "--kind=er",
                 "--vertices=300", "--edges=900", "--seed=7",
                 "--gate=theorem2", "--threads=2"});
  const int fd = accept_lone_replica(replica.dir);
  ASSERT_GE(fd, 0) << "replica never sent its kSync frame";
  std::string header;
  ndg::dyn::put_u32(header, ndg::dyn::kMaxFrameLen + 1);
  ndg::dyn::put_u8(header,
                   static_cast<std::uint8_t>(ndg::dyn::FrameType::kRepRecord));
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));

  const int status = replica.join(30000);
  ::close(fd);
  ASSERT_NE(status, -1) << "replica did not exit on an oversize frame";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "status=" << status;
}

// A peer on rep.sock that opens with a JSON line breaks the frame parser at
// its first bytes; the coordinator logs the drop and counts exactly one
// parse error for it.
TEST(Tier, JsonSyncPeerOnRepSockCountsOneParseError) {
  Tier tier;
  tier.start({"--replicas=1", "--algo=wcc", "--kind=chain", "--vertices=8",
              "--threads=2"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 1);
  const std::string st0 = coord.rpc(R"({"op":"stats"})");

  Client json_peer;
  json_peer.connect(tier.dir + "/rep.sock");
  json_peer.send_line(R"({"op":"sync","replica":9,"seq":0})");
  ASSERT_TRUE(json_peer.wait_closed()) << "JSON peer was not dropped";

  const std::string st = coord.rpc(R"({"op":"stats"})");
  EXPECT_EQ(num_field(st, "parse_errors"),
            num_field(st0, "parse_errors") + 1)
      << st;
  EXPECT_EQ(field(st, "replicas"), "1") << st;
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// rep.sock speaks bin1 frames only. A peer that opens with the old JSON sync
// line and one whose kSync frame is short are both dropped, the short frame
// as a parse error, and neither counts as a replica; the two real replicas
// still reach the coordinator's exact WCC answers.
TEST(Tier, NonFramePeersOnRepSockAreDropped) {
  Tier tier;
  tier.start({"--replicas=2", "--algo=wcc", "--kind=er", "--vertices=300",
              "--edges=900", "--seed=7", "--gate=theorem2", "--threads=2"});
  Client coord;
  coord.connect(tier.coord_sock());
  EXPECT_TRUE(contains(coord.read_line(), "\"ready\":true"));
  wait_for_replicas(coord, 2);
  const std::string st0 = coord.rpc(R"({"op":"stats"})");

  Client json_peer;
  json_peer.connect(tier.dir + "/rep.sock");
  json_peer.send_line(R"({"op":"sync","replica":9,"seq":0})");
  Client short_peer;
  short_peer.connect(tier.dir + "/rep.sock");
  std::string bad;
  ndg::dyn::append_frame(bad, ndg::dyn::FrameType::kSync,
                         ndg::dyn::encode_sync_bin(9, 0).substr(0, 8));
  short_peer.send_bytes(bad);
  ASSERT_TRUE(json_peer.wait_closed()) << "JSON peer was not dropped";
  ASSERT_TRUE(short_peer.wait_closed()) << "short-frame peer was not dropped";

  const std::string st = coord.rpc(R"({"op":"stats"})");
  EXPECT_EQ(field(st, "replicas"), "2") << st;
  EXPECT_GE(num_field(st, "parse_errors"),
            num_field(st0, "parse_errors") + 1)
      << st;

  for (int i = 0; i < 4; ++i) {
    coord.rpc(R"({"op":"mutate","kind":"insert","src":)" +
              std::to_string(290 + i) + R"(,"dst":)" +
              std::to_string(37 * i % 300) + "}");
  }
  EXPECT_TRUE(contains(coord.rpc(R"({"op":"recompute"})"), "\"ok\":true"));
  wait_watermark(coord);

  Client rep0;
  Client rep1;
  rep0.connect(tier.replica_sock(0));
  rep1.connect(tier.replica_sock(1));
  EXPECT_TRUE(contains(rep0.read_line(), "\"role\":\"replica\""));
  EXPECT_TRUE(contains(rep1.read_line(), "\"role\":\"replica\""));
  for (int v = 0; v < 300; v += 7) {
    const std::string qc = query(coord, v);
    const std::string q0 = query(rep0, v);
    const std::string q1 = query(rep1, v);
    EXPECT_EQ(field(qc, "value"), field(q0, "value")) << qc << "\n" << q0;
    EXPECT_EQ(field(qc, "value"), field(q1, "value")) << qc << "\n" << q1;
  }

  EXPECT_TRUE(contains(coord.rpc(R"({"op":"shutdown"})"), "\"bye\":true"));
  const int status = tier.join();
  ASSERT_NE(status, -1) << "tier did not exit after shutdown";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- Unit tests for the hardened wire/socket layers ---

// A peer that streams bytes with no newline forever must be dropped once
// the unterminated line passes the bound instead of growing server memory.
TEST(TierNet, LineConnBreaksOnOversizeUnterminatedLine) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ndg::tier::set_nonblocking(sv[0]);
  ndg::tier::LineConn conn;
  conn.fd = sv[0];

  const std::string junk(64 * 1024, 'x');  // no newline anywhere
  std::size_t written = 0;
  while (!conn.broken &&
         written <= ndg::tier::LineConn::kMaxLineBytes + junk.size()) {
    std::size_t off = 0;
    while (off < junk.size()) {
      const ssize_t n = ::write(sv[1], junk.data() + off, junk.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
    written += junk.size();
    conn.read_input();  // reader keeps pace, so the writes above can't block
  }
  EXPECT_TRUE(conn.broken);
  EXPECT_TRUE(conn.pending.empty());  // never surfaced a bogus "line"
  ::close(sv[0]);
  ::close(sv[1]);
}

// A frame length past the bound breaks the connection and says why, so
// its owner can log and count the drop.
TEST(TierNet, LineConnRecordsWhyAFrameBrokeIt) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ndg::tier::set_nonblocking(sv[0]);
  ndg::tier::LineConn conn;
  conn.fd = sv[0];
  conn.proto = ndg::dyn::WireProto::kBin;

  std::string header;
  ndg::dyn::put_u32(header, ndg::dyn::kMaxFrameLen + 1);
  ndg::dyn::put_u8(header, 0);
  ASSERT_EQ(::write(sv[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  conn.read_input();
  EXPECT_TRUE(conn.broken);
  EXPECT_TRUE(contains(conn.input_error, "exceeds bound")) << conn.input_error;
  EXPECT_TRUE(conn.frames.empty());
  ::close(sv[0]);
  ::close(sv[1]);
}

// Newline-terminated traffic of any volume stays healthy: lines surface in
// `pending` and the connection is never marked broken.
TEST(TierNet, LineConnSplitsCompleteLinesUnharmed) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ndg::tier::set_nonblocking(sv[0]);
  ndg::tier::LineConn conn;
  conn.fd = sv[0];

  std::string burst;
  for (int i = 0; i < 2000; ++i) {
    burst += "{\"op\":\"query\",\"vertex\":" + std::to_string(i) + "}\n";
  }
  std::size_t off = 0;
  while (off < burst.size()) {
    const ssize_t n = ::write(sv[1], burst.data() + off, burst.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
    conn.read_input();
  }
  conn.read_input();
  EXPECT_FALSE(conn.broken);
  EXPECT_EQ(conn.pending.size(), 2000u);
  EXPECT_TRUE(conn.in_buf.empty());
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace
