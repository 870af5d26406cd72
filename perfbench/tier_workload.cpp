// tier-sssp: the serving path end to end. ndg_tier runs a coordinator and
// one replica (SSSP, one engine thread each) over a 65,536-vertex R-MAT. The
// tier is launched kSetups times; each topology carries an equal share of
// the window, and one generator thread of this process drives both of its
// sockets open loop:
//
//   coord.sock      every 20 ms a batch of 64 monotone mutations is due
//                   (fresh inserts, weight 1..8, and weight decreases on
//                   edges inserted by earlier batches), pipelined; the
//                   batch's recompute follows its last mutate ack.
//   replica-0.sock  point queries at Poisson arrivals, 2,000/s on average,
//                   each timed from its due time.
//
// Epoch e is visible at the first replica reply stamped epoch >= e, timed
// from the batch's due time. Once a topology's load stops, every vertex at
// both the coordinator and the replica must equal ref::sssp on the final
// graph, which this file rebuilds from the base generator plus the batches
// it sent.

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "bench.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace perfbench {
namespace {

using ndg::Graph;
using ndg::VertexId;

constexpr VertexId kVertices = 65536;
constexpr ndg::EdgeId kEdges = 16 * 65536;
constexpr std::uint64_t kWeightSeed = 42;
constexpr int kSetups = 3;
constexpr auto kBatchPeriod = std::chrono::milliseconds(20);
constexpr int kBatchSize = 64;
/// Weight decreases per batch once earlier batches left candidates.
constexpr int kDecreasesPerBatch = 16;
constexpr double kReadsPerSecond = 2000.0;
/// An epoch not visible this long after its due time has failed.
constexpr auto kVisibleTimeout = std::chrono::seconds(1);
/// Lateness or backlog beyond these marks the run invalid (module comment).
constexpr double kMaxLateP99Ms = 1.0;
constexpr std::size_t kMaxBacklog = 4;

std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return {};
  p += pat.size();
  const std::size_t e = line.find_first_of(",}", p);
  return line.substr(p, e == std::string::npos ? std::string::npos : e - p);
}

std::uint64_t field_u64(const std::string& line, const std::string& key) {
  return std::strtoull(field(line, key).c_str(), nullptr, 10);
}

bool ok(const std::string& line) { return line.find("\"ok\":true") != std::string::npos; }

/// One client connection, non-blocking once connected.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  /// Connects to the unix socket at `path`, retrying until `deadline`.
  bool connect(const std::string& path, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) return false;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) return false;
      std::memcpy(addr.sun_path, path.c_str(), path.size());
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
        return true;
      }
      close();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool want_write() const { return !out_.empty(); }
  [[nodiscard]] bool broken() const { return broken_; }

  void queue(const std::string& line) { out_ += line + "\n"; }

  /// Writes what the socket accepts now.
  void flush() {
    while (!out_.empty() && !broken_) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        broken_ = true;
      }
    }
  }

  /// Reads what the socket holds now.
  void fill() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) broken_ = true;
      return;
    }
  }

  bool next_line(std::string& line) {
    const std::size_t nl = in_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = in_.size();
      return false;
    }
    line.assign(in_, 0, nl);
    in_.erase(0, nl + 1);
    scan_ = 0;
    return true;
  }

  /// Blocking exchange for set-up and checks: sends `line`, returns the
  /// next reply line or "" on timeout or a broken connection.
  std::string rpc(const std::string& line, Clock::time_point deadline) {
    if (!line.empty()) queue(line);
    return await_line(deadline);
  }

  std::string await_line(Clock::time_point deadline) {
    std::string reply;
    while (!next_line(reply)) {
      flush();
      if (broken_) return {};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return {};
      pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
      if (::poll(&p, 1, static_cast<int>(left.count())) > 0) fill();
    }
    return reply;
  }

 private:
  int fd_ = -1;
  bool broken_ = false;
  std::string in_;
  std::string out_;
  std::size_t scan_ = 0;
};

/// Waits up to `timeout` for `pid` to exit; returns its wait status or -1.
int wait_for(pid_t pid, std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Child pids of `pid`, from /proc (the replicas of a launcher).
std::vector<pid_t> children_of(pid_t pid) {
  std::vector<pid_t> out;
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" + std::to_string(pid) +
                   "/children");
  long c = 0;
  while (in >> c) out.push_back(static_cast<pid_t>(c));
  return out;
}

void remove_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// The CPUs this process may use, split in two: the first for the load
/// generator, the rest for the tier. A process woken by a socket write tends
/// to be placed on the writer's CPU, and the generator never yields its CPU,
/// so the two must not share one. Both sets are empty when only one CPU is
/// available.
struct CpuSplit {
  cpu_set_t generator;
  cpu_set_t tier;
  bool usable = false;

  CpuSplit() {
    CPU_ZERO(&generator);
    CPU_ZERO(&tier);
    cpu_set_t all;
    if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) return;
    bool first = true;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all)) continue;
      CPU_SET(c, first ? &generator : &tier);
      first = false;
    }
    usable = true;
  }
};

/// One running ndg_tier topology. The destructor stops it on every path: a
/// launcher still running after shutdown() (or never asked) is killed with
/// its replicas, every process is waited for, and the socket directory is
/// removed. This process is a child subreaper (set in run_tier_sssp), so a
/// replica orphaned by a dead launcher is reparented here and reaped too.
class Tier {
 public:
  Tier(const std::string& dir, const std::vector<std::string>& flags, const CpuSplit& cpus)
      : dir_(dir) {
    remove_dir(dir_);
    if (::mkdir(dir_.c_str(), 0700) != 0) {
      throw std::runtime_error("cannot create " + dir_ + ": " + std::strerror(errno));
    }
    std::vector<std::string> argv = {NDG_TIER_BIN, "--dir=" + dir_};
    argv.insert(argv.end(), flags.begin(), flags.end());
    std::vector<char*> cargv;
    for (auto& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (cpus.usable) ::sched_setaffinity(0, sizeof cpus.tier, &cpus.tier);
      ::execv(cargv[0], cargv.data());
      std::_Exit(127);
    }
  }
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  ~Tier() {
    if (pid_ > 0) {
      const std::vector<pid_t> replicas = children_of(pid_);
      ::kill(pid_, SIGKILL);
      for (const pid_t r : replicas) ::kill(r, SIGKILL);
      wait_for(pid_, std::chrono::seconds(5));
    }
    // Replicas whose launcher died were reparented to this process.
    for (const pid_t orphan : children_of(::getpid())) {
      ::kill(orphan, SIGKILL);
      wait_for(orphan, std::chrono::seconds(5));
    }
    remove_dir(dir_);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// The launcher's children: its replicas.
  [[nodiscard]] std::vector<pid_t> replicas() const { return children_of(pid_); }

  /// Asks the coordinator to stop the tier and waits for the launcher.
  /// Returns "" when it exited cleanly, else why not.
  std::string shutdown(Conn& coord) {
    const std::string reply =
        coord.rpc(R"({"op":"shutdown"})", Clock::now() + std::chrono::seconds(5));
    const int status = wait_for(pid_, std::chrono::seconds(10));
    if (status < 0) return "launcher did not exit after shutdown";
    pid_ = 0;  // the launcher reaped its replicas before exiting
    if (!ok(reply)) return "shutdown reply: " + reply;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return "launcher exit status " + std::to_string(status);
    }
    return "";
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
};

/// A launched tier with both client connections, after set-up.
struct Topology {
  std::unique_ptr<Tier> tier;
  Conn coord;
  Conn replica;
  double launch_s = 0;
  double sync_s = 0;
};

/// Launches the tier and waits until the coordinator answers (its cold
/// recompute is done) and the replica has synced and answers too.
void launch(Topology& t, Tracer& tracer, const std::string& dir,
            const std::vector<std::string>& flags, const CpuSplit& cpus) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  Timed tl(tracer, "tier.launch");
  t.tier = std::make_unique<Tier>(dir, flags, cpus);
  if (!t.coord.connect(dir + "/coord.sock", deadline) ||
      !ok(t.coord.await_line(deadline))) {
    throw std::runtime_error("coordinator did not come up");
  }
  t.launch_s = tl.stop();
  Timed ts(tracer, "tier.sync");
  for (;;) {
    Timed rpc(tracer, "rpc.stats");
    const std::string st = t.coord.rpc(R"({"op":"stats"})", deadline);
    rpc.stop();
    if (!ok(st)) throw std::runtime_error("coordinator stats failed: " + st);
    if (field_u64(st, "replicas") == 1) break;
    if (Clock::now() > deadline) throw std::runtime_error("replica did not sync");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!t.replica.connect(dir + "/replica-0.sock", deadline) ||
      !ok(t.replica.await_line(deadline))) {
    throw std::runtime_error("replica did not come up");
  }
  t.sync_s = ts.stop();
}

struct Inserted {
  VertexId src;
  VertexId dst;
  int weight;
};

std::uint64_t key(VertexId s, VertexId d) { return (std::uint64_t{s} << 32) | d; }

bool base_has(const Graph& g, VertexId s, VertexId d) {
  const auto nb = g.out_neighbors(s);
  return std::binary_search(nb.begin(), nb.end(), d);
}

/// The monotone mutation stream: fresh inserts and weight decreases on
/// edges earlier batches inserted, never two mutations on one edge per batch.
class MutationStream {
 public:
  MutationStream(const Graph& base, std::uint64_t seed) : base_(base), rng_(seed) {}

  std::string next_batch(std::size_t& mutations) {
    std::string out;
    std::vector<std::size_t> picked;
    for (int i = 0; i < kDecreasesPerBatch && !decreasable_.empty(); ++i) {
      const std::size_t slot = rng_() % decreasable_.size();
      const std::size_t idx = decreasable_[slot];
      decreasable_[slot] = decreasable_.back();
      decreasable_.pop_back();
      Inserted& e = inserted_[idx];
      e.weight = 1 + static_cast<int>(rng_() % static_cast<unsigned>(e.weight - 1));
      out += line("weight", e);
      picked.push_back(idx);
    }
    while (picked.size() < kBatchSize) {
      const auto s = static_cast<VertexId>(rng_() % kVertices);
      const auto d = static_cast<VertexId>(rng_() % kVertices);
      if (s == d || base_has(base_, s, d) || !index_.emplace(key(s, d), inserted_.size()).second) {
        continue;
      }
      inserted_.push_back({s, d, 1 + static_cast<int>(rng_() % 8)});
      out += line("insert", inserted_.back());
      picked.push_back(inserted_.size() - 1);
    }
    // Edges become decreasable from the next batch on.
    for (const std::size_t idx : picked) {
      if (inserted_[idx].weight > 1) decreasable_.push_back(idx);
    }
    mutations = picked.size();
    return out;
  }

  /// The final graph and its canonical-id weights.
  Graph final_graph(std::vector<float>& weights) const {
    ndg::EdgeList edges;
    edges.reserve(base_.num_edges() + inserted_.size());
    for (VertexId v = 0; v < base_.num_vertices(); ++v) {
      for (const VertexId d : base_.out_neighbors(v)) edges.push_back({v, d});
    }
    for (const Inserted& e : inserted_) edges.push_back({e.src, e.dst});
    Graph g = Graph::build(kVertices, std::move(edges));
    weights.resize(g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto nb = g.out_neighbors(v);
      for (std::size_t k = 0; k < nb.size(); ++k) {
        const auto it = index_.find(key(v, nb[k]));
        if (it != index_.end()) {
          weights[g.out_edge_id(v, k)] = static_cast<float>(inserted_[it->second].weight);
        } else {
          const auto bn = base_.out_neighbors(v);
          const auto pos = std::lower_bound(bn.begin(), bn.end(), nb[k]) - bn.begin();
          weights[g.out_edge_id(v, k)] = ndg::SsspProgram::edge_weight(
              kWeightSeed, base_.out_edge_id(v, static_cast<std::size_t>(pos)));
        }
      }
    }
    return g;
  }

 private:
  static std::string line(const char* kind, const Inserted& e) {
    return std::string(R"({"op":"mutate","kind":")") + kind + R"(","src":)" +
           std::to_string(e.src) + R"(,"dst":)" + std::to_string(e.dst) +
           R"(,"weight":)" + std::to_string(e.weight) + "}\n";
  }

  const Graph& base_;
  std::mt19937_64 rng_;
  std::vector<Inserted> inserted_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::size_t> decreasable_;
};

struct Batch {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point acked;
  Clock::time_point replied;
  Clock::time_point visible;
  std::uint64_t epoch = 0;  // expected epoch of this batch's recompute
  std::size_t mutations = 0;
  std::size_t acks = 0;
  bool recompute_sent = false;
  bool has_reply = false;
  bool is_visible = false;
  bool failed = false;
  std::uint64_t span = 0;  // the epoch.visible span, parent of the batch's RPCs
};

struct Read {
  Clock::time_point due;
  bool counted;  // due inside the measured window
};

/// Compares every vertex served at `conn` against `expected`; returns the
/// number of mismatching or unanswered vertices.
std::size_t check_all(Conn& conn, const std::vector<float>& expected, std::string& first) {
  std::size_t bad = 0;
  constexpr VertexId kChunk = 2048;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  for (VertexId lo = 0; lo < expected.size(); lo += kChunk) {
    const VertexId hi = std::min<VertexId>(lo + kChunk, static_cast<VertexId>(expected.size()));
    for (VertexId v = lo; v < hi; ++v) {
      conn.queue(R"({"op":"query","vertex":)" + std::to_string(v) + "}");
    }
    for (VertexId v = lo; v < hi; ++v) {
      const std::string reply = conn.await_line(deadline);
      const std::string val = field(reply, "value");
      const float got = val == "\"inf\"" ? std::numeric_limits<float>::infinity()
                                         : static_cast<float>(std::strtod(val.c_str(), nullptr));
      if (!ok(reply) || field_u64(reply, "vertex") != v || val.empty() || got != expected[v]) {
        if (bad++ == 0) {
          first = "vertex " + std::to_string(v) + ": " + reply + " expected " +
                  std::to_string(expected[v]);
        }
      }
    }
  }
  return bad;
}

/// Samples and counts pooled over the measured windows of every topology.
struct Load {
  std::vector<double> visible_ms;
  std::vector<double> read_us;
  std::vector<double> late_ms;
  std::vector<double> intake_ms;
  std::vector<double> epoch_ms;
  std::vector<double> lag_ms;
  std::vector<double> seeds;
  std::vector<double> iterations;
  std::vector<double> updates;
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t warm = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t epochs = 0;
  std::uint64_t reads = 0;
  std::size_t backlog_max = 0;
  double rss_mb = 0.0;
};

/// Drives one launched topology open loop for `seconds`, checks it at
/// quiescence against ref::sssp on the final graph, and stops it.
void drive(Topology& topo, const Graph& base, VertexId source, std::uint64_t seed,
           double seconds, Tracer& tracer, Report& rep, Load& load) {
  Conn& coord = topo.coord;
  Conn& replica = topo.replica;
  const Clock::time_point far = Clock::now() + std::chrono::seconds(30);
  const std::string st0 = coord.rpc(R"({"op":"stats"})", far);
  if (!ok(st0)) throw std::runtime_error("stats failed: " + st0);
  const std::uint64_t epoch0 = field_u64(st0, "epoch");

  MutationStream stream(base, seed);
  std::mt19937_64 read_rng(seed ^ 0x5eed5eedULL);
  std::exponential_distribution<double> gap(kReadsPerSecond);
  std::vector<Batch> batches;
  // Awaited coordinator replies in wire order: (batch index, is recompute).
  std::deque<std::pair<std::size_t, bool>> coord_expect;
  std::deque<Read> reads_inflight;
  std::size_t next_send = 0;     // first batch not yet sent
  std::size_t next_visible = 0;  // first batch not yet visible or failed
  std::uint64_t reads_attempted = 0;

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const Clock::time_point hard_end = t_end + kVisibleTimeout + std::chrono::milliseconds(500);
  Clock::time_point next_batch_due = t0;
  Clock::time_point next_read_due =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap(read_rng)));
  std::string line;

  for (;;) {
    Clock::time_point now = Clock::now();
    // Batches fall due only inside the window.
    while (next_batch_due < t_end && next_batch_due <= now) {
      Batch b;
      b.due = next_batch_due;
      b.epoch = epoch0 + batches.size() + 1;
      b.span = tracer.reserve();
      batches.push_back(b);
      next_batch_due += kBatchPeriod;
    }
    // A batch goes out once the previous batch's recompute is on the wire,
    // so every sealed epoch holds exactly one batch.
    while (next_send < batches.size() &&
           (next_send == 0 || batches[next_send - 1].recompute_sent)) {
      Batch& b = batches[next_send];
      load.late_ms.push_back(1e3 * secs(b.due, now));
      std::string payload = stream.next_batch(b.mutations);
      payload.pop_back();  // queue() appends the last newline
      coord.queue(payload);
      b.sent = now;
      for (std::size_t i = 0; i < b.mutations; ++i) coord_expect.emplace_back(next_send, false);
      ++next_send;
    }
    // Reads keep flowing after the window until every epoch is resolved.
    while (next_read_due <= now) {
      const bool counted = next_read_due < t_end;
      reads_inflight.push_back({next_read_due, counted});
      if (counted) {
        ++reads_attempted;
        load.late_ms.push_back(1e3 * secs(next_read_due, now));
      }
      replica.queue(R"({"op":"query","vertex":)" + std::to_string(read_rng() % kVertices) + "}");
      next_read_due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(read_rng)));
    }
    coord.flush();
    replica.flush();

    // Epochs past their visibility deadline have failed.
    while (next_visible < next_send &&
           now - batches[next_visible].due > kVisibleTimeout) {
      batches[next_visible].failed = true;
      rep.fail("epoch " + std::to_string(batches[next_visible].epoch) +
               " not visible within 1 s");
      ++next_visible;
    }
    std::size_t backlog = 0;
    for (std::size_t i = next_visible; i < batches.size(); ++i) {
      if (!batches[i].has_reply) ++backlog;
    }
    load.backlog_max = std::max(load.backlog_max, backlog);

    const bool done = now >= t_end && next_visible == batches.size() && coord_expect.empty() &&
                      std::none_of(reads_inflight.begin(), reads_inflight.end(),
                                   [](const Read& r) { return r.counted; });
    if (done || now >= hard_end || coord.broken() || replica.broken()) break;

    // Busy-poll: on a VM a thread that sleeps can wake milliseconds late,
    // which would land in the latencies measured from due times. The
    // generator holds one core for the window instead.
    pollfd fds[2] = {
        {coord.fd(), static_cast<short>(POLLIN | (coord.want_write() ? POLLOUT : 0)), 0},
        {replica.fd(), static_cast<short>(POLLIN | (replica.want_write() ? POLLOUT : 0)), 0}};
    if (::poll(fds, 2, 0) <= 0) continue;
    if (fds[0].revents) coord.fill();
    if (fds[1].revents) replica.fill();
    now = Clock::now();

    while (coord.next_line(line)) {
      if (coord_expect.empty()) {
        rep.fail("unexpected coordinator reply: " + line);
        continue;
      }
      const auto [idx, is_recompute] = coord_expect.front();
      coord_expect.pop_front();
      Batch& b = batches[idx];
      if (!ok(line)) {
        b.failed = true;
        rep.fail("epoch " + std::to_string(b.epoch) + ": " + line);
      }
      if (!is_recompute) {
        if (++b.acks == b.mutations) {
          b.acked = now;
          tracer.record("rpc.mutate", b.sent, now, b.span);
          coord.queue(R"({"op":"recompute"})");
          coord.flush();
          coord_expect.emplace_back(idx, true);
          b.recompute_sent = true;
        }
        continue;
      }
      b.replied = now;
      b.has_reply = true;
      tracer.record("rpc.recompute", b.acked, now, b.span);
      load.epoch_ms.push_back(1e3 * secs(b.acked, now));
      load.applied += field_u64(line, "applied");
      load.rejected += field_u64(line, "rejected");
      load.warm += field(line, "warm") == "true" ? 1 : 0;
      load.seeds.push_back(static_cast<double>(field_u64(line, "seeds")));
      load.iterations.push_back(static_cast<double>(field_u64(line, "iterations")));
      load.updates.push_back(static_cast<double>(field_u64(line, "updates")));
      if (field_u64(line, "epoch") != b.epoch || field(line, "converged") != "true" ||
          field_u64(line, "rejected") != 0) {
        b.failed = true;
        rep.fail("epoch " + std::to_string(b.epoch) + " recompute: " + line);
      }
    }
    while (replica.next_line(line)) {
      if (reads_inflight.empty()) {
        rep.fail("unexpected replica reply: " + line);
        continue;
      }
      const Read r = reads_inflight.front();
      reads_inflight.pop_front();
      const std::string epoch_s = field(line, "epoch");
      if (!ok(line) || epoch_s.empty()) {
        if (r.counted) rep.fail("read: " + line);
        continue;
      }
      if (r.counted) {
        load.read_us.push_back(1e6 * secs(r.due, now));
        tracer.record("rpc.query", r.due, now);
      }
      const std::uint64_t e = std::strtoull(epoch_s.c_str(), nullptr, 10);
      while (next_visible < next_send && batches[next_visible].epoch <= e) {
        Batch& b = batches[next_visible++];
        b.visible = now;
        b.is_visible = true;
        tracer.record("epoch.visible", b.due, now, 0, b.span);
      }
    }
  }
  rep.window_s += secs(t0, Clock::now());

  // Collect the replies of reads sent while draining, so both connections
  // are in step for the checks below.
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(5);
  while (!reads_inflight.empty() && !replica.await_line(drain_deadline).empty()) {
    reads_inflight.pop_front();
  }

  // Everything still outstanding now has failed.
  for (std::size_t i = next_visible; i < batches.size(); ++i) {
    if (!batches[i].failed) rep.fail("epoch " + std::to_string(batches[i].epoch) + " unresolved");
  }
  for (const Read& r : reads_inflight) {
    if (r.counted) rep.fail("read unanswered");
  }
  if (coord.broken() || replica.broken()) rep.fail("a tier connection broke");
  rep.attempted += batches.size() + reads_attempted;

  for (const Batch& b : batches) {
    if (!b.is_visible || b.failed) continue;
    load.visible_ms.push_back(1e3 * secs(b.due, b.visible));
    load.intake_ms.push_back(1e3 * secs(b.sent, b.acked));
    if (b.has_reply) load.lag_ms.push_back(1e3 * secs(b.replied, b.visible));
  }

  // ---- Quiescence: stats hygiene, then every vertex on both ends ----
  const std::uint64_t last_epoch = epoch0 + batches.size();
  const Clock::time_point check_deadline = Clock::now() + std::chrono::seconds(30);
  const std::string st1 = coord.rpc(R"({"op":"stats"})", check_deadline);
  ++rep.attempted;
  if (!ok(st1) || field_u64(st1, "replicas_broken") > 0 || field_u64(st1, "parse_errors") > 0 ||
      field_u64(st1, "epoch") != last_epoch) {
    rep.fail("coordinator stats after the load: " + st1);
  }
  for (;;) {
    const std::string rs = replica.rpc(R"({"op":"stats"})", check_deadline);
    if (!ok(rs) || field_u64(rs, "epoch_watermark") >= last_epoch) break;
    if (Clock::now() > check_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  double rss = vm_hwm_mb(topo.tier->pid());
  for (const pid_t r : topo.tier->replicas()) rss += vm_hwm_mb(r);
  load.rss_mb = std::max(load.rss_mb, rss);
  load.compactions += field_u64(st1, "compactions") - field_u64(st0, "compactions");
  load.bytes_out += field_u64(st1, "bytes_out") - field_u64(st0, "bytes_out");
  load.epochs += batches.size();
  load.reads += reads_attempted;

  std::vector<float> weights;
  const Graph final_graph = stream.final_graph(weights);
  const std::vector<float> expected = ndg::ref::sssp(final_graph, source, weights);
  ++rep.attempted;
  std::string first_bad;
  const std::size_t bad_coord = check_all(coord, expected, first_bad);
  const std::size_t bad_replica = check_all(replica, expected, first_bad);
  if (bad_coord + bad_replica > 0) {
    rep.fail("quiescent values differ from ref::sssp at " + std::to_string(bad_coord) +
             " coordinator and " + std::to_string(bad_replica) + " replica vertices; first " +
             first_bad);
  }
  const std::string err = topo.tier->shutdown(coord);
  if (!err.empty()) rep.fail(err);
}

}  // namespace

Report run_tier_sssp(const Args& args, Tracer& tracer) {
  Report rep;
  // Orphaned replicas get reparented here, so every process can be reaped.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  // The base graph, exactly as every tier process builds it from its flags.
  Timed tg(tracer, "graph.gen");
  ndg::EdgeList el = ndg::gen::rmat(kVertices, kEdges, args.seed);
  rep.layer("graph.gen_s", tg.stop(), "s", 1);
  Timed tb(tracer, "graph.build");
  const Graph base = Graph::build(kVertices, std::move(el));
  rep.layer("graph.build_s", tb.stop(), "s", 1);
  VertexId source = 0;
  for (VertexId v = 1; v < base.num_vertices(); ++v) {
    if (base.out_degree(v) > base.out_degree(source)) source = v;
  }
  const double ws = working_set_mb(base, sizeof(ndg::SsspEdge), sizeof(float));
  rep.layer("graph.ws_mb", ws, "MiB", 1);
  rep.info("ws_mb", std::to_string(ws));
  rep.info("graph", "\"rmat 65536 vertices edgefactor 16\"");
  rep.info("vertices", std::to_string(base.num_vertices()));
  rep.info("edges", std::to_string(base.num_edges()));
  rep.info("source", std::to_string(source));
  rep.info("engine_threads", "1");
  rep.info("processes", "2");

  const std::vector<std::string> flags = {
      "--replicas=1",
      "--algo=sssp",
      "--kind=rmat",
      "--vertices=" + std::to_string(kVertices),
      "--edges=" + std::to_string(kEdges),
      "--seed=" + std::to_string(args.seed),
      "--source=" + std::to_string(source),
      "--weight-seed=" + std::to_string(kWeightSeed),
      "--threads=1",
      "--gate=static",
  };

  const CpuSplit cpus;
  // Set-up runs kSetups times, and each topology then carries an equal share
  // of the window: the tier processes' memory lands somewhere new each time,
  // so the pooled latencies span several placements instead of resting on
  // one.
  std::vector<double> setup_s;
  std::vector<double> launch_s;
  std::vector<double> sync_s;
  Load load;
  for (int i = 0; i < kSetups; ++i) {
    ++rep.attempted;
    Topology topo;
    launch(topo, tracer, args.workdir + "/tier" + std::to_string(i), flags, cpus);
    launch_s.push_back(topo.launch_s);
    sync_s.push_back(topo.sync_s);
    setup_s.push_back(topo.launch_s + topo.sync_s);
    if (cpus.usable) ::sched_setaffinity(0, sizeof cpus.generator, &cpus.generator);
    drive(topo, base, source, args.seed * kSetups + static_cast<std::uint64_t>(i),
          args.seconds / kSetups, tracer, rep, load);
  }

  // ---- Metrics ----
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  // The workload's operation is a write; its latency is write-to-visible.
  rep.e2e("latency_p50_ms", quantile(load.visible_ms, 0.5), "ms", load.visible_ms.size());
  rep.e2e("rss_peak_mb", load.rss_mb, "MiB", kSetups);

  const std::size_t n = load.epoch_ms.size();
  const double epochs = static_cast<double>(std::max<std::size_t>(1, n));
  rep.layer("tier.launch_s", median(launch_s), "s", launch_s.size());
  rep.layer("tier.sync_s", median(sync_s), "s", sync_s.size());
  rep.layer("wire.intake_ms", quantile(load.intake_ms, 0.5), "ms", load.intake_ms.size());
  rep.layer("tier.epoch_p50_ms", quantile(load.epoch_ms, 0.5), "ms", n);
  rep.layer("tier.epoch_p90_ms", quantile(load.epoch_ms, 0.9), "ms", n);
  rep.layer("dyn.applied", static_cast<double>(load.applied), "count", n);
  rep.layer("dyn.rejected", static_cast<double>(load.rejected), "count", n);
  rep.layer("dyn.seeds", median(load.seeds), "count", n);
  rep.layer("dyn.warm_frac", static_cast<double>(load.warm) / epochs, "ratio", n);
  rep.layer("dyn.compactions", static_cast<double>(load.compactions), "count", kSetups);
  rep.layer("engine.epoch_iterations", median(load.iterations), "count", n);
  rep.layer("engine.epoch_updates", median(load.updates), "count", n);
  rep.layer("tier.replica_lag_p50_ms", quantile(load.lag_ms, 0.5), "ms", load.lag_ms.size());
  rep.layer("tier.replica_lag_p90_ms", quantile(load.lag_ms, 0.9), "ms", load.lag_ms.size());
  rep.layer("tier.bytes_out_per_epoch", static_cast<double>(load.bytes_out) / epochs, "bytes", n);
  rep.layer("tier.visible_p90_ms", quantile(load.visible_ms, 0.9), "ms", load.visible_ms.size());
  rep.layer("tier.read_p50_us", quantile(load.read_us, 0.5), "us", load.read_us.size());
  rep.layer("tier.read_p99_us", quantile(load.read_us, 0.99), "us", load.read_us.size());
  const double late_p99 = quantile(load.late_ms, 0.99);
  rep.layer("gen.late_p99_ms", late_p99, "ms", load.late_ms.size());
  rep.layer("gen.backlog_max", static_cast<double>(load.backlog_max), "count", load.epochs);
  rep.invalid = late_p99 > kMaxLateP99Ms || load.backlog_max > kMaxBacklog;
  rep.info("epochs", std::to_string(load.epochs));
  rep.info("reads", std::to_string(load.reads));
  return rep;
}

}  // namespace perfbench
