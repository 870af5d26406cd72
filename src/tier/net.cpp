#include "tier/net.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ndg::tier {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  ::unlink(path.c_str());
  // sockaddr_un -> sockaddr is the BSD socket ABI, not edge-slot aliasing.
  // ndg-lint: allow(raw-cast)
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    throw std::runtime_error("bind/listen failed on " + path);
  }
  set_nonblocking(fd);
  return fd;
}

int connect_unix(const std::string& path, int timeout_ms) {
  const sockaddr_un addr = make_addr(path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    // Same BSD socket ABI cast as bind() above.  ndg-lint: allow(raw-cast)
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    // The server may not have bound its socket yet; only these two errors
    // mean "keep waiting".
    if (err != ECONNREFUSED && err != ENOENT) {
      throw std::runtime_error(std::string("connect failed on ") + path +
                               ": " + std::strerror(err));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("connect timed out on " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int accept_nonblocking(int listen_fd) {
  int fd;
  while ((fd = ::accept(listen_fd, nullptr, nullptr)) < 0 && errno == EINTR) {
  }
  if (fd >= 0) set_nonblocking(fd);
  return fd;
}

void LineConn::read_input() {
  char chunk[4096];
  while (in_buf.size() < kMaxReadBytes) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      in_buf.append(chunk, static_cast<std::size_t>(n));
      bytes_in += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;
    break;
  }
  if (proto == dyn::WireProto::kBin) {
    parse_frames();
    return;
  }
  std::size_t nl;
  while ((nl = in_buf.find('\n')) != std::string::npos) {
    pending.push_back(in_buf.substr(0, nl));
    in_buf.erase(0, nl + 1);
  }
  if (eof && !in_buf.empty()) {
    pending.push_back(std::exchange(in_buf, {}));
  }
  // What remains is one unterminated line; past the bound it can never be
  // completed within memory limits, so drop the connection.
  if (in_buf.size() > kMaxLineBytes) {
    fail_input("unterminated line exceeds " + std::to_string(kMaxLineBytes) +
               " bytes");
  }
}

void LineConn::parse_frames() {
  dyn::Frame f;
  std::string err;
  for (;;) {
    const dyn::FrameParse rc = dyn::extract_frame(in_buf, f, &err);
    if (rc == dyn::FrameParse::kOk) {
      frames.push_back(std::move(f));
      continue;
    }
    // kBad is unrecoverable: there is no resync point in a framed stream
    // after a corrupt length, so the connection is dropped.
    if (rc == dyn::FrameParse::kBad) fail_input(std::move(err));
    return;
  }
}

void LineConn::upgrade_to_bin() {
  // Reconstruct the unconsumed byte stream exactly: lines were only ever
  // split on real newlines, so pending + '\n' + ... + in_buf is the
  // original image of everything buffered after the hello line.
  std::string rest;
  for (const std::string& l : pending) {
    rest += l;
    rest += '\n';
  }
  rest += in_buf;
  in_buf = std::move(rest);
  pending.clear();
  proto = dyn::WireProto::kBin;
  parse_frames();
}

void LineConn::flush() {
  while (!out_buf.empty()) {
    const ssize_t n = ::write(fd, out_buf.data(), out_buf.size());
    if (n > 0) {
      out_buf.erase(0, static_cast<std::size_t>(n));
      bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    broken = true;
    return;
  }
}

void LineConn::close_fd() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace ndg::tier
