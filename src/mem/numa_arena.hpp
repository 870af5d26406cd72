#pragma once
// NumaArena — page-granular allocator behind the library's big flat arrays
// (graph topology, edge-data slots, hub-gather partials).
//
// Graph analytics is bandwidth-bound: the gather loop streams the CSC array
// and issues a dependent random read into the edge-data array per in-edge, so
// TLB reach and page placement dominate once the graph exceeds the LLC. The
// arena maps each block with mmap and then applies the requested MemSpec:
//
//   kHugepage   — madvise(MADV_HUGEPAGE): transparent huge pages collapse the
//                 4 KiB mappings into 2 MiB ones, cutting dTLB misses on the
//                 random edge-data reads.
//   kInterleave — mbind(MPOL_INTERLEAVE) across the online NUMA nodes, so all
//                 sockets' memory controllers serve the scan instead of the
//                 first-touch node's.
//   kBind       — mbind(MPOL_BIND) to one node, for single-socket pinned runs.
//
// Every placement step is best-effort: on kernels without THP/NUMA support
// (or non-Linux hosts) the calls fail silently and the block behaves like
// kDefault. kDefault itself uses operator new so tools that allocate many
// small graphs don't pay mmap round trips. No libnuma dependency — the two
// syscalls are issued directly.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "mem/mem_policy.hpp"
#include "util/assert.hpp"

namespace ndg::mem {

class NumaArena {
 public:
  /// One allocation, as returned by NumaArena::alloc. `mapped` records which
  /// deallocation path to take (munmap vs operator delete).
  struct Block {
    void* ptr = nullptr;
    std::size_t bytes = 0;
    bool mapped = false;
  };

  /// Allocates `bytes` (64-byte aligned, uninitialized for kDefault, zeroed
  /// for mapped policies) placed per `spec`. bytes == 0 returns a null block.
  [[nodiscard]] static Block alloc(std::size_t bytes, const MemSpec& spec);

  /// Releases a block returned by alloc (null blocks are fine).
  static void free(const Block& block);

  /// True when the last mmap-based alloc got its requested mbind placement —
  /// telemetry for the bench harness; never required for correctness.
  [[nodiscard]] static bool last_placement_applied();
};

/// Typed RAII view over one arena block: the adoption point for Graph and
/// EdgeDataArray. Elements are value-initialized; T must be trivially
/// copyable so copies are memcpy and destruction is a plain unmap/delete.
template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "Buffer holds flat POD arrays only");

 public:
  Buffer() = default;

  explicit Buffer(std::size_t n, const MemSpec& spec = {})
      : Buffer(n, spec, Uninitialized{}) {
    zero_from(0);
  }

  Buffer(const Buffer& other)
      : Buffer(other.size_, other.spec_, Uninitialized{}) {
    if (size_ > 0) std::memcpy(block_.ptr, other.block_.ptr, size_ * sizeof(T));
  }

  Buffer& operator=(const Buffer& other) {
    if (this != &other) *this = Buffer(other);
    return *this;
  }

  Buffer(Buffer&& other) noexcept { swap(other); }

  Buffer& operator=(Buffer&& other) noexcept {
    swap(other);
    return *this;
  }

  ~Buffer() { NumaArena::free(block_); }

  /// Returns a buffer of `n` elements with the same placement spec: the first
  /// min(n, size) elements are copied, any tail is zeroed. This is the growth
  /// primitive behind the dynamic-graph overflow segments and edge-data
  /// regrowth (src/dyn/) — one allocation, one memcpy, no element-wise work.
  /// Each byte of the new block is written once: the copied prefix is not
  /// zeroed first.
  [[nodiscard]] Buffer resized(std::size_t n) const {
    Buffer out(n, spec_, Uninitialized{});
    const std::size_t keep = std::min(n, size_);
    if (keep > 0) std::memcpy(out.block_.ptr, block_.ptr, keep * sizeof(T));
    out.zero_from(keep);
    return out;
  }

  void swap(Buffer& other) noexcept {
    std::swap(size_, other.size_);
    std::swap(spec_, other.spec_);
    std::swap(block_, other.block_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const MemSpec& spec() const { return spec_; }

  [[nodiscard]] T* data() { return static_cast<T*>(block_.ptr); }
  [[nodiscard]] const T* data() const {
    return static_cast<const T*>(block_.ptr);
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    NDG_ASSERT(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    NDG_ASSERT(i < size_);
    return data()[i];
  }

  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

 private:
  struct Uninitialized {};

  Buffer(std::size_t n, const MemSpec& spec, Uninitialized)
      : size_(n), spec_(spec), block_(NumaArena::alloc(n * sizeof(T), spec)) {}

  /// Zeroes elements [from, size). operator-new memory is uninitialized;
  /// mapped pages arrive zeroed, so they are left alone.
  void zero_from(std::size_t from) {
    if (!block_.mapped && from < size_) {
      std::memset(data() + from, 0, (size_ - from) * sizeof(T));
    }
  }

  std::size_t size_ = 0;
  MemSpec spec_{};
  NumaArena::Block block_{};
};

}  // namespace ndg::mem
