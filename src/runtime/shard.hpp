// Shard planning for the sharded round engine (DESIGN.md §11).
//
// A shard is a contiguous, power-of-two-aligned range of vertex ids, so
// shard lookup is a single shift and a shard's slices of every
// vertex-indexed array (CSR rows, mailbox bookkeeping, active stamps,
// per-node solver state) are contiguous byte ranges. The auto plan
// sizes shards so one shard's engine working set fits comfortably in
// the detected L2 cache: the per-round mailbox counting sort and the
// step loop then stay inside one shard's working set, and only the
// boundary exchange (the shard-binning pass) walks memory proportional
// to cross-shard traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/storage.hpp"

namespace lps {

/// Detected cache sizes, with conservative fallbacks when sysfs is
/// unavailable (non-Linux, sandboxes).
struct CacheInfo {
  std::size_t l1d_bytes = 32u << 10;  // fallback: 32 KiB
  std::size_t l2_bytes = 1u << 20;    // fallback: 1 MiB
  std::size_t l3_bytes = 8u << 20;    // fallback: 8 MiB
};

/// Reads /sys/devices/system/cpu/cpu0/cache once and caches the result,
/// unless a ScopedCacheOverride is alive.
const CacheInfo& detect_cache();

/// Test seam: while one is alive, detect_cache() returns `fake`, so each
/// auto plan made meanwhile (every SyncNetwork's, at construction) sizes
/// shards to the faked L2, as detect_cache_at fakes sysfs. Tests set it
/// between solves; production code never makes one. Overrides nest.
class ScopedCacheOverride {
 public:
  explicit ScopedCacheOverride(const CacheInfo& fake);
  ~ScopedCacheOverride();
  ScopedCacheOverride(const ScopedCacheOverride&) = delete;
  ScopedCacheOverride& operator=(const ScopedCacheOverride&) = delete;

 private:
  CacheInfo fake_;
  const CacheInfo* previous_;
};

/// Uncached probe against an arbitrary sysfs-style cache directory
/// (".../cache"; index<i> subdirs with level/type/size files). Exists so
/// tests can exercise both the parse and the fallback paths; production
/// code goes through detect_cache().
CacheInfo detect_cache_at(const std::string& cache_dir);

/// Bytes of engine + typical solver state touched per vertex per round;
/// used by the auto plan. Mailbox bookkeeping (~24B) + active stamp +
/// CSR offsets + a few adjacency entries.
inline constexpr std::size_t kEngineBytesPerVertex = 64;

/// A partition of [0, n) into `count` contiguous ranges of width
/// 2^shift (the last may be shorter).
struct ShardPlan {
  NodeId n = 0;
  unsigned shift = 32;  // shard_of(v) == v >> shift
  unsigned count = 1;

  unsigned shard_of(NodeId v) const noexcept {
    return static_cast<unsigned>(v >> shift);
  }
  NodeId shard_begin(unsigned s) const noexcept {
    return static_cast<NodeId>(static_cast<std::uint64_t>(s) << shift);
  }
  NodeId shard_end(unsigned s) const noexcept {
    const std::uint64_t e = static_cast<std::uint64_t>(s + 1) << shift;
    return e < n ? static_cast<NodeId>(e) : n;
  }
};

/// Plan shards for an n-vertex graph. requested == 0 picks the count
/// from the detected L2 size (targeting ~half of L2 per shard at
/// `bytes_per_vertex`); requested >= 1 forces (at most) that many
/// shards. Counts are clamped to [1, 4096] and shard width is a power
/// of two >= 1024 so tiny graphs are never oversharded.
ShardPlan plan_shards(NodeId n, unsigned requested,
                      std::size_t bytes_per_vertex = kEngineBytesPerVertex);

}  // namespace lps
