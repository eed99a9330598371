#include "runtime/shard.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>

namespace lps {

namespace {

/// What detect_cache() returns while a ScopedCacheOverride is alive.
std::atomic<const CacheInfo*> cache_override{nullptr};

/// Parse one /sys cache "size" file ("2048K", "32M", ...); 0 on failure.
std::size_t read_cache_size(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t value = 0;
  in >> value;
  if (!in) return 0;
  char suffix = '\0';
  in >> suffix;
  if (suffix == 'K' || suffix == 'k') value <<= 10;
  if (suffix == 'M' || suffix == 'm') value <<= 20;
  return value;
}

int read_cache_level(const std::string& path) {
  std::ifstream in(path);
  int level = -1;
  in >> level;
  return in ? level : -1;
}

/// First word of the cache "type" file ("Data", "Instruction",
/// "Unified"); empty on failure.
std::string read_cache_type(const std::string& path) {
  std::ifstream in(path);
  std::string type;
  in >> type;
  return in ? type : std::string();
}

}  // namespace

CacheInfo detect_cache_at(const std::string& cache_dir) {
  CacheInfo info;
  const std::string base = cache_dir + "/index";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + std::to_string(i);
    const int level = read_cache_level(dir + "/level");
    if (level < 0) break;
    const std::size_t size = read_cache_size(dir + "/size");
    if (size == 0) continue;
    if (level == 1) {
      // L1 splits into instruction and data halves; only the data (or a
      // unified) cache bounds the streaming working set.
      const std::string type = read_cache_type(dir + "/type");
      if (type == "Instruction") continue;
      info.l1d_bytes = size;
    }
    if (level == 2) info.l2_bytes = size;
    if (level == 3) info.l3_bytes = size;
  }
  return info;
}

const CacheInfo& detect_cache() {
  if (const CacheInfo* fake = cache_override.load()) return *fake;
  static const CacheInfo info =
      detect_cache_at("/sys/devices/system/cpu/cpu0/cache");
  return info;
}

ScopedCacheOverride::ScopedCacheOverride(const CacheInfo& fake)
    : fake_(fake), previous_(cache_override.exchange(&fake_)) {}

ScopedCacheOverride::~ScopedCacheOverride() {
  cache_override.store(previous_);
}

ShardPlan plan_shards(NodeId n, unsigned requested,
                      std::size_t bytes_per_vertex) {
  ShardPlan plan;
  plan.n = n;
  if (n == 0) {
    plan.shift = 32;
    plan.count = 1;
    return plan;
  }
  unsigned want;
  if (requested == 0) {
    // Auto: shards sized to ~half of L2 so bookkeeping plus adjacency
    // and solver state fit with room to spare.
    const std::size_t target = std::max<std::size_t>(
        detect_cache().l2_bytes / 2, std::size_t{64} << 10);
    const std::size_t per_shard = std::max<std::size_t>(
        target / std::max<std::size_t>(bytes_per_vertex, 1), 1024);
    want = static_cast<unsigned>(
        std::min<std::size_t>((n + per_shard - 1) / per_shard, 4096));
  } else {
    want = std::min(requested, 4096u);
  }
  want = std::max(want, 1u);
  // Power-of-two shard width >= 1024, wide enough that
  // ceil(n / width) <= want.
  unsigned shift = 10;
  while ((static_cast<std::uint64_t>(n) + (std::uint64_t{1} << shift) - 1) >>
             shift >
         want) {
    ++shift;
  }
  plan.shift = shift;
  plan.count = static_cast<unsigned>(
      (static_cast<std::uint64_t>(n) + (std::uint64_t{1} << shift) - 1) >>
      shift);
  return plan;
}

}  // namespace lps
