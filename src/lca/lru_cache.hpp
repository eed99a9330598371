// Bounded LRU memo shared by the LCA oracles. Oracle answers are pure
// functions of (graph, seed), so eviction is always safe — a future
// query recomputes the evicted state bit-identically — and the bound
// turns the memo into an amortization knob (correlated queries hit,
// cold queries pay probes) instead of an unbounded memory commitment.
//
// Not thread-safe by design: the batch engine gives each worker its own
// oracle (and thus its own caches) rather than serializing on a lock.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace lps::lca {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  /// capacity == 0 disables caching entirely (every get misses).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const noexcept { return index_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Value copy on hit (entries are small POD records; returning a
  /// reference would dangle across the recursive computations that
  /// put() new entries and evict).
  std::optional<V> get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Insert or overwrite; evicts the least-recently-used entry when
  /// over capacity.
  void put(const K& key, V value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recent
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace lps::lca
