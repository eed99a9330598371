// Streaming and batch statistics used by the benchmark harness and the
// runtime's round/bit accounting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lps {

/// Welford-style streaming accumulator: count / mean / variance / extrema
/// in O(1) memory. Numerically stable for long benchmark sweeps.
class StreamingStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double variance() const noexcept;  // sample variance (n-1)
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const StreamingStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch sample container with quantiles. Keeps all samples; use for
/// per-experiment result vectors (hundreds to low millions of entries).
class Samples {
 public:
  void add(double x) { data_.push_back(x); }
  std::size_t count() const noexcept { return data_.size(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  /// q in [0,1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& data() const noexcept { return data_; }

 private:
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Nearest-rank percentile of exact samples sorted ascending: the
/// sample at rank round(p * (n - 1)) for p in [0, 1], or T{} when there
/// are none. The one percentile over exact samples: the runner's leg
/// latencies, fault recovery and trace_summary's round times.
template <typename T>
T percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace lps
