// Clock and sample statistics shared by the benchmark's measurements.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Percentile p in [0, 1] of `v` (sorted in place; 0 when empty), taken as
/// the mean of the samples ranked within half a percentile point of p.
/// Unlike a single nearest-rank sample it is not quantized to the clock's
/// resolution, and it moves less between runs.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto index = [&](double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  };
  const std::size_t lo = index(p - 0.005);
  const std::size_t hi = index(p + 0.005);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(hi - lo + 1);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const T x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

/// Coefficient of variation (population std / mean). 0 for an empty or
/// all-zero sample.
template <typename T>
double CoefficientOfVariation(const std::vector<T>& v) {
  const double mean = Mean(v);
  if (mean <= 0) return 0;
  double var = 0;
  for (const T x : v) {
    const double d = static_cast<double>(x) - mean;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(v.size())) / mean;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latency samples bounded in memory: every `stride`-th sample is kept, and
/// when the buffer fills, every other kept sample is dropped and the stride
/// doubles. The kept samples stay evenly spread over the stream.
class SampleBuffer {
 public:
  void Add(float sample) {
    if (seen_++ % stride_ != 0) return;
    if (kept_.size() == kCapacity) {
      for (std::size_t i = 0; i < kCapacity / 2; ++i) kept_[i] = kept_[2 * i];
      kept_.resize(kCapacity / 2);
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    kept_.push_back(sample);
  }

  const std::vector<float>& kept() const { return kept_; }
  std::uint64_t seen() const { return seen_; }

 private:
  static constexpr std::size_t kCapacity = 1u << 16;
  std::vector<float> kept_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

}  // namespace perfbench
