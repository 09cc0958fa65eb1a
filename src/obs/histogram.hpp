// Fixed-bucket histogram core.
//
// One implementation of the uniform-bucket math (bucket index, linear
// interpolated quantiles, merge): the bench and report programs use the
// class directly, and the metrics registry's per-thread bucket cells use
// the static helpers so an observe() is an index computation plus one
// relaxed store, with the Histogram object materialized only at snapshot
// time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dear::obs {

class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
    if (bins == 0 || !(hi > lo)) {
      throw std::invalid_argument("Histogram requires bins > 0 and hi > lo");
    }
  }

  /// Bucket for `value` in a uniform [lo, hi) layout: -1 for underflow,
  /// `bins` for overflow, else the bucket index.
  [[nodiscard]] static std::ptrdiff_t bucket_of(double lo, double hi, std::size_t bins,
                                                double value) noexcept {
    if (value < lo) {
      return -1;
    }
    if (value >= hi) {
      return static_cast<std::ptrdiff_t>(bins);
    }
    const auto index =
        static_cast<std::size_t>((value - lo) * static_cast<double>(bins) / (hi - lo));
    return static_cast<std::ptrdiff_t>(std::min(index, bins - 1));
  }

  /// Value below which fraction `q` of the samples fall, interpolated
  /// linearly inside the containing bucket. Shared by Histogram::quantile
  /// and the registry snapshot (which holds raw bucket arrays).
  [[nodiscard]] static double quantile_from(double lo, double hi, const std::uint64_t* counts,
                                            std::size_t bins, std::uint64_t underflow,
                                            std::uint64_t total, double q) noexcept {
    if (total == 0) {
      return lo;
    }
    const double width = (hi - lo) / static_cast<double>(bins);
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
    std::uint64_t cumulative = underflow;
    if (cumulative > target) {
      return lo;
    }
    for (std::size_t i = 0; i < bins; ++i) {
      if (cumulative + counts[i] > target) {
        const double within =
            counts[i] == 0
                ? 0.0
                : static_cast<double>(target - cumulative) / static_cast<double>(counts[i]);
        return lo + width * (static_cast<double>(i) + within);
      }
      cumulative += counts[i];
    }
    return hi;
  }

  void add(double value, std::uint64_t count = 1) {
    total_ += count;
    const std::ptrdiff_t bucket = bucket_of(lo_, hi_, counts_.size(), value);
    if (bucket < 0) {
      underflow_ += count;
    } else if (static_cast<std::size_t>(bucket) >= counts_.size()) {
      overflow_ += count;
    } else {
      counts_[static_cast<std::size_t>(bucket)] += count;
    }
  }

  /// Adds another histogram with the identical layout.
  void merge(const Histogram& other) {
    if (other.counts_.size() != counts_.size() || other.lo_ != lo_ || other.hi_ != hi_) {
      throw std::invalid_argument("Histogram::merge requires an identical layout");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
  }

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t index) const { return counts_.at(index); }
  [[nodiscard]] double bin_lower(std::size_t index) const {
    return lo_ + width_ * static_cast<double>(index);
  }
  [[nodiscard]] double bin_upper(std::size_t index) const {
    return lo_ + width_ * static_cast<double>(index + 1);
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// quantile in [0, 1].
  [[nodiscard]] double quantile(double q) const noexcept {
    return quantile_from(lo_, hi_, counts_.data(), counts_.size(), underflow_, total_, q);
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t total_{0};
};

}  // namespace dear::obs
