#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace sirep {

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sum_sq_ += value * value;
}

void SampleStats::Merge(const SampleStats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

double SampleStats::Mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::Stddev() const {
  const size_t n = samples_.size();
  if (n < 2) return 0.0;
  const double mean = Mean();
  double var = (sum_sq_ - static_cast<double>(n) * mean * mean) /
               static_cast<double>(n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double SampleStats::Min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::Max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleStats::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double SampleStats::HalfWidth95() const {
  const size_t n = samples_.size();
  if (n < 2) return std::numeric_limits<double>::infinity();
  // Normal approximation: z_{0.975} = 1.96. Sample counts in our
  // experiments are in the hundreds, where the t-correction is negligible.
  return 1.96 * Stddev() / std::sqrt(static_cast<double>(n));
}

bool SampleStats::ConfidentWithin(double fraction) const {
  const double mean = Mean();
  if (mean == 0.0) return count() >= 2;
  return HalfWidth95() <= fraction * std::abs(mean);
}

std::string SampleStats::Summary() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << Mean() << " p95=" << Percentile(95)
     << " min=" << Min() << " max=" << Max();
  return os.str();
}

}  // namespace sirep
