#ifndef SIREP_COMMON_STATS_H_
#define SIREP_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace sirep {

/// Collects scalar samples (typically response times in milliseconds) and
/// reports summary statistics. The paper runs every experiment "until a
/// 95/5 confidence interval was achieved"; HalfWidth95() exposes the same
/// criterion (95 % confidence half-width as a fraction of the mean).
class SampleStats {
 public:
  void Add(double value);
  void Merge(const SampleStats& other);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Stddev() const;
  double Min() const;
  double Max() const;

  /// p in [0, 100], e.g. Percentile(95).
  double Percentile(double p) const;

  /// Half-width of the 95 % confidence interval around the mean, as an
  /// absolute value. Returns +inf for fewer than 2 samples.
  double HalfWidth95() const;

  /// True when the 95 % confidence interval is within `fraction` of the
  /// mean (the paper's 95/5 criterion uses fraction = 0.05).
  bool ConfidentWithin(double fraction) const;

  std::string Summary() const;

 private:
  // Kept unsorted; percentile sorts a copy. Sample counts here are small
  // (thousands), so this is simpler than a streaming sketch.
  std::vector<double> samples_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace sirep

#endif  // SIREP_COMMON_STATS_H_
