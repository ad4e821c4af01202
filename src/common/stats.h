#ifndef SIREP_COMMON_STATS_H_
#define SIREP_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace sirep {

/// Collects scalar samples (typically response times in milliseconds) and
/// reports their mean, maximum and exact percentiles.
class SampleStats {
 public:
  void Add(double value);
  void Merge(const SampleStats& other);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Max() const;

  /// p in [0, 100], e.g. Percentile(95).
  double Percentile(double p) const;

 private:
  // Kept unsorted; percentile sorts a copy. Sample counts here are small
  // (thousands), so this is simpler than a streaming sketch.
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace sirep

#endif  // SIREP_COMMON_STATS_H_
