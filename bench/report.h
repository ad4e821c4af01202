#ifndef SIREP_BENCH_REPORT_H_
#define SIREP_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace sirep::bench {

/// Machine-readable bench telemetry (ISSUE 10). Every bench builds a
/// BenchReport alongside its human-readable tables and writes it as
/// `BENCH_<name>.json`; `bench_runner` collects the files into a suite
/// artifact and `bench_compare` diffs them against committed baselines
/// with per-metric tolerance bands. The JSON is schema-versioned so the
/// comparison tooling can reject artifacts from a different era instead
/// of mis-reading them.
inline constexpr int kBenchSchemaVersion = 1;

/// How bench_compare interprets a drift in this metric.
enum class Direction {
  kHigherIsBetter,  ///< throughput-like: regression = value dropped
  kLowerIsBetter,   ///< latency/abort-like: regression = value rose
  kInfo,            ///< recorded for trend plots, never gates
};

std::string_view DirectionName(Direction direction);

/// One named scalar measurement ("replicated.tps@200", "abort_rate").
struct ScalarMetric {
  double value = 0;
  std::string unit;  ///< "tps", "ms", "ratio", ... (display only)
  Direction direction = Direction::kInfo;
  /// Relative tolerance band for bench_compare: a drift beyond
  /// value*(1 +/- tolerance) in the bad direction is a regression.
  /// < 0 = not set here; the compare run's --tolerance default applies.
  double tolerance = -1.0;
  bool operator==(const ScalarMetric&) const = default;
};

/// Percentile summary of one latency distribution.
struct PercentileRow {
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  std::string unit;
  bool operator==(const PercentileRow&) const = default;
};

/// Contention summary of one profiled lock (see obs::LockStats),
/// derived from the attached cluster metrics' "mw.lock.*" families.
struct ContentionRow {
  uint64_t acquires = 0;
  uint64_t contended = 0;
  double wait_p95_us = 0;
  double wait_p99_us = 0;
  bool operator==(const ContentionRow&) const = default;
};

class BenchReport {
 public:
  /// `name` must match the bench binary's name ("fig7_overhead"): it
  /// keys the artifact file name and the baseline lookup. Run metadata
  /// (git sha, build type, transport, host fingerprint, seed, fast
  /// mode) is captured here; wall time is stamped at serialization.
  explicit BenchReport(std::string name);

  const std::string& name() const { return name_; }

  // ---- run metadata ----
  void SetKnob(const std::string& key, std::string value);
  void SetKnob(const std::string& key, uint64_t value);
  void SetSeed(uint64_t seed) { seed_ = seed; }

  // ---- measurements ----
  void AddScalar(const std::string& metric, double value, std::string unit,
                 Direction direction, double tolerance = -1.0);
  void AddPercentiles(const std::string& metric,
                      const obs::HistogramSnapshot::Percentiles& p,
                      std::string unit);

  /// Embeds `snapshot` as the "cluster" section and derives the
  /// "contention" section from its "mw.lock.*" metrics.
  void AttachClusterMetrics(const obs::MetricsSnapshot& snapshot);

  /// Embeds the global sampling profiler's snapshot as the "profile"
  /// section (see obs::Profiler).
  void AttachProfile();

  std::string ToJson() const;

  /// Writes `BENCH_<name>.json` into $SIREP_BENCH_REPORT_DIR (default:
  /// the current directory). Returns the path written.
  Result<std::string> WriteJsonFile() const;

  /// Parses ToJson() output (any schema_version == kBenchSchemaVersion
  /// artifact); rejects other versions and malformed JSON.
  static Result<BenchReport> FromJson(const std::string& json);

  // ---- accessors (compare + tests) ----
  const std::map<std::string, ScalarMetric>& scalars() const {
    return scalars_;
  }
  const std::map<std::string, PercentileRow>& percentiles() const {
    return percentiles_;
  }
  const std::map<std::string, ContentionRow>& contention() const {
    return contention_;
  }
  const std::map<std::string, std::string>& knobs() const { return knobs_; }
  uint64_t seed() const { return seed_; }
  bool fast_mode() const { return fast_mode_; }
  const std::string& git_sha() const { return git_sha_; }
  const std::string& transport() const { return transport_; }
  /// Raw JSON of the embedded sections; empty when never attached.
  const std::string& cluster_json() const { return cluster_json_; }
  const std::string& profile_json() const { return profile_json_; }
  double wall_time_s() const { return wall_time_s_; }

 private:
  std::string name_;
  std::string git_sha_;
  std::string build_type_;
  std::string transport_;
  std::string host_;
  uint64_t seed_ = 0;
  bool fast_mode_ = false;
  uint64_t start_ns_ = 0;      ///< 0 for parsed reports
  double wall_time_s_ = 0;     ///< parsed value; live reports stamp at ToJson
  std::map<std::string, std::string> knobs_;
  std::map<std::string, ScalarMetric> scalars_;
  std::map<std::string, PercentileRow> percentiles_;
  std::map<std::string, ContentionRow> contention_;
  std::string cluster_json_;
  std::string profile_json_;
};

// ---- regression gate ----

struct CompareOptions {
  /// Band applied to baseline metrics that carry no tolerance of their
  /// own. CI smoke runs pass a loose value (measurement windows are
  /// short and runners noisy); local full runs can tighten it.
  double default_tolerance = 0.10;
};

struct CompareResult {
  struct Row {
    std::string bench;
    std::string metric;
    double baseline = 0;
    double current = 0;
    double delta = 0;  ///< relative: (current - baseline) / |baseline|
    double tolerance = 0;
    bool regressed = false;
    std::string note;  ///< "missing in current", "baseline is zero", ...
  };
  std::vector<Row> rows;
  bool regressed = false;
};

/// Diffs every gating (non-kInfo) scalar of `baseline` against
/// `current`. A metric missing from `current` is a regression (a bench
/// silently dropping a measurement must not pass the gate); metrics new
/// in `current` are ignored (adding measurements is always allowed).
CompareResult CompareReports(const BenchReport& baseline,
                             const BenchReport& current,
                             const CompareOptions& options = {});

/// The bench_compare tool's main(): positional args are either two
/// BENCH_*.json files or two directories (every BENCH_*.json in the
/// baseline directory must exist and pass in the current directory).
/// `--tolerance T` sets CompareOptions::default_tolerance. Prints one
/// row per compared metric; exits 0 = pass, 1 = regression, 2 = usage
/// or I/O error.
int RunBenchCompare(int argc, char** argv);

// ---- run-metadata probes (shared with bench_common / bench_runner) ----

/// HEAD commit sha: $SIREP_GIT_SHA if set, else read from the .git of
/// the nearest ancestor directory; "unknown" when neither resolves.
std::string ReadGitSha();
std::string BuildTypeName();
/// "<hostname>/<n>cpu" — enough to spot artifacts from a different box.
std::string HostFingerprint();

}  // namespace sirep::bench

#endif  // SIREP_BENCH_REPORT_H_
