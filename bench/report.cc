#include "bench/report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/profiler.h"

namespace sirep::bench {

namespace {

using obs::json::AppendDouble;
using obs::json::AppendString;
using obs::json::AppendU64;
using JsonValue = obs::json::Value;

Result<Direction> DirectionFromName(std::string_view name) {
  if (name == "higher_is_better") return Direction::kHigherIsBetter;
  if (name == "lower_is_better") return Direction::kLowerIsBetter;
  if (name == "info") return Direction::kInfo;
  return Status::InvalidArgument("unknown metric direction");
}

}  // namespace

// ---- run-metadata probes ----

std::string ReadGitSha() {
  if (const char* env = std::getenv("SIREP_GIT_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return "unknown";
  for (int depth = 0; depth < 8 && !dir.empty(); ++depth) {
    const fs::path head_path = dir / ".git" / "HEAD";
    std::ifstream head(head_path);
    if (head) {
      std::string line;
      std::getline(head, line);
      if (line.rfind("ref: ", 0) != 0) return line;  // detached HEAD
      const std::string ref = line.substr(5);
      std::ifstream ref_file(dir / ".git" / ref);
      if (ref_file) {
        std::string sha;
        std::getline(ref_file, sha);
        if (!sha.empty()) return sha;
      }
      // Ref may only exist packed.
      std::ifstream packed(dir / ".git" / "packed-refs");
      std::string entry;
      while (std::getline(packed, entry)) {
        if (entry.size() > ref.size() + 41 &&
            entry.compare(41, std::string::npos, ref) == 0) {
          return entry.substr(0, 40);
        }
      }
      return "unknown";
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return "unknown";
}

std::string BuildTypeName() {
#ifdef SIREP_BUILD_TYPE
  return SIREP_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string HostFingerprint() {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  return std::string(host) + "/" +
         std::to_string(std::thread::hardware_concurrency()) + "cpu";
}

std::string_view DirectionName(Direction direction) {
  switch (direction) {
    case Direction::kHigherIsBetter: return "higher_is_better";
    case Direction::kLowerIsBetter: return "lower_is_better";
    case Direction::kInfo: return "info";
  }
  return "info";
}

// ---- BenchReport ----

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)),
      git_sha_(ReadGitSha()),
      build_type_(BuildTypeName()),
      // Bench clusters run the default transport; gcs_micro names its
      // per-transport rows in the metric names instead.
      transport_("inproc"),
      host_(HostFingerprint()),
      start_ns_(obs::MonotonicNanos()) {
  const char* fast = std::getenv("SIREP_BENCH_FAST");
  fast_mode_ = fast != nullptr && fast[0] != '\0' && fast[0] != '0';
}

void BenchReport::SetKnob(const std::string& key, std::string value) {
  knobs_[key] = std::move(value);
}

void BenchReport::SetKnob(const std::string& key, uint64_t value) {
  knobs_[key] = std::to_string(value);
}

void BenchReport::AddScalar(const std::string& metric, double value,
                            std::string unit, Direction direction,
                            double tolerance) {
  scalars_[metric] =
      ScalarMetric{value, std::move(unit), direction, tolerance};
}

void BenchReport::AddPercentiles(const std::string& metric,
                                 const obs::HistogramSnapshot::Percentiles& p,
                                 std::string unit) {
  percentiles_[metric] =
      PercentileRow{p.count, p.mean, p.p50, p.p95, p.p99, std::move(unit)};
}

void BenchReport::AttachClusterMetrics(const obs::MetricsSnapshot& snapshot) {
  cluster_json_ = snapshot.ToJson();
  // Derive the contention section from the "mw.lock.<name>.*" families
  // the obs::LockStats instrumentation registers.
  contention_.clear();
  constexpr std::string_view kPrefix = "mw.lock.";
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const size_t dot = name.rfind('.');
    const std::string lock = name.substr(0, dot);
    const std::string field = name.substr(dot + 1);
    ContentionRow& row = contention_[lock];
    if (field == "acquires") row.acquires = value;
    if (field == "contended") row.contended = value;
  }
  for (auto& [lock, row] : contention_) {
    const auto p = snapshot.Percentiles(lock + ".wait_us");
    row.wait_p95_us = p.p95;
    row.wait_p99_us = p.p99;
  }
}

void BenchReport::AttachProfile() {
  profile_json_ = obs::Profiler::Global().SnapshotJson();
}

std::string BenchReport::ToJson() const {
  const double wall_s =
      start_ns_ != 0
          ? static_cast<double>(obs::MonotonicNanos() - start_ns_) / 1e9
          : wall_time_s_;
  std::string out = "{\"schema_version\":";
  AppendU64(&out, kBenchSchemaVersion);
  out += ",\"name\":";
  AppendString(&out, name_);
  out += ",\"meta\":{\"git_sha\":";
  AppendString(&out, git_sha_);
  out += ",\"build_type\":";
  AppendString(&out, build_type_);
  out += ",\"transport\":";
  AppendString(&out, transport_);
  out += ",\"host\":";
  AppendString(&out, host_);
  out += ",\"seed\":";
  AppendU64(&out, seed_);
  out += ",\"fast_mode\":";
  out += fast_mode_ ? "true" : "false";
  out += ",\"wall_time_s\":";
  AppendDouble(&out, wall_s);
  out += ",\"knobs\":{";
  bool first = true;
  for (const auto& [key, value] : knobs_) {
    if (!first) out.push_back(',');
    first = false;
    AppendString(&out, key);
    out.push_back(':');
    AppendString(&out, value);
  }
  out += "}},\"metrics\":{";
  first = true;
  for (const auto& [metric, m] : scalars_) {
    if (!first) out.push_back(',');
    first = false;
    AppendString(&out, metric);
    out += ":{\"value\":";
    AppendDouble(&out, m.value);
    out += ",\"unit\":";
    AppendString(&out, m.unit);
    out += ",\"direction\":";
    AppendString(&out, DirectionName(m.direction));
    if (m.tolerance >= 0) {
      out += ",\"tolerance\":";
      AppendDouble(&out, m.tolerance);
    }
    out.push_back('}');
  }
  out += "},\"percentiles\":{";
  first = true;
  for (const auto& [metric, p] : percentiles_) {
    if (!first) out.push_back(',');
    first = false;
    AppendString(&out, metric);
    out += ":{\"count\":";
    AppendU64(&out, p.count);
    out += ",\"mean\":";
    AppendDouble(&out, p.mean);
    out += ",\"p50\":";
    AppendDouble(&out, p.p50);
    out += ",\"p95\":";
    AppendDouble(&out, p.p95);
    out += ",\"p99\":";
    AppendDouble(&out, p.p99);
    out += ",\"unit\":";
    AppendString(&out, p.unit);
    out.push_back('}');
  }
  out += "},\"contention\":{";
  first = true;
  for (const auto& [lock, row] : contention_) {
    if (!first) out.push_back(',');
    first = false;
    AppendString(&out, lock);
    out += ":{\"acquires\":";
    AppendU64(&out, row.acquires);
    out += ",\"contended\":";
    AppendU64(&out, row.contended);
    out += ",\"wait_p95_us\":";
    AppendDouble(&out, row.wait_p95_us);
    out += ",\"wait_p99_us\":";
    AppendDouble(&out, row.wait_p99_us);
    out.push_back('}');
  }
  out.push_back('}');
  if (!cluster_json_.empty()) {
    out += ",\"cluster\":";
    out += cluster_json_;
  }
  if (!profile_json_.empty()) {
    out += ",\"profile\":";
    out += profile_json_;
  }
  out.push_back('}');
  return out;
}

Result<std::string> BenchReport::WriteJsonFile() const {
  const char* dir = std::getenv("SIREP_BENCH_REPORT_DIR");
  std::filesystem::path path =
      (dir != nullptr && *dir != '\0') ? dir : ".";
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  path /= "BENCH_" + name_ + ".json";
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open " + path.string() + " for writing");
  }
  file << ToJson() << "\n";
  file.close();
  if (!file) return Status::Internal("write failed: " + path.string());
  return path.string();
}

Result<BenchReport> BenchReport::FromJson(const std::string& json) {
  Result<JsonValue> parsed = obs::json::Parse(json);
  SIREP_RETURN_IF_ERROR(parsed.status());
  const JsonValue& root = parsed.value();
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("bench report is not a JSON object");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || version->type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("bench report missing schema_version");
  }
  if (static_cast<int>(version->number) != kBenchSchemaVersion) {
    return Status::InvalidArgument("unsupported bench report schema version");
  }
  const JsonValue* name = root.Find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("bench report missing name");
  }
  BenchReport report(name->str);
  report.start_ns_ = 0;  // parsed: wall time is a recorded fact
  report.git_sha_.clear();
  report.build_type_.clear();
  report.transport_.clear();
  report.host_.clear();
  report.fast_mode_ = false;

  if (const JsonValue* meta = root.Find("meta"); meta != nullptr) {
    if (const JsonValue* v = meta->Find("git_sha")) {
      report.git_sha_ = v->StringOr("");
    }
    if (const JsonValue* v = meta->Find("build_type")) {
      report.build_type_ = v->StringOr("");
    }
    if (const JsonValue* v = meta->Find("transport")) {
      report.transport_ = v->StringOr("");
    }
    if (const JsonValue* v = meta->Find("host")) {
      report.host_ = v->StringOr("");
    }
    if (const JsonValue* v = meta->Find("seed")) {
      report.seed_ = static_cast<uint64_t>(v->NumberOr(0));
    }
    if (const JsonValue* v = meta->Find("fast_mode")) {
      report.fast_mode_ = v->boolean;
    }
    if (const JsonValue* v = meta->Find("wall_time_s")) {
      report.wall_time_s_ = v->NumberOr(0);
    }
    if (const JsonValue* knobs = meta->Find("knobs");
        knobs != nullptr && knobs->type == JsonValue::Type::kObject) {
      for (const auto& [key, value] : knobs->object) {
        report.knobs_[key] = value.StringOr("");
      }
    }
  }

  if (const JsonValue* metrics = root.Find("metrics");
      metrics != nullptr && metrics->type == JsonValue::Type::kObject) {
    for (const auto& [metric, m] : metrics->object) {
      if (m.type != JsonValue::Type::kObject) {
        return Status::InvalidArgument("malformed metric entry: " + metric);
      }
      ScalarMetric scalar;
      const JsonValue* value = m.Find("value");
      if (value == nullptr || value->type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument("metric missing value: " + metric);
      }
      scalar.value = value->number;
      if (const JsonValue* v = m.Find("unit")) scalar.unit = v->StringOr("");
      if (const JsonValue* v = m.Find("direction")) {
        auto direction = DirectionFromName(v->StringOr(""));
        SIREP_RETURN_IF_ERROR(direction.status());
        scalar.direction = direction.value();
      }
      if (const JsonValue* v = m.Find("tolerance")) {
        scalar.tolerance = v->NumberOr(-1.0);
      }
      report.scalars_[metric] = std::move(scalar);
    }
  }

  if (const JsonValue* percentiles = root.Find("percentiles");
      percentiles != nullptr &&
      percentiles->type == JsonValue::Type::kObject) {
    for (const auto& [metric, p] : percentiles->object) {
      PercentileRow row;
      if (const JsonValue* v = p.Find("count")) {
        row.count = static_cast<uint64_t>(v->NumberOr(0));
      }
      if (const JsonValue* v = p.Find("mean")) row.mean = v->NumberOr(0);
      if (const JsonValue* v = p.Find("p50")) row.p50 = v->NumberOr(0);
      if (const JsonValue* v = p.Find("p95")) row.p95 = v->NumberOr(0);
      if (const JsonValue* v = p.Find("p99")) row.p99 = v->NumberOr(0);
      if (const JsonValue* v = p.Find("unit")) row.unit = v->StringOr("");
      report.percentiles_[metric] = std::move(row);
    }
  }

  if (const JsonValue* contention = root.Find("contention");
      contention != nullptr && contention->type == JsonValue::Type::kObject) {
    for (const auto& [lock, c] : contention->object) {
      ContentionRow row;
      if (const JsonValue* v = c.Find("acquires")) {
        row.acquires = static_cast<uint64_t>(v->NumberOr(0));
      }
      if (const JsonValue* v = c.Find("contended")) {
        row.contended = static_cast<uint64_t>(v->NumberOr(0));
      }
      if (const JsonValue* v = c.Find("wait_p95_us")) {
        row.wait_p95_us = v->NumberOr(0);
      }
      if (const JsonValue* v = c.Find("wait_p99_us")) {
        row.wait_p99_us = v->NumberOr(0);
      }
      report.contention_[lock] = row;
    }
  }

  if (const JsonValue* cluster = root.Find("cluster")) {
    report.cluster_json_ = std::string(cluster->raw);
  }
  if (const JsonValue* profile = root.Find("profile")) {
    report.profile_json_ = std::string(profile->raw);
  }
  return report;
}

// ---- regression gate ----

CompareResult CompareReports(const BenchReport& baseline,
                             const BenchReport& current,
                             const CompareOptions& options) {
  CompareResult result;
  for (const auto& [metric, base] : baseline.scalars()) {
    if (base.direction == Direction::kInfo) continue;
    CompareResult::Row row;
    row.bench = baseline.name();
    row.metric = metric;
    row.baseline = base.value;
    row.tolerance =
        base.tolerance >= 0 ? base.tolerance : options.default_tolerance;
    const auto it = current.scalars().find(metric);
    if (it == current.scalars().end()) {
      row.regressed = true;
      row.note = "missing in current";
      result.rows.push_back(std::move(row));
      result.regressed = true;
      continue;
    }
    row.current = it->second.value;
    if (base.value == 0) {
      // No relative band exists; a zero baseline gates nothing (it is
      // typically "no aborts observed in a short smoke window").
      row.note = "baseline is zero";
      result.rows.push_back(std::move(row));
      continue;
    }
    row.delta = (row.current - row.baseline) / std::abs(row.baseline);
    if (base.direction == Direction::kHigherIsBetter) {
      row.regressed = row.delta < -row.tolerance;
    } else {
      row.regressed = row.delta > row.tolerance;
    }
    result.regressed = result.regressed || row.regressed;
    result.rows.push_back(std::move(row));
  }
  return result;
}

namespace {

Result<BenchReport> LoadReportFile(const std::filesystem::path& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot read " + path.string());
  std::stringstream buffer;
  buffer << file.rdbuf();
  return BenchReport::FromJson(buffer.str());
}

void PrintCompareRows(const CompareResult& result) {
  for (const auto& row : result.rows) {
    std::printf("%s %-16s %-32s base=%-12.4g cur=%-12.4g delta=%+7.2f%% "
                "tol=%.0f%%%s%s\n",
                row.regressed ? "[REGRESSION]" : "[ OK ]      ",
                row.bench.c_str(), row.metric.c_str(), row.baseline,
                row.current, row.delta * 100.0, row.tolerance * 100.0,
                row.note.empty() ? "" : " # ", row.note.c_str());
  }
}

}  // namespace

int RunBenchCompare(int argc, char** argv) {
  CompareOptions options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      options.default_tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      options.default_tolerance =
          std::strtod(arg.c_str() + strlen("--tolerance="), nullptr);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_compare [--tolerance T] <baseline> <current>\n"
          "  baseline/current: BENCH_*.json files, or directories holding "
          "them\n  exit: 0 pass, 1 regression, 2 usage/IO error\n");
      return 0;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "bench_compare: expected <baseline> <current> "
                 "(files or directories)\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path baseline_path = positional[0];
  const fs::path current_path = positional[1];

  std::vector<std::pair<fs::path, fs::path>> pairs;
  std::error_code ec;
  if (fs::is_directory(baseline_path, ec)) {
    if (!fs::is_directory(current_path, ec)) {
      std::fprintf(stderr, "bench_compare: %s is not a directory\n",
                   current_path.c_str());
      return 2;
    }
    for (const auto& entry : fs::directory_iterator(baseline_path, ec)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind("BENCH_", 0) == 0 &&
          file.size() > 5 + 5 &&
          file.compare(file.size() - 5, 5, ".json") == 0) {
        pairs.emplace_back(entry.path(), current_path / file);
      }
    }
    if (pairs.empty()) {
      std::fprintf(stderr, "bench_compare: no BENCH_*.json under %s\n",
                   baseline_path.c_str());
      return 2;
    }
  } else {
    pairs.emplace_back(baseline_path, current_path);
  }

  bool regressed = false;
  for (const auto& [base_file, cur_file] : pairs) {
    Result<BenchReport> baseline = LoadReportFile(base_file);
    if (!baseline.ok()) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", base_file.c_str(),
                   baseline.status().message().c_str());
      return 2;
    }
    Result<BenchReport> current = LoadReportFile(cur_file);
    if (!current.ok()) {
      std::printf("[REGRESSION] %-16s artifact missing or unreadable: %s\n",
                  baseline.value().name().c_str(), cur_file.c_str());
      regressed = true;
      continue;
    }
    const CompareResult result =
        CompareReports(baseline.value(), current.value(), options);
    PrintCompareRows(result);
    regressed = regressed || result.regressed;
  }
  std::printf("bench_compare: %s\n",
              regressed ? "REGRESSION detected" : "all metrics within bands");
  return regressed ? 1 : 0;
}

}  // namespace sirep::bench
