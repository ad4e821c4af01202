// Unified bench-suite driver (ISSUE 10): runs a configurable suite of
// the bench/ binaries, validates every BENCH_<name>.json artifact they
// emit, merges them into one BENCH_SUITE.json, and (optionally) gates
// against committed baselines — the entry point CI's perf-gate job and
// the scheduled full-suite trajectory run both call.
//
//   bench_runner --suite smoke            # fig7 + gcs_micro + fig_partial,
//                                         # fast windows (CI PR gate)
//   bench_runner --suite full             # every bench, full windows
//   bench_runner --suite smoke --baseline-dir results/baselines
//                --tolerance 0.6          # run + regression gate
//
// Flags: --bindir DIR (bench binaries; default: bench_runner's own
// directory), --out-dir DIR (artifacts; default: cwd, exported to the
// children as SIREP_BENCH_REPORT_DIR), --seed N (re-exported as
// SIREP_BENCH_SEED). Exit: 0 pass, 1 bench failure or regression,
// 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.h"
#include "obs/json.h"

namespace {

namespace fs = std::filesystem;
using sirep::bench::BenchReport;

const std::vector<std::string> kSmokeSuite = {
    "fig7_overhead", "gcs_micro", "fig_partial"};
const std::vector<std::string> kFullSuite = {
    "fig5_tpcw",       "fig6_largedb",    "fig7_overhead",
    "abort_rate",      "holes_rate",      "writeset_micro",
    "validation_micro", "gcs_micro",      "ablation_gcs_delay",
    "ablation_adjustments", "fig_partial", "engine_micro"};

std::string ReadFile(const fs::path& path) {
  std::ifstream file(path);
  if (!file) return "";
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite = "smoke";
  fs::path bindir = fs::path(argv[0]).parent_path();
  fs::path out_dir = ".";
  std::string baseline_dir;
  std::string tolerance;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_runner: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      suite = value("--suite");
    } else if (arg == "--bindir") {
      bindir = value("--bindir");
    } else if (arg == "--out-dir") {
      out_dir = value("--out-dir");
    } else if (arg == "--baseline-dir") {
      baseline_dir = value("--baseline-dir");
    } else if (arg == "--tolerance") {
      tolerance = value("--tolerance");
    } else if (arg == "--seed") {
      ::setenv("SIREP_BENCH_SEED", value("--seed"), /*overwrite=*/1);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_runner [--suite smoke|full] [--bindir DIR] "
          "[--out-dir DIR]\n                    [--baseline-dir DIR] "
          "[--tolerance T] [--seed N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_runner: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const std::vector<std::string>* benches = nullptr;
  if (suite == "smoke") {
    benches = &kSmokeSuite;
    // Smoke means CI-sized measurement windows; an explicit
    // SIREP_BENCH_FAST from the caller (either value) wins.
    ::setenv("SIREP_BENCH_FAST", "1", /*overwrite=*/0);
  } else if (suite == "full") {
    benches = &kFullSuite;
  } else {
    std::fprintf(stderr, "bench_runner: unknown suite '%s'\n", suite.c_str());
    return 2;
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  ::setenv("SIREP_BENCH_REPORT_DIR", out_dir.string().c_str(),
           /*overwrite=*/1);

  bool failed = false;
  std::vector<std::pair<std::string, std::string>> artifacts;  // name, json
  for (const std::string& bench : *benches) {
    const fs::path binary = bindir / bench;
    std::printf("==== bench_runner: %s ====\n", binary.c_str());
    std::fflush(stdout);
    const int rc = std::system(binary.string().c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench_runner: %s exited with %d\n",
                   bench.c_str(), rc);
      failed = true;
      continue;
    }
    const fs::path artifact = out_dir / ("BENCH_" + bench + ".json");
    const std::string json = ReadFile(artifact);
    auto report = BenchReport::FromJson(json);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_runner: %s emitted no valid artifact: %s\n",
                   bench.c_str(), report.status().message().c_str());
      failed = true;
      continue;
    }
    std::printf("bench_runner: validated %s (%zu metrics, %zu percentile "
                "rows)\n",
                artifact.c_str(), report.value().scalars().size(),
                report.value().percentiles().size());
    // Strip the trailing newline WriteJsonFile appends.
    std::string trimmed = json;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    artifacts.emplace_back(bench, std::move(trimmed));
  }

  // Merge the validated artifacts into one suite file for upload.
  using sirep::obs::json::AppendString;
  std::string merged = "{\"schema_version\":1,\"suite\":";
  AppendString(&merged, suite);
  merged += ",\"git_sha\":";
  AppendString(&merged, sirep::bench::ReadGitSha());
  merged += ",\"host\":";
  AppendString(&merged, sirep::bench::HostFingerprint());
  merged += ",\"benches\":{";
  for (size_t i = 0; i < artifacts.size(); ++i) {
    if (i > 0) merged.push_back(',');
    AppendString(&merged, artifacts[i].first);
    merged += ":" + artifacts[i].second;
  }
  merged += "}}";
  const fs::path suite_path = out_dir / "BENCH_SUITE.json";
  std::ofstream suite_file(suite_path, std::ios::trunc);
  suite_file << merged << "\n";
  suite_file.close();
  std::printf("bench_runner: wrote %s (%zu benches)\n", suite_path.c_str(),
              artifacts.size());

  if (failed) {
    std::fprintf(stderr, "bench_runner: one or more benches failed\n");
    return 1;
  }

  if (!baseline_dir.empty()) {
    std::vector<std::string> cmp_args = {"bench_compare"};
    if (!tolerance.empty()) {
      cmp_args.push_back("--tolerance");
      cmp_args.push_back(tolerance);
    }
    cmp_args.push_back(baseline_dir);
    cmp_args.push_back(out_dir.string());
    std::vector<char*> cmp_argv;
    cmp_argv.reserve(cmp_args.size());
    for (std::string& arg : cmp_args) cmp_argv.push_back(arg.data());
    const int rc = sirep::bench::RunBenchCompare(
        static_cast<int>(cmp_argv.size()), cmp_argv.data());
    if (rc != 0) return rc;
  }
  return 0;
}
