// Ablation over the paper's design choices in Section 4:
//
//  1. **Apply concurrency (Adjustment 2)**: SRCA-Rep with a single
//     applier thread serializes remote writeset application like the
//     basic SRCA of Fig. 1 (local commits still jump the queue, so no
//     hidden deadlock), versus the default concurrent appliers.
//  2. **Hole synchronization (Adjustment 3)**: SRCA-Rep vs SRCA-Opt at
//     the same load — the §6.3 comparison at one operating point, plus
//     the hole statistics behind it.
//
// Expected shape: one applier hurts update response time as soon as
// remote apply volume queues up; SRCA-Opt shaves the start/commit
// synchronization cost visible in delayed starts.

#include "bench_common.h"
#include "workload/simple_workloads.h"

using namespace sirep;
using bench::Fmt;

namespace {

void RunPoint(const char* label, middleware::ReplicaMode mode,
              size_t applier_threads, double load,
              bench::BenchReport& report) {
  cluster::ClusterOptions copt;
  copt.num_replicas = 5;
  copt.workers_per_replica = 2;
  copt.cost.update_service = std::chrono::milliseconds(3);
  copt.cost.select_service = std::chrono::milliseconds(3);
  copt.replica.mode = mode;
  copt.replica.applier_threads = applier_threads;
  copt.gcs.multicast_delay = std::chrono::milliseconds(1);
  cluster::Cluster cluster(copt);
  if (!cluster.Start().ok()) return;
  workload::UpdateIntensiveWorkload::Options wopt;
  wopt.rows_per_table = 1000;
  workload::UpdateIntensiveWorkload workload(wopt);
  if (!cluster
           .LoadEverywhere(
               [&](engine::Database* db) { return workload.Load(db); })
           .ok()) {
    return;
  }
  cluster.SetEmulationEnabled(true);
  auto options = bench::BaseLoadOptions(load, 40);
  auto m = bench::RunOnCluster(cluster, workload, options);
  cluster.Quiesce();
  auto counters = cluster.DumpMetrics().counters;
  const uint64_t starts = counters["mw.holes.starts"];
  const uint64_t delayed = counters["mw.holes.delayed_starts"];
  const double delayed_pct =
      starts == 0 ? 0.0
                  : 100.0 * static_cast<double>(delayed) /
                        static_cast<double>(starts);
  bench::PrintTableRow({label, std::to_string(applier_threads),
                        Fmt(load, 0), Fmt(m.update_ms.Mean()),
                        Fmt(m.achieved_tps), Fmt(delayed_pct, 2)});
  const std::string point = std::string(label) + "-" +
                            std::to_string(applier_threads) + "app@" +
                            Fmt(load, 0);
  report.AddScalar(point + ".update_ms", m.update_ms.Mean(), "ms",
                   bench::Direction::kLowerIsBetter);
  report.AddScalar(point + ".tps", m.achieved_tps, "tps",
                   bench::Direction::kHigherIsBetter);
  report.AddScalar(point + ".delayed_starts_pct", delayed_pct, "%",
                   bench::Direction::kInfo);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("ablation_adjustments", &argc, argv);
  bench::BenchReport report("ablation_adjustments");
  const std::vector<double> loads =
      bench::FastMode() ? std::vector<double>{100}
                        : std::vector<double>{60, 120};

  bench::PrintTableHeader(
      "Ablation: apply concurrency (Adjustment 2) and hole "
      "synchronization (Adjustment 3), update-intensive, 5 replicas",
      {"mode", "appliers", "load_tps", "update_ms", "achieved_tps",
       "delayed_starts%"});

  for (double load : loads) {
    RunPoint("srca-rep", middleware::ReplicaMode::kSrcaRep, 8, load, report);
    RunPoint("srca-rep", middleware::ReplicaMode::kSrcaRep, 1, load, report);
    RunPoint("srca-opt", middleware::ReplicaMode::kSrcaOpt, 8, load, report);
  }
  bench::FinishReport(report);
  return 0;
}
