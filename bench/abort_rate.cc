// Claim reproduction (paper §6.1): "Although the database is relatively
// small, conflict rates were small, and very few aborts took place (far
// below 1%)" — TPC-W ordering mix on a 5-replica SI-Rep cluster.
//
// Tuple-granularity validation is what keeps this low: conflicts require
// two concurrent transactions to update the *same row* (same cart, same
// item), not merely the same table.

#include "bench_common.h"
#include "workload/tpcw.h"

using namespace sirep;
using bench::Fmt;

int main(int argc, char** argv) {
  bench::InitBench("abort_rate", &argc, argv);
  bench::BenchReport report("abort_rate");
  cluster::ClusterOptions copt;
  copt.num_replicas = 5;
  copt.workers_per_replica = 1;
  copt.cost.select_service = std::chrono::milliseconds(5);
  copt.cost.update_service = std::chrono::milliseconds(7);
  copt.cost.insert_service = std::chrono::milliseconds(5);
  copt.gcs.multicast_delay = std::chrono::milliseconds(1);
  cluster::Cluster cluster(copt);
  if (!cluster.Start().ok()) return 1;

  workload::TpcwOptions wopt;
  wopt.num_items = bench::FastMode() ? 200 : 1000;
  wopt.num_ebs = 40;
  workload::TpcwWorkload tpcw(wopt);
  if (!cluster
           .LoadEverywhere([&](engine::Database* db) { return tpcw.Load(db); })
           .ok()) {
    return 1;
  }
  cluster.SetEmulationEnabled(true);

  bench::PrintTableHeader(
      "Abort rate, TPC-W ordering mix on 5 replicas (paper: far below 1%)",
      {"load_tps", "committed", "aborted", "abort_%", "local_val",
       "global_val"});

  for (double load : {25.0, 50.0, 75.0}) {
    auto options = bench::BaseLoadOptions(load, 40);
    if (!bench::FastMode()) {
      options.duration = std::chrono::milliseconds(6000);
    }
    auto m = bench::RunOnCluster(cluster, tpcw, options);
    auto counters = cluster.DumpMetrics().counters;
    const uint64_t global_val_aborts = counters["mw.global_val_aborts"];
    bench::PrintTableRow(
        {Fmt(load, 0), std::to_string(m.committed),
         std::to_string(m.aborted), Fmt(100.0 * m.abort_rate(), 3),
         std::to_string(counters["mw.local_val_aborts"]),
         std::to_string(global_val_aborts)});
    cluster.Quiesce();
    const std::string point = "tpcw@" + Fmt(load, 0);
    report.AddScalar(point + ".tps", m.achieved_tps, "tps",
                     bench::Direction::kHigherIsBetter);
    // The claim under test: abort rate stays far below 1 %.
    report.AddScalar(point + ".abort_pct", 100.0 * m.abort_rate(), "%",
                     bench::Direction::kLowerIsBetter);
    report.AddScalar(point + ".global_val_aborts",
                     static_cast<double>(global_val_aborts), "txns",
                     bench::Direction::kInfo);
  }
  report.AttachClusterMetrics(cluster.DumpMetrics());
  report.SetKnob("replicas", uint64_t{5});
  bench::FinishReport(report);
  return 0;
}
