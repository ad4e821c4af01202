// Figure 7 reproduction: update-intensive stress workload (100 % update
// transactions, 10 updates each over 3 of 10 small tables), 5 replicas.
// Compares:
//   * SRCA-Rep  (full 1-copy-SI, start/commit hole synchronization)
//   * SRCA-Opt  (adjustments 1-2 only: no hole synchronization)
//   * centralized (single node, no replication)
//   * protocol of [20] (table-level locks, pre-declared transactions)
//
// Paper shape: SRCA-Rep ≈ SRCA-Opt at low load, SRCA-Opt a bit better at
// high load (no synchronization stalls); the centralized server performs
// best at very low load but saturates first *despite* the workload being
// 100 % updates — remote replicas only apply writesets (~20 % of the
// cost), so replication still relieves each node; the table-lock protocol
// matches SI-Rep's response time at low load but saturates earlier due to
// table-granularity lock contention.

#include <cstdlib>

#include "bench_common.h"
#include "middleware/table_lock_baseline.h"
#include "workload/simple_workloads.h"

using namespace sirep;
using bench::Fmt;

namespace {

cluster::CostModel StressCost() {
  cluster::CostModel cost;
  cost.update_service = std::chrono::milliseconds(3);
  cost.select_service = std::chrono::milliseconds(3);
  cost.apply_fraction = 0.2;
  return cost;
}

workload::UpdateIntensiveWorkload::Options StressOptions() {
  workload::UpdateIntensiveWorkload::Options wopt;
  wopt.rows_per_table = 1000;
  return wopt;
}

void RunReplicatedSeries(const std::vector<double>& loads,
                         middleware::ReplicaMode mode, const char* label,
                         bench::BenchReport& report) {
  cluster::ClusterOptions copt;
  copt.num_replicas = 5;
  copt.workers_per_replica = 2;
  copt.cost = StressCost();
  copt.replica.mode = mode;
  copt.gcs.multicast_delay = std::chrono::milliseconds(1);
  cluster::Cluster cluster(copt);
  if (!cluster.Start().ok()) return;
  workload::UpdateIntensiveWorkload workload(StressOptions());
  if (!cluster
           .LoadEverywhere(
               [&](engine::Database* db) { return workload.Load(db); })
           .ok()) {
    return;
  }
  cluster.SetEmulationEnabled(true);
  for (double load : loads) {
    auto options = bench::BaseLoadOptions(load, /*clients=*/40);
    auto m = bench::RunOnCluster(cluster, workload, options);
    bench::PrintTableRow({Fmt(load, 0), label, Fmt(m.update_ms.Mean()),
                          Fmt(m.achieved_tps),
                          Fmt(100.0 * m.abort_rate(), 2)});
    cluster.Quiesce();
    const std::string point = std::string(label) + "@" + Fmt(load, 0);
    report.AddScalar(point + ".tps", m.achieved_tps, "tps",
                     bench::Direction::kHigherIsBetter);
    report.AddScalar(point + ".update_ms", m.update_ms.Mean(), "ms",
                     bench::Direction::kLowerIsBetter);
    report.AddScalar(point + ".abort_pct", 100.0 * m.abort_rate(), "%",
                     bench::Direction::kInfo);
    if (load == loads.back()) {
      report.AddPercentiles(std::string(label) + ".update_ms",
                            bench::SamplePercentiles(m.update_ms), "ms");
    }
  }
  // Where the paper estimates middleware overhead (Fig. 7 discussion), we
  // can measure it: per-stage commit-path latencies from the registry.
  std::printf("\n[%s] %s\n", label,
              cluster::Cluster::FormatCommitBreakdown(cluster.DumpMetrics())
                  .c_str());
  // The flagship config also feeds the artifact's cluster/contention
  // sections.
  if (mode == middleware::ReplicaMode::kSrcaRep) {
    report.AttachClusterMetrics(cluster.DumpMetrics());
  }
}

void RunBaselineSeries(const std::vector<double>& loads) {
  // Wire the [20] protocol: 5 (node, table-lock middleware) pairs.
  gcs::GroupOptions gopt;
  gopt.multicast_delay = std::chrono::milliseconds(1);
  gcs::Group group(gopt);
  std::vector<std::unique_ptr<cluster::ReplicaNode>> nodes;
  std::vector<std::unique_ptr<middleware::TableLockReplica>> replicas;
  workload::UpdateIntensiveWorkload workload(StressOptions());
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<cluster::ReplicaNode>(
        "tl" + std::to_string(i), /*workers=*/2, StressCost()));
    if (!workload.Load(nodes.back()->db()).ok()) return;
    replicas.push_back(std::make_unique<middleware::TableLockReplica>(
        nodes.back()->db(), &group));
    if (!replicas.back()->Start().ok()) return;
  }
  for (auto& node : nodes) node->SetEmulationEnabled(true);

  for (double load : loads) {
    auto options = bench::BaseLoadOptions(load, /*clients=*/40);
    auto m = workload::RunLoad(
        workload,
        [&](size_t i) {
          return std::make_unique<workload::BaselineExecutor>(
              replicas[i % replicas.size()].get());
        },
        options);
    bench::PrintTableRow({Fmt(load, 0), "protocol-[20]",
                          Fmt(m.update_ms.Mean()), Fmt(m.achieved_tps),
                          Fmt(100.0 * m.abort_rate(), 2)});
  }
  for (auto& r : replicas) r->Shutdown();
  group.Shutdown();
}

/// Remote-apply pipeline sweep: the same stress workload at one fixed
/// (high) load, with the applier pool pinned to 1/2/4/8 threads
/// (ReplicaOptions::applier_threads). The observable is remote-apply lag
/// (delivery -> committed at the remote replica): with a serial applier
/// the ~20 %-of-execution apply cost times the fan-in from 4 peers
/// saturates one worker and lag balloons; the sharded pipeline spreads
/// non-conflicting applies over the pool, so p95 should fall steeply
/// from 1 to 4 threads and flatten once apply stops being the
/// bottleneck. apply_par_mean is the mean of the apply-parallelism
/// stage histogram (concurrent appliers observed at apply start).
void RunApplyThreadSweep(double load, bench::BenchReport& report) {
  bench::PrintTableHeader(
      "Remote-apply pipeline sweep: srca-rep, 5 replicas, load " +
          Fmt(load, 0) + " tps",
      {"apply_threads", "update_ms", "achieved_tps", "lag_p50_ms",
       "lag_p95_ms", "lag_p99_ms", "apply_par_mean"});
  for (int threads : {1, 2, 4, 8}) {
    cluster::ClusterOptions copt;
    copt.num_replicas = 5;
    // Enough emulated node capacity that the pipeline width, not the
    // node's worker semaphore, is the variable under test.
    copt.workers_per_replica = 8;
    copt.cost = StressCost();
    copt.replica.mode = middleware::ReplicaMode::kSrcaRep;
    copt.replica.applier_threads = static_cast<size_t>(threads);
    copt.gcs.multicast_delay = std::chrono::milliseconds(1);
    cluster::Cluster cluster(copt);
    if (!cluster.Start().ok()) return;
    workload::UpdateIntensiveWorkload workload(StressOptions());
    if (!cluster
             .LoadEverywhere(
                 [&](engine::Database* db) { return workload.Load(db); })
             .ok()) {
      return;
    }
    cluster.SetEmulationEnabled(true);
    auto options = bench::BaseLoadOptions(load, /*clients=*/40);
    auto m = bench::RunOnCluster(cluster, workload, options);
    cluster.Quiesce();
    const auto snap = cluster.DumpMetrics();
    const auto lag = snap.Percentiles("mw.commit.stage.remote_apply_lag_us");
    const auto par = snap.Percentiles("mw.commit.stage.apply_parallelism");
    bench::PrintTableRow(
        {Fmt(threads, 0), Fmt(m.update_ms.Mean()), Fmt(m.achieved_tps),
         Fmt(lag.p50 / 1000.0, 2), Fmt(lag.p95 / 1000.0, 2),
         Fmt(lag.p99 / 1000.0, 2), Fmt(par.mean, 2)});
    const std::string point =
        "apply_sweep@" + std::to_string(threads) + "thr";
    report.AddScalar(point + ".tps", m.achieved_tps, "tps",
                     bench::Direction::kHigherIsBetter);
    report.AddScalar(point + ".lag_p95_ms", lag.p95 / 1000.0, "ms",
                     bench::Direction::kInfo);
    report.AddPercentiles(point + ".remote_apply_lag_us", lag, "us");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("fig7_overhead", &argc, argv);
  bench::BenchReport report("fig7_overhead");
  const std::vector<double> loads =
      bench::FastMode() ? std::vector<double>{50, 125, 200}
                        : std::vector<double>{25, 50, 75, 100, 125, 150, 175,
                                              200};

  bench::PrintTableHeader(
      "Figure 7: update-intensive workload, 5 replicas — response time "
      "(ms) vs load (tps)",
      {"load_tps", "system", "update_ms", "achieved_tps", "abort_%"});

  // centralized single node
  {
    workload::UpdateIntensiveWorkload workload(StressOptions());
    cluster::ReplicaNode node("central", /*workers=*/2, StressCost());
    if (!workload.Load(node.db()).ok()) return 1;
    node.SetEmulationEnabled(true);
    for (double load : loads) {
      auto options = bench::BaseLoadOptions(load, /*clients=*/40);
      auto m = bench::RunCentralized(node, workload, options);
      bench::PrintTableRow({Fmt(load, 0), "centralized",
                            Fmt(m.update_ms.Mean()), Fmt(m.achieved_tps),
                            Fmt(100.0 * m.abort_rate(), 2)});
      const std::string point = "centralized@" + Fmt(load, 0);
      report.AddScalar(point + ".tps", m.achieved_tps, "tps",
                       bench::Direction::kHigherIsBetter);
      report.AddScalar(point + ".update_ms", m.update_ms.Mean(), "ms",
                       bench::Direction::kLowerIsBetter);
    }
  }

  RunReplicatedSeries(loads, middleware::ReplicaMode::kSrcaRep, "srca-rep",
                      report);
  RunReplicatedSeries(loads, middleware::ReplicaMode::kSrcaOpt, "srca-opt",
                      report);
  RunBaselineSeries(loads);
  RunApplyThreadSweep(loads.back(), report);
  report.SetKnob("replicas", uint64_t{5});
  report.SetKnob("clients", uint64_t{40});
  bench::FinishReport(report);
  return 0;
}
