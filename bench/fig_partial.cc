// Partial replication scale-out: aggregate *write* throughput vs
// replica count at replication factor 1, 2, and full.
//
// Under full replication every replica applies every writeset, so write
// capacity is pinned at a single machine's apply bandwidth no matter
// how many replicas join — the classic update-everywhere wall. With the
// partition map at rf < n, each holder group of rf replicas runs its own
// total order and a writeset never leaves its group (no work at all
// elsewhere), so aggregate write throughput grows ~n/rf.
//
// Clients honor the routing contract: each is pinned to one replica and
// writes only keys whose partition group that replica holds (disjoint
// per-client key pools, so certification aborts don't pollute the
// scaling signal). Cost emulation is on — 2 ms per update statement and
// an equally priced remote apply against 1 worker per replica — so the
// numbers reflect the modeled machine capacity, not the test machine.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace sirep;
using bench::Fmt;

namespace {

constexpr size_t kPartitions = 16;
constexpr size_t kClientsPerReplica = 2;
constexpr size_t kKeysPerClient = 4;

struct PointResult {
  double tps = -1;
  SampleStats commit_ms;  // per-transaction commit-path latency
};

PointResult RunPoint(size_t n, size_t rf, std::chrono::milliseconds window,
                     bench::BenchReport* report_into) {
  PointResult result;
  cluster::ClusterOptions copt;
  copt.num_replicas = n;
  copt.workers_per_replica = 1;
  copt.partitions = kPartitions;
  copt.replication_factor = rf;  // 0 = full replication
  copt.cost.update_service = std::chrono::milliseconds(2);
  copt.cost.select_service = std::chrono::milliseconds(0);
  copt.cost.apply_fraction = 1.0;
  cluster::Cluster cluster(copt);
  if (!cluster.Start().ok()) return result;
  if (!cluster
           .ExecuteEverywhere(
               "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
           .ok()) {
    return result;
  }

  // Disjoint key pools, each key held by its client's replica.
  const auto& map = cluster.partition_map();
  std::vector<std::vector<int64_t>> pools(n * kClientsPerReplica);
  int64_t probe = 0;
  for (size_t slot = 0; slot < n; ++slot) {
    for (size_t c = 0; c < kClientsPerReplica; ++c) {
      auto& pool = pools[slot * kClientsPerReplica + c];
      while (pool.size() < kKeysPerClient) {
        const int64_t k = probe++;
        if (map != nullptr &&
            !map->Holds(slot, map->PartitionOf(
                                  {"kv", sql::Key{{sql::Value::Int(k)}}}))) {
          continue;
        }
        pool.push_back(k);
        if (!cluster
                 .ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                    {sql::Value::Int(k)})
                 .ok()) {
          return result;
        }
      }
    }
  }
  cluster.SetEmulationEnabled(true);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<SampleStats> commit_ms(n * kClientsPerReplica);
  std::vector<std::thread> clients;
  for (size_t slot = 0; slot < n; ++slot) {
    for (size_t c = 0; c < kClientsPerReplica; ++c) {
      clients.emplace_back([&, slot, c] {
        SampleStats& latency = commit_ms[slot * kClientsPerReplica + c];
        middleware::SrcaRepReplica* mw = cluster.replica(slot);
        const auto& pool = pools[slot * kClientsPerReplica + c];
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const int64_t k = pool[i++ % pool.size()];
          auto txn = mw->BeginTxn();
          if (!txn.ok()) continue;
          auto handle = std::move(txn).value();
          if (!mw->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = " +
                                       std::to_string(k))
                   .ok()) {
            mw->RollbackTxn(handle);
            continue;
          }
          const auto t0 = std::chrono::steady_clock::now();
          if (mw->CommitTxn(handle).ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            latency.Add(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
          }
        }
      });
    }
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cluster.Quiesce();
  // The flagship configuration also feeds the artifact's cluster and
  // contention sections.
  if (report_into != nullptr) {
    report_into->AttachClusterMetrics(cluster.DumpMetrics());
  }
  for (const SampleStats& s : commit_ms) result.commit_ms.Merge(s);
  result.tps = static_cast<double>(committed.load()) / secs;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("fig_partial", &argc, argv);
  bench::BenchReport report("fig_partial");
  const auto window = bench::FastMode() ? std::chrono::milliseconds(250)
                                        : std::chrono::milliseconds(1500);
  const std::vector<size_t> sweep = bench::FastMode()
                                        ? std::vector<size_t>{2, 4}
                                        : std::vector<size_t>{2, 4, 6, 8};

  bench::PrintTableHeader(
      "Partial replication: aggregate write throughput (tps) vs replicas",
      {"replicas", "rf", "partitions", "write_tps"});

  for (size_t rf : {size_t{1}, size_t{2}, size_t{0}}) {
    for (size_t n : sweep) {
      const std::string rf_label = rf == 0 ? "full" : std::to_string(rf);
      // Attach the widest rf=1 cluster (the scale-out headline config).
      const bool flagship = rf == 1 && n == sweep.back();
      const PointResult r =
          RunPoint(n, rf, window, flagship ? &report : nullptr);
      if (r.tps < 0) return 1;
      bench::PrintTableRow({std::to_string(n), rf_label,
                            std::to_string(kPartitions), Fmt(r.tps, 0)});
      const std::string point =
          "rf" + rf_label + "@" + std::to_string(n) + "replicas";
      report.AddScalar(point + ".write_tps", r.tps, "tps",
                       bench::Direction::kHigherIsBetter);
      if (flagship) {
        report.AddPercentiles(point + ".commit_ms",
                              bench::SamplePercentiles(r.commit_ms), "ms");
      }
    }
  }
  report.SetKnob("partitions", uint64_t{kPartitions});
  report.SetKnob("clients_per_replica", uint64_t{kClientsPerReplica});
  bench::FinishReport(report);
  return 0;
}
