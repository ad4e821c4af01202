// GCS microbenchmarks (paper §5.2): "the delay for a uniform reliable
// multicast does not exceed 3 ms in a LAN even for message rates of
// several hundreds of messages per second".
//
// We measure multicast->last-delivery latency of our in-process GCS at
// several message rates, with the emulated LAN delay configured to the
// paper's regime, plus the raw (zero-delay) ordering overhead.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/failpoint.h"
#include "common/stats.h"
#include "engine/database.h"
#include "gcs/group.h"
#include "middleware/apply_pipeline.h"
#include "middleware/messages.h"
#include "middleware/tocommit_queue.h"
#include "sql/value.h"
#include "storage/write_set.h"

using namespace sirep;

namespace {

/// Listener that records the delivery time of each seqno.
class LatencyListener : public gcs::GroupListener {
 public:
  explicit LatencyListener(std::atomic<uint64_t>* delivered)
      : delivered_(delivered) {}
  void OnDeliver(const gcs::Message&) override {
    delivered_->fetch_add(1, std::memory_order_relaxed);
  }
  void OnViewChange(const gcs::View&) override {}

 private:
  std::atomic<uint64_t>* delivered_;
};

void MeasureRate(double rate_per_s, std::chrono::microseconds delay,
                 int members, bench::BenchReport& report) {
  gcs::GroupOptions options;
  options.multicast_delay = delay;
  gcs::Group group(options);
  std::atomic<uint64_t> delivered{0};
  std::vector<std::unique_ptr<LatencyListener>> listeners;
  std::vector<gcs::MemberId> ids;
  for (int i = 0; i < members; ++i) {
    listeners.push_back(std::make_unique<LatencyListener>(&delivered));
    ids.push_back(group.Join(listeners.back().get()));
  }
  group.WaitForQuiescence();

  const int kMessages = 300;
  SampleStats latency_ms;
  const auto interarrival =
      std::chrono::duration<double>(1.0 / rate_per_s);
  auto next = std::chrono::steady_clock::now();
  for (int i = 0; i < kMessages; ++i) {
    std::this_thread::sleep_until(next);
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        interarrival);
    const uint64_t before = delivered.load();
    const auto t0 = std::chrono::steady_clock::now();
    if (!group.Multicast(ids[i % members], "m",
                         std::make_shared<const int>(i))
             .ok()) {
      break;
    }
    // Wait until every member delivered this message.
    while (delivered.load() < before + static_cast<uint64_t>(members)) {
      std::this_thread::yield();
    }
    latency_ms.Add(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::printf("  %4.0f msg/s, %d members, cfg delay %4.1f ms: "
              "mean %5.2f ms, p95 %5.2f ms, max %5.2f ms\n",
              rate_per_s, members,
              std::chrono::duration<double, std::milli>(delay).count(),
              latency_ms.Mean(), latency_ms.Percentile(95),
              latency_ms.Max());
  // The same distribution as seen by the group's own histogram
  // ("gcs.multicast_us": enqueue -> last stable delivery), extracted
  // from its buckets — what a /metrics scrape reports.
  const auto snap = group.metrics().Snapshot();
  const auto p = snap.Percentiles("gcs.multicast_us");
  std::printf("       registry gcs.multicast_us: n=%llu "
              "p50 %5.2f ms, p95 %5.2f ms, p99 %5.2f ms\n",
              static_cast<unsigned long long>(p.count), p.p50 / 1000.0,
              p.p95 / 1000.0, p.p99 / 1000.0);
  const std::string point = "multicast@" + bench::Fmt(rate_per_s, 0) + "mps";
  report.AddScalar(point + ".mean_ms", latency_ms.Mean(), "ms",
                   bench::Direction::kLowerIsBetter);
  report.AddScalar(point + ".p95_ms", latency_ms.Percentile(95), "ms",
                   bench::Direction::kInfo);
  report.AddPercentiles(point + ".gcs_multicast_us", p, "us");
  // The highest-rate group feeds the artifact's cluster section (the
  // registry a /metrics scrape of this group would report).
  if (rate_per_s >= 500.0) report.AttachClusterMetrics(snap);
}

/// A representative OLTP writeset message: a handful of small rows.
std::shared_ptr<const middleware::WriteSetMessage> SampleWriteSetMessage() {
  auto ws = std::make_shared<storage::WriteSet>();
  for (int64_t i = 0; i < 4; ++i) {
    storage::TupleId tuple;
    tuple.table = "accounts";
    tuple.key.parts = {sql::Value::Int(i)};
    ws->Record(tuple, storage::WriteOp::kUpdate,
               {sql::Value::Int(i), sql::Value::String("holder"),
                sql::Value::Double(100.25)});
  }
  auto msg = std::make_shared<middleware::WriteSetMessage>();
  msg->gid = middleware::GlobalTxnId{1, 1};
  msg->cert = 0;
  msg->ws = ws;
  return msg;
}

/// Multicast throughput: one sender multicasts kWritesets writeset
/// messages as fast as it can to 3 members. Reported cost is wall time
/// from first multicast to full delivery everywhere, divided by the
/// number of writesets — the per-writeset share of the multicast
/// machinery (frame header, sequencer round-trip, acks, delivery).
void MeasureMulticastThroughput(gcs::TransportKind kind, const char* label,
                                const char* key, bench::BenchReport& report) {
  const int kWritesets = 4096;
  auto payload = SampleWriteSetMessage();
  gcs::GroupOptions options;
  options.transport = kind;
  gcs::Group group(options);
  middleware::RegisterMessageCodecs(&group);
  std::atomic<uint64_t> delivered{0};
  LatencyListener a(&delivered), b(&delivered), c(&delivered);
  const auto sender = group.Join(&a);
  group.Join(&b);
  group.Join(&c);
  group.WaitForQuiescence();

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kWritesets; ++i) {
    if (!group.Multicast(sender, middleware::kWriteSetMessageType, payload)
             .ok()) {
      std::printf("  multicast failed at %d\n", i);
      return;
    }
  }
  group.WaitForQuiescence();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::printf("  %-13s: %6.2f us/writeset\n", label, us / kWritesets);
  report.AddScalar("multicast." + std::string(key) + ".us_per_ws",
                   us / kWritesets, "us", bench::Direction::kLowerIsBetter);
}

/// Remote-apply pipeline sweep: the pure worker-pool mechanics, no GCS.
/// The feed dispatches non-conflicting writesets (distinct tuples) as
/// fast as it can — faster than one worker can apply them at the
/// emulated apply cost — so throughput should scale with width until the
/// dispatch loop itself becomes the limit. This isolates the pipeline
/// from fig7_overhead's full-stack sweep (validation, holes, WAL).
void MeasureApplyPipelineSweep(bench::BenchReport& report) {
  const int kWritesets = bench::FastMode() ? 1024 : 4096;
  const auto kApplyCost = std::chrono::microseconds(200);
  std::printf("Remote-apply pipeline sweep (%d non-conflicting writesets, "
              "%lld us emulated apply):\n",
              kWritesets,
              static_cast<long long>(kApplyCost.count()));
  double serial_us = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    std::atomic<int> applied{0};
    auto pipeline = std::make_unique<middleware::ApplyPipeline>(
        threads,
        [&](middleware::ToCommitEntry) {
          std::this_thread::sleep_for(kApplyCost);
          applied.fetch_add(1, std::memory_order_relaxed);
        },
        nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kWritesets; ++i) {
      auto ws = std::make_shared<storage::WriteSet>();
      storage::TupleId tuple;
      tuple.table = "t";
      tuple.key.parts = {sql::Value::Int(i)};  // distinct => spread shards
      ws->Record(tuple, storage::WriteOp::kUpdate, {sql::Value::Int(i)});
      middleware::ToCommitEntry entry;
      entry.tid = static_cast<uint64_t>(i + 1);
      entry.ws = std::move(ws);
      pipeline->Dispatch(std::move(entry));
    }
    pipeline->Shutdown();  // drains, so this times the full batch
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (threads == 1) serial_us = us;
    std::printf("  threads %zu: %6.2f us/writeset (%7.0f applies/s, "
                "speedup %.2fx), applied %d\n",
                threads, us / kWritesets, kWritesets / (us / 1e6),
                serial_us / us, applied.load());
    report.AddScalar("apply_pipeline@" + std::to_string(threads) +
                         "thr.applies_per_s",
                     kWritesets / (us / 1e6), "tps",
                     bench::Direction::kHigherIsBetter);
  }
  std::printf("\n");
}

/// WAL group commit A/B at the storage layer: 8 concurrent committers on
/// disjoint keys, per-commit flush vs leader-elected group flush. The
/// group path is what keeps the WAL off the critical path once the
/// parallel appliers make commits concurrent. The log's flush is an
/// fflush to the page cache (~free), which would hide the effect, so we
/// emulate a storage-device fsync with the wal.fsync delay failpoint —
/// both modes pay the same per-flush cost; group commit wins by doing
/// fewer flushes.
void MeasureWalGroupCommit(bench::BenchReport& report) {
  const int kThreads = 8;
  const int kTxns = bench::FastMode() ? 100 : 400;
  if (!failpoint::ArmFromList("wal.fsync=delay(200us)").ok()) return;
  std::printf("WAL group commit (8 committers x %d autocommit updates, "
              "disjoint keys, 200 us emulated fsync):\n",
              kTxns);
  for (const bool group : {false, true}) {
    const std::string path = "/tmp/sirep_gcs_micro_wal_" +
                             std::to_string(::getpid()) +
                             (group ? "_group" : "_serial") + ".wal";
    engine::Database db;
    if (!db.ExecuteAutoCommit("CREATE TABLE kv (k INT, v INT, "
                              "PRIMARY KEY (k))")
             .ok() ||
        !db.EnableWal(path, group).ok()) {
      return;
    }
    for (int t = 0; t < kThreads; ++t) {
      (void)db.ExecuteAutoCommit("INSERT INTO kv VALUES (?, 0)",
                                 {sql::Value::Int(t)});
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&db, t, kTxns] {
        for (int i = 0; i < kTxns; ++i) {
          (void)db.ExecuteAutoCommit("UPDATE kv SET v = ? WHERE k = ?",
                                     {sql::Value::Int(i), sql::Value::Int(t)});
        }
      });
    }
    for (auto& c : committers) c.join();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const auto gp =
        db.engine().metrics().Snapshot().Percentiles("storage.wal_group_size");
    std::printf("  %-6s: %7.0f commits/s, mean group size %.2f "
                "(%llu flushes)\n",
                group ? "group" : "serial", kThreads * kTxns / s,
                group ? gp.mean : 1.0,
                static_cast<unsigned long long>(
                    group ? gp.count
                          : static_cast<uint64_t>(kThreads) * kTxns));
    report.AddScalar(std::string("wal.") + (group ? "group" : "serial") +
                         ".commits_per_s",
                     kThreads * kTxns / s, "tps",
                     bench::Direction::kHigherIsBetter);
    if (group) {
      report.AddScalar("wal.group.mean_group_size", gp.mean, "txns",
                       bench::Direction::kInfo);
    }
    std::remove(path.c_str());
  }
  failpoint::DisarmAll();
  std::printf("\n");
}

void BM_MulticastOrderingOverhead(benchmark::State& state) {
  // Raw cost of the total-order + enqueue path, no delay, no rate limit.
  gcs::Group group;
  std::atomic<uint64_t> delivered{0};
  LatencyListener a(&delivered), b(&delivered), c(&delivered);
  auto ma = group.Join(&a);
  group.Join(&b);
  group.Join(&c);
  auto payload = std::make_shared<const int>(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.Multicast(ma, "m", payload));
  }
  state.SetItemsProcessed(state.iterations());
  group.WaitForQuiescence();
}
BENCHMARK(BM_MulticastOrderingOverhead);

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("gcs_micro", &argc, argv);
  bench::BenchReport report("gcs_micro");
  std::printf("\nUniform reliable total-order multicast latency "
              "(paper: <= 3 ms at hundreds of msg/s):\n");
  const auto delay = std::chrono::microseconds(1500);  // emulated LAN hop
  for (double rate : {50.0, 200.0, 500.0}) {
    MeasureRate(rate, delay, /*members=*/5, report);
  }
  std::printf("\n");

  std::printf("Multicast throughput (1 sender, 3 members, 4,096 4-row "
              "writesets):\n");
  MeasureMulticastThroughput(gcs::TransportKind::kTcp, "TCP sequencer",
                             "tcp", report);
  MeasureMulticastThroughput(gcs::TransportKind::kInProcess, "in-process",
                             "inproc", report);
  std::printf("\n");

  MeasureApplyPipelineSweep(report);
  MeasureWalGroupCommit(report);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::FinishReport(report);
  return 0;
}
