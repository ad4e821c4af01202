// Cross-replica distributed tracing: the origin replica stamps every
// multicast writeset message with a TraceContext, both transports carry
// it verbatim inside the message, and remote replicas record their share
// of the commit path (delivery skew, global validation, apply, remote
// apply lag, snapshot staleness) under the *originating* transaction's
// trace id. Exercised over the in-process and the TCP sequencer
// transports.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "gcs/group.h"
#include "middleware/messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sirep {
namespace {

// ---- GCS layer: the context crosses the wire verbatim -----------------

/// Captures the trace context of every delivered writeset message.
class TraceCapture : public gcs::GroupListener {
 public:
  void OnDeliver(const gcs::Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    traces_.push_back(message.As<middleware::WriteSetMessage>()->trace);
  }
  void OnViewChange(const gcs::View&) override {}

  std::vector<obs::TraceContext> traces() const {
    std::lock_guard<std::mutex> lock(mu_);
    return traces_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<obs::TraceContext> traces_;
};

obs::TraceContext MakeContext() {
  obs::TraceContext ctx;
  ctx.trace_id = (static_cast<uint64_t>(2) + 1) << 40 | 99;
  ctx.origin_replica = 2;
  ctx.origin_mono_ns = obs::MonotonicNanos();
  ctx.origin_wall_ns = obs::TraceContext::WallNanos();
  return ctx;
}

/// A writeset message carrying `ctx`, delivered to two members: through
/// the message codec when `codecs` (the byte-shipping path the replicas
/// use), else through the stash.
void MulticastCarriesContext(gcs::TransportKind kind, bool codecs) {
  gcs::GroupOptions options;
  options.transport = kind;
  gcs::Group group(options);
  if (codecs) middleware::RegisterMessageCodecs(&group);
  TraceCapture a;
  TraceCapture b;
  const auto sender = group.Join(&a);
  group.Join(&b);
  group.WaitForQuiescence();

  const obs::TraceContext ctx = MakeContext();
  auto msg = std::make_shared<middleware::WriteSetMessage>();
  msg->gid = middleware::GlobalTxnId{2, 99};
  msg->trace = ctx;
  ASSERT_TRUE(group
                  .Multicast(sender, middleware::kWriteSetMessageType,
                             std::move(msg))
                  .ok());
  group.WaitForQuiescence();

  for (const TraceCapture* capture : {&a, &b}) {
    const auto traces = capture->traces();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0], ctx);  // including the origin's trace id
  }
  group.Shutdown();
}

TEST(TracePropagationTest, InProcessMulticastCarriesOriginContext) {
  MulticastCarriesContext(gcs::TransportKind::kInProcess, /*codecs=*/true);
  MulticastCarriesContext(gcs::TransportKind::kInProcess, /*codecs=*/false);
}

TEST(TracePropagationTest, TcpMulticastCarriesOriginContext) {
  MulticastCarriesContext(gcs::TransportKind::kTcp, /*codecs=*/true);
  MulticastCarriesContext(gcs::TransportKind::kTcp, /*codecs=*/false);
}

// ---- middleware layer: remote replicas record the origin's spans ------

uint64_t StageCount(const obs::MetricsSnapshot& snap, obs::Stage stage) {
  const auto it = snap.histograms.find(obs::StageMetricName(stage));
  return it == snap.histograms.end() ? 0 : it->second.count;
}

void RemoteSpansRecordedUnderOriginTrace(gcs::TransportKind kind) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  options.gcs.transport = kind;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO t VALUES (1, 0)").ok());

  constexpr uint64_t kTxns = 3;
  auto* origin = cluster.replica(0);
  for (uint64_t i = 0; i < kTxns; ++i) {
    auto handle = std::move(origin->BeginTxn()).value();
    ASSERT_TRUE(
        origin->Execute(handle, "UPDATE t SET v = v + 1 WHERE k = 1").ok());
    ASSERT_TRUE(origin->CommitTxn(handle).ok());
  }
  cluster.Quiesce();

  // The remote replica recorded the cross-replica stages. Those
  // histograms are only fed through a remote-side TxnTrace created from
  // a valid received TraceContext, so nonzero counts prove the spans
  // were recorded under the origin's trace id.
  const auto remote = cluster.replica(1)->metrics().Snapshot();
  EXPECT_GE(StageCount(remote, obs::Stage::kDeliverySkew), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kGlobalValidate), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kApply), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kRemoteApplyLag), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kSnapshotStaleness), kTxns);
  // ... and published a clock-offset estimate for skew correction.
  EXPECT_TRUE(remote.gauges.count("mw.clock.offset_estimate_ns"));

  // The origin's share: execute-through-commit plus its wait in the
  // sequencer queue; it records no remote-side spans for its own txns.
  const auto local = cluster.replica(0)->metrics().Snapshot();
  EXPECT_GE(StageCount(local, obs::Stage::kExecute), kTxns);
  EXPECT_GE(StageCount(local, obs::Stage::kMulticast), kTxns);
  EXPECT_GE(StageCount(local, obs::Stage::kCommit), kTxns);
  EXPECT_EQ(StageCount(local, obs::Stage::kDeliverySkew), 0u);
  EXPECT_EQ(StageCount(local, obs::Stage::kRemoteApplyLag), 0u);

  // Merged across the cluster, fig7's breakdown now shows the
  // cross-replica stages alongside the local ones.
  const std::string breakdown =
      cluster::Cluster::FormatCommitBreakdown(cluster.DumpMetrics());
  EXPECT_NE(breakdown.find("cross-replica"), std::string::npos);
  EXPECT_NE(breakdown.find("delivery_skew"), std::string::npos);
  EXPECT_NE(breakdown.find("p99"), std::string::npos);
}

TEST(TracePropagationTest, InProcessRemoteSpansUnderOriginTrace) {
  RemoteSpansRecordedUnderOriginTrace(gcs::TransportKind::kInProcess);
}

TEST(TracePropagationTest, TcpRemoteSpansUnderOriginTrace) {
  RemoteSpansRecordedUnderOriginTrace(gcs::TransportKind::kTcp);
}

// ---- CI metric-name lint: sweep every name a live cluster registers ---

TEST(MetricNameLintTest, EveryRegisteredNameFollowsConvention) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  auto* mw = cluster.replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  cluster.Quiesce();

  const obs::MetricsSnapshot snap = cluster.DumpMetrics();
  EXPECT_FALSE(snap.counters.empty());
  for (const auto& [name, unused] : snap.counters) {
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
  }
  for (const auto& [name, unused] : snap.gauges) {
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
  }
  for (const auto& [name, unused] : snap.histograms) {
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
  }
}

}  // namespace
}  // namespace sirep
