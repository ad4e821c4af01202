// Cross-replica stage tracing: Multicast() stamps every message with
// the origin's clock (gcs::Message::enqueue_ns), both transports deliver
// that one stamp to every member, and remote replicas measure their
// share of the commit path (delivery skew, global validation, apply,
// remote apply lag, snapshot staleness) against it. Exercised over the
// in-process and the TCP sequencer transports.

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

using middleware::GlobalTxnId;

// ---- GCS layer: one multicast stamp reaches every member --------------

struct Delivery {
  uint64_t enqueue_ns = 0;
  GlobalTxnId gid;
};

/// Captures the stamp and gid of every delivered writeset message.
class StampCapture : public gcs::GroupListener {
 public:
  void OnDeliver(const gcs::Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    deliveries_.push_back(
        {message.enqueue_ns,
         message.As<middleware::WriteSetMessage>()->gid});
  }
  void OnViewChange(const gcs::View&) override {}

  std::vector<Delivery> deliveries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deliveries_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Delivery> deliveries_;
};

/// A writeset message delivered to three members: through the message
/// codec when `codecs` (the byte-shipping path the replicas use), else
/// through the stash. Every member must see the one stamp, and it must
/// have been taken inside Multicast().
void MulticastCarriesOneStamp(gcs::TransportKind kind, bool codecs) {
  gcs::GroupOptions options;
  options.transport = kind;
  gcs::Group group(options);
  if (codecs) middleware::RegisterMessageCodecs(&group);
  StampCapture a;
  StampCapture b;
  StampCapture c;
  const auto sender = group.Join(&a);
  group.Join(&b);
  group.Join(&c);
  group.WaitForQuiescence();

  auto msg = std::make_shared<middleware::WriteSetMessage>();
  msg->gid = GlobalTxnId{2, 99};
  const uint64_t before = obs::MonotonicNanos();
  ASSERT_TRUE(group
                  .Multicast(sender, middleware::kWriteSetMessageType,
                             std::move(msg))
                  .ok());
  const uint64_t after = obs::MonotonicNanos();
  group.WaitForQuiescence();

  const auto sent = a.deliveries();
  ASSERT_EQ(sent.size(), 1u);
  const uint64_t stamp = sent[0].enqueue_ns;
  EXPECT_GE(stamp, before);
  EXPECT_LE(stamp, after);
  for (const StampCapture* capture : {&a, &b, &c}) {
    const auto got = capture->deliveries();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].enqueue_ns, stamp);
    EXPECT_EQ(got[0].gid, (GlobalTxnId{2, 99}));
  }
  group.Shutdown();
}

TEST(TracePropagationTest, InProcessMulticastCarriesOneStamp) {
  MulticastCarriesOneStamp(gcs::TransportKind::kInProcess, /*codecs=*/true);
  MulticastCarriesOneStamp(gcs::TransportKind::kInProcess, /*codecs=*/false);
}

TEST(TracePropagationTest, TcpMulticastCarriesOneStamp) {
  MulticastCarriesOneStamp(gcs::TransportKind::kTcp, /*codecs=*/true);
  MulticastCarriesOneStamp(gcs::TransportKind::kTcp, /*codecs=*/false);
}

// ---- middleware layer: remote replicas measure from the stamp ---------

uint64_t StageCount(const obs::MetricsSnapshot& snap, obs::Stage stage) {
  const auto it = snap.histograms.find(obs::StageMetricName(stage));
  return it == snap.histograms.end() ? 0 : it->second.count;
}

const obs::HistogramSnapshot& StageHist(const obs::MetricsSnapshot& snap,
                                        obs::Stage stage) {
  return snap.histograms.at(obs::StageMetricName(stage));
}

void RemoteStagesFromOriginStamp(gcs::TransportKind kind) {
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

  // The remote replica recorded its share of each writeset's commit
  // path, the cross-replica stages included ...
  const auto remote = cluster.replica(1)->metrics().Snapshot();
  EXPECT_GE(StageCount(remote, obs::Stage::kDeliverySkew), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kGlobalValidate), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kApply), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kRemoteApplyLag), kTxns);
  EXPECT_GE(StageCount(remote, obs::Stage::kSnapshotStaleness), kTxns);
  // ... and published a clock-offset estimate for skew correction.
  EXPECT_TRUE(remote.gauges.count("mw.clock.offset_estimate_ns"));
  // The replicas share one clock, so the offset bound is at least 0 and
  // each writeset's staleness (multicast stamp -> commit here) covers its
  // apply lag (delivery -> the same commit) plus its skew (at most
  // stamp -> delivery).
  EXPECT_GE(remote.gauges.at("mw.clock.offset_estimate_ns"), 0);
  const double staleness =
      StageHist(remote, obs::Stage::kSnapshotStaleness).sum;
  const double lag = StageHist(remote, obs::Stage::kRemoteApplyLag).sum;
  const double skew = StageHist(remote, obs::Stage::kDeliverySkew).sum;
  EXPECT_GT(staleness, 0.0);
  EXPECT_GE(staleness + 1e-3, lag + skew)
      << "staleness " << staleness << " lag " << lag << " skew " << skew;

  // The origin's share: execute-through-commit plus its wait in the
  // sequencer queue; it records no remote-side spans for its own txns.
  const auto local = cluster.replica(0)->metrics().Snapshot();
  EXPECT_GE(StageCount(local, obs::Stage::kExecute), kTxns);
  EXPECT_GE(StageCount(local, obs::Stage::kMulticast), kTxns);
  EXPECT_GE(StageCount(local, obs::Stage::kSequencerQueue), kTxns);
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

TEST(TracePropagationTest, InProcessRemoteStagesFromOriginStamp) {
  RemoteStagesFromOriginStamp(gcs::TransportKind::kInProcess);
}

TEST(TracePropagationTest, TcpRemoteStagesFromOriginStamp) {
  RemoteStagesFromOriginStamp(gcs::TransportKind::kTcp);
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
