// Tests for the driver's replica choice: connections spread uniformly
// over the replicas discovery returns (paper §5.4).

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace sirep {
namespace {

using client::ConnectionOptions;
using cluster::Cluster;
using cluster::ClusterOptions;

std::unique_ptr<Cluster> MakeCluster(size_t n) {
  ClusterOptions options;
  options.num_replicas = n;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  EXPECT_TRUE(cluster
                  ->ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  EXPECT_TRUE(cluster->ExecuteEverywhere("INSERT INTO kv VALUES (1, 0)").ok());
  return cluster;
}

TEST(LoadBalanceTest, RandomPolicySpreadsConnections) {
  auto cluster = MakeCluster(3);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    ConnectionOptions copt;
    copt.seed = i + 1;
    auto conn = std::move(cluster->Connect(copt)).value();
    for (size_t r = 0; r < 3; ++r) {
      if (conn->replica() == cluster->replica(r)) ++counts[r];
    }
  }
  for (int c : counts) EXPECT_GT(c, 5);  // nobody starved
}

}  // namespace
}  // namespace sirep
