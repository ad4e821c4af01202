// Unit suite for cluster::PartitionMap: deterministic tuple hashing,
// the contiguous-group holder model, writeset partition masks, and how
// ClusterOptions select the map.

#include "cluster/partition_map.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "sql/value.h"
#include "storage/types.h"
#include "storage/write_set.h"

namespace sirep {
namespace {

using cluster::PartitionMap;

storage::TupleId Tuple(const std::string& table, int64_t key) {
  return {table, sql::Key{{sql::Value::Int(key)}}};
}

TEST(PartitionMapTest, TupleDigestIsDeterministicAndSeparatorSensitive) {
  const storage::TupleId a = Tuple("accounts", 7);
  // Same logical tuple, fresh objects: digests must be bit-identical —
  // every replica must map a tuple to the same partition and validation
  // index key.
  EXPECT_EQ(PartitionMap::TupleDigest(a),
            PartitionMap::TupleDigest(Tuple("accounts", 7)));
  EXPECT_NE(PartitionMap::TupleDigest(a),
            PartitionMap::TupleDigest(Tuple("accounts", 8)));
  EXPECT_NE(PartitionMap::TupleDigest(a),
            PartitionMap::TupleDigest(Tuple("account", 7)));
  // Known value, pinned: FNV-1a 64 over "accounts" + 0x1f + Key{7}. A
  // change here silently breaks mixed-version clusters (digests are a
  // wire-level contract), so the constant is asserted, not derived.
  uint64_t expected = 1469598103934665603ull;
  auto mix = [&expected](const std::string& s) {
    for (unsigned char c : s) {
      expected ^= c;
      expected *= 1099511628211ull;
    }
  };
  mix("accounts");
  expected ^= 0x1f;
  expected *= 1099511628211ull;
  mix(sql::Key{{sql::Value::Int(7)}}.ToString());
  EXPECT_EQ(PartitionMap::TupleDigest(a), expected);
}

TEST(PartitionMapTest, DegenerateConfigsAreFullReplication) {
  // rf == 0 and rf >= num_slots both collapse to one group.
  for (size_t rf : {size_t{0}, size_t{4}, size_t{9}}) {
    PartitionMap map(/*num_slots=*/4, /*num_partitions=*/16, rf);
    EXPECT_FALSE(map.partial()) << "rf=" << rf;
    EXPECT_EQ(map.num_groups(), 1u);
    for (size_t slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(map.HeldMask(slot), PartitionMap::FullMask(16));
    }
  }
}

TEST(PartitionMapTest, GroupModelPartitionsSlotsDisjointly) {
  // 5 slots, rf 2 -> 2 groups: {0,1} and {2,3,4} (last absorbs the
  // remainder). Every partition is held by exactly one group, and group
  // peers hold identical masks (the covering-donor property).
  PartitionMap map(/*num_slots=*/5, /*num_partitions=*/16,
                   /*replication_factor=*/2);
  ASSERT_TRUE(map.partial());
  ASSERT_EQ(map.num_groups(), 2u);
  EXPECT_EQ(map.GroupOfSlot(0), 0u);
  EXPECT_EQ(map.GroupOfSlot(1), 0u);
  EXPECT_EQ(map.GroupOfSlot(2), 1u);
  EXPECT_EQ(map.GroupOfSlot(4), 1u);
  EXPECT_EQ(map.HeldMask(0), map.HeldMask(1));
  EXPECT_EQ(map.HeldMask(2), map.HeldMask(3));
  EXPECT_EQ(map.HeldMask(2), map.HeldMask(4));
  // Disjoint and jointly exhaustive.
  EXPECT_EQ(map.HeldMask(0) & map.HeldMask(2), 0u);
  EXPECT_EQ(map.HeldMask(0) | map.HeldMask(2), PartitionMap::FullMask(16));
  // Every partition's group agrees with the holder masks.
  for (size_t p = 0; p < 16; ++p) {
    const size_t group = map.GroupOfPartition(p);
    const size_t holder_slot = group == 0 ? 0 : 2;
    const size_t other_slot = group == 0 ? 2 : 0;
    EXPECT_TRUE(map.Holds(holder_slot, p)) << "partition " << p;
    EXPECT_FALSE(map.Holds(other_slot, p)) << "partition " << p;
  }
}

TEST(PartitionMapTest, MaskOfMatchesPerTupleDigests) {
  PartitionMap map(/*num_slots=*/4, /*num_partitions=*/8,
                   /*replication_factor=*/2);
  auto ws = std::make_shared<storage::WriteSet>();
  for (int64_t k = 0; k < 20; ++k) {
    ws->Record(Tuple("t", k), storage::WriteOp::kUpdate, sql::Row{});
  }
  const uint64_t mask = map.MaskOf(*ws);
  uint64_t rebuilt = 0;
  for (const auto& entry : ws->entries()) {
    const size_t partition = map.PartitionOf(entry.tuple);
    EXPECT_EQ(partition, PartitionMap::TupleDigest(entry.tuple) % 8);
    rebuilt |= uint64_t{1} << partition;
  }
  EXPECT_EQ(mask, rebuilt);
  EXPECT_NE(mask, 0u);
  // HoldsAll agrees with the mask algebra.
  for (size_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(map.HoldsAll(slot, mask),
              (mask & ~map.HeldMask(slot)) == 0);
  }
}

TEST(PartitionMapTest, ClusterOptionsSelectTheMap) {
  cluster::ClusterOptions options;
  options.num_replicas = 4;
  EXPECT_EQ(cluster::Cluster(options).partition_map(), nullptr);

  options.replication_factor = 2;
  {
    cluster::Cluster cluster(options);
    const auto& map = cluster.partition_map();
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->num_partitions(), 16u);  // default partition count
    EXPECT_EQ(map->replication_factor(), 2u);
    EXPECT_TRUE(map->partial());
  }

  options.num_replicas = 6;
  options.partitions = 8;
  cluster::Cluster cluster(options);
  const auto& map = cluster.partition_map();
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->num_partitions(), 8u);
  EXPECT_EQ(map->num_groups(), 3u);
}

}  // namespace
}  // namespace sirep
