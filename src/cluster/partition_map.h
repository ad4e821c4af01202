#ifndef SIREP_CLUSTER_PARTITION_MAP_H_
#define SIREP_CLUSTER_PARTITION_MAP_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "storage/types.h"
#include "storage/write_set.h"

namespace sirep::cluster {

/// Hash partitioning of the keyspace over (table, primary key), with each
/// partition owned by a *holder group* — a disjoint subset of
/// `replication_factor` cluster slots. Cluster runs one gcs::Group per
/// holder group, so each group is a complete SRCA-Rep deployment of its
/// own (paper Fig. 4 unmodified: its own total order, tids, validation
/// index and recovery donors), and a writeset never reaches a replica
/// outside its group. What is left for the map to decide is routing:
///
///  * the middleware refuses to commit a writeset that touches a
///    partition its replica does not hold (`HoldsAll` over `MaskOf`) —
///    the misroute guard, which also refuses every cross-group
///    transaction, since no replica holds two groups' partitions;
///  * Cluster assigns replica slot `i` to the group `GroupOfSlot(i)`;
///  * clients (and the benches) find a key's holders (`PartitionOf`,
///    `GroupOfPartition`, `Holds`).
///
/// **Group model.** Slots are divided into `num_groups =
/// max(1, num_slots / replication_factor)` contiguous groups (the last
/// group absorbs any remainder), and partition `p` is owned by every
/// slot of group `p % num_groups`. Disjoint groups make every group
/// peer a fully covering recovery donor. The cost is that a cross-group
/// transaction has no replica holding all its data and must be split by
/// the client; cross-partition transactions *within* a group commit
/// normally (the executing replica holds everything it read).
///
/// A tuple's partition is derived from a 64-bit FNV-1a digest of table
/// + 0x1f + key (`TupleDigest`).
/// The partition count is capped at 64 so a partition set is a plain
/// `uint64_t` mask. Immutable after construction, hence thread-safe.
class PartitionMap {
 public:
  static constexpr size_t kMaxPartitions = 64;

  PartitionMap(size_t num_slots, size_t num_partitions,
               size_t replication_factor)
      : num_slots_(std::max<size_t>(num_slots, 1)),
        partitions_(std::min(std::max<size_t>(num_partitions, 1),
                             kMaxPartitions)),
        rf_(replication_factor),
        groups_(rf_ == 0 || rf_ >= num_slots_
                    ? 1
                    : std::max<size_t>(num_slots_ / rf_, 1)) {}

  /// FNV-1a 64 over table bytes, a 0x1f separator, then the printable
  /// key — deterministic across replicas and processes (never uses
  /// std::hash, whose value is implementation-defined).
  static uint64_t TupleDigest(const storage::TupleId& tuple) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string& s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
      }
    };
    mix(tuple.table);
    h ^= 0x1f;
    h *= 1099511628211ull;
    mix(tuple.key.ToString());
    return h;
  }

  size_t num_slots() const { return num_slots_; }
  size_t num_partitions() const { return partitions_; }
  size_t replication_factor() const { return rf_; }
  size_t num_groups() const { return groups_; }

  /// True when more than one holder group exists. rf == 0 or rf >=
  /// num_slots degenerates to full replication: one group, every slot
  /// holds everything.
  bool partial() const { return groups_ > 1; }

  size_t PartitionOf(const storage::TupleId& tuple) const {
    return TupleDigest(tuple) % partitions_;
  }

  size_t GroupOfPartition(size_t partition) const {
    return partition % groups_;
  }
  /// Contiguous groups of rf slots; the last group absorbs the
  /// remainder when num_slots % rf != 0.
  size_t GroupOfSlot(size_t slot) const {
    if (groups_ <= 1) return 0;
    return std::min(slot / rf_, groups_ - 1);
  }

  /// Bitmask of the partitions `slot` holds.
  uint64_t HeldMask(size_t slot) const {
    if (groups_ <= 1) return FullMask(partitions_);
    const size_t group = GroupOfSlot(slot);
    uint64_t mask = 0;
    for (size_t p = 0; p < partitions_; ++p) {
      if (p % groups_ == group) mask |= uint64_t{1} << p;
    }
    return mask;
  }

  bool Holds(size_t slot, size_t partition) const {
    return (HeldMask(slot) >> partition) & 1;
  }
  bool HoldsAll(size_t slot, uint64_t partition_mask) const {
    return (partition_mask & ~HeldMask(slot)) == 0;
  }

  /// Bitmask of the partitions a writeset touches.
  uint64_t MaskOf(const storage::WriteSet& ws) const {
    uint64_t mask = 0;
    for (const auto& entry : ws.entries()) {
      mask |= uint64_t{1} << PartitionOf(entry.tuple);
    }
    return mask;
  }

  static uint64_t FullMask(size_t partitions) {
    return partitions >= 64 ? ~uint64_t{0}
                            : (uint64_t{1} << partitions) - 1;
  }

 private:
  const size_t num_slots_;
  const size_t partitions_;
  const size_t rf_;
  const size_t groups_;
};

}  // namespace sirep::cluster

#endif  // SIREP_CLUSTER_PARTITION_MAP_H_
