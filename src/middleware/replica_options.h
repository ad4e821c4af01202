#ifndef SIREP_MIDDLEWARE_REPLICA_OPTIONS_H_
#define SIREP_MIDDLEWARE_REPLICA_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cluster/partition_map.h"

namespace sirep::middleware {

/// Which replica-control variant to run (paper §4.3.3 / §6.3).
enum class ReplicaMode {
  /// Full SRCA-Rep: adjustments 1-3, provides 1-copy-SI.
  kSrcaRep,
  /// SRCA-Opt: adjustments 1-2 only. Starts/commits never synchronize, so
  /// commit orders may diverge across replicas under indirect conflicts —
  /// faster under update-intensive load, but only per-replica SI.
  kSrcaOpt,
};

struct ReplicaOptions {
  ReplicaMode mode = ReplicaMode::kSrcaRep;
  /// Validation tids the writeset log retains (WsLog): the certification
  /// window, and how far back online recovery can donate (paper §5.4:
  /// "the middleware probably has to log writesets"); a recoverer whose
  /// prefix the log no longer reaches gets a full copy instead. One value
  /// for the whole cluster, since it decides which certifications abort
  /// conservatively (0 is treated as 1).
  size_t ws_log_capacity = 1 << 16;
  /// Join in recovery mode: buffer deliveries and reject clients until
  /// Recover() completes. Used when restarting a crashed replica or
  /// adding a new one while the cluster keeps processing transactions.
  bool start_recovering = false;
  /// Cold-start seed after a full-cluster outage: join live immediately
  /// and adopt this tid as the already-validated prefix (the database
  /// under this replica holds every commit up to it). Online recovery
  /// needs a live donor, so when every replica is down the one holding
  /// the longest stable prefix — which, by in-order apply, contains
  /// every acknowledged commit — restarts with this set; everyone else
  /// then recovers from it normally (its empty writeset log forces a
  /// fresh full copy). 0 disables. Mutually exclusive with
  /// `start_recovering`.
  uint64_t bootstrap_prefix = 0;
  /// Worker threads of the remote-apply pipeline (see ApplyPipeline),
  /// which applies non-conflicting writesets in parallel; 1 (or 0) is a
  /// single applier in dispatch order. Should be > 1 or blocked applies
  /// (waiting on local transactions' locks) serialize unrelated applies;
  /// local commits are never run here (the committing client's thread
  /// performs them), so the hidden-deadlock freedom of Adjustment 2 does
  /// not depend on this width.
  size_t applier_threads = 8;
  /// Buffered post-marker deliveries above this high-water mark trigger
  /// backpressure: the buffer is dropped and the transfer attempt ends,
  /// so the next one anchors at a fresh marker, instead of growing
  /// without bound (0 is treated as 1).
  size_t recovery_buffer_high_water = 4096;
  /// Partial replication (null = full replication everywhere). All
  /// replicas of a cluster share one map (it models the cluster's
  /// partition-assignment config); `partition_slot` is this replica's
  /// stable slot in it, which determines the partitions it holds and so
  /// its holder group. The replica refuses to commit writesets outside
  /// its partitions, and runtime DDL.
  std::shared_ptr<cluster::PartitionMap> partition_map;
  size_t partition_slot = 0;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_REPLICA_OPTIONS_H_
