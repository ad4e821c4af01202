#ifndef SIREP_CLUSTER_CLUSTER_H_
#define SIREP_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "client/driver.h"
#include "cluster/cost_model.h"
#include "cluster/partition_map.h"
#include "cluster/replica_node.h"
#include "common/status.h"
#include "gcs/group.h"
#include "middleware/metrics_http.h"
#include "middleware/replica_mw.h"

namespace sirep::cluster {

struct ClusterOptions {
  size_t num_replicas = 3;
  middleware::ReplicaOptions replica;
  gcs::GroupOptions gcs;
  /// Worker slots per replica (emulated machine parallelism).
  size_t workers_per_replica = 4;
  /// All-zero by default: no service-time emulation.
  CostModel cost;
  /// Partial replication (see cluster::PartitionMap): the keyspace is
  /// hash-partitioned into `partitions` partitions, each owned by a
  /// disjoint holder group of `replication_factor` replicas, and each
  /// holder group runs its own gcs::Group. 0/0 (the default) keeps full
  /// replication; a non-zero rf with 0 partitions uses 16.
  /// replication_factor >= num_replicas also degenerates to full
  /// replication.
  size_t partitions = 0;
  size_t replication_factor = 0;
};

/// Wires up a full SI-Rep deployment in one process (paper Fig. 3c): N
/// (database, middleware) pairs, plus replica discovery for the
/// JDBC-like driver. Full replication runs all N over one gcs::Group
/// (member ids 0..N-1). Partial replication runs one gcs::Group per
/// PartitionMap holder group: each group is a complete SRCA-Rep
/// deployment of its own (total order, tids, validation and recovery),
/// and draws its member ids from a disjoint range, so ids stay unique
/// cluster-wide. Also the fault-injection surface: crash any replica and
/// watch clients fail over.
class Cluster : public client::ReplicaDirectory {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Joins every middleware replica to its group. Call once, first.
  Status Start();

  // ---- schema / data loading (bypasses replication, like restoring the
  // same backup at every replica before opening for business) ----

  /// Runs one autocommitted statement at every replica.
  Status ExecuteEverywhere(const std::string& sql,
                           const std::vector<sql::Value>& params = {});

  /// Runs an arbitrary loader against every replica's database.
  Status LoadEverywhere(
      const std::function<Status(engine::Database*)>& loader);

  /// Enables/disables cost emulation at every node (enable after loading).
  void SetEmulationEnabled(bool enabled);

  // ---- client access ----

  client::Driver& driver() { return driver_; }
  Result<std::unique_ptr<client::Connection>> Connect(
      client::ConnectionOptions options = {}) {
    return driver_.Connect(options);
  }

  // ---- fault injection & introspection ----

  void CrashReplica(size_t index);

  // ---- online recovery (extension) ----

  /// Restarts a previously crashed replica over its surviving database
  /// (simulating a node reboot with its disk intact): a fresh middleware
  /// incarnation joins the replica's group and catches up from the old
  /// incarnation's stable commit prefix while the rest of the cluster
  /// keeps processing transactions. If the whole group is down, only
  /// the group member with the longest stable prefix may restart (it
  /// cold-starts the group); the others get kUnavailable until it is up.
  Status RestartReplica(size_t index);

  /// Adds a brand-new replica while the cluster runs: `schema_loader`
  /// creates the (empty) schema — writesets address tuples by table name
  /// — and recovery replays the full writeset log. Returns its index.
  /// kInvalidArgument under partial replication: a new replica would
  /// belong to no holder group.
  Result<size_t> AddReplica(
      const std::function<Status(engine::Database*)>& schema_loader);

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    return nodes_.size();
  }
  ReplicaNode* node(size_t index) {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    return nodes_[index].get();
  }
  engine::Database* db(size_t index) {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    return nodes_[index]->db();
  }
  middleware::SrcaRepReplica* replica(size_t index) {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    return replicas_[index].get();
  }
  /// The gcs::Group of holder group `g` (see PartitionMap::GroupOfSlot);
  /// full replication has only group 0.
  gcs::Group& group(size_t g = 0) { return *groups_[g]; }
  /// The shared partition map (null under full replication). One object
  /// for the whole cluster — it models the deployment's partition
  ///-assignment config service.
  const std::shared_ptr<PartitionMap>& partition_map() const {
    return partition_map_;
  }

  /// Merged metrics snapshot across the whole deployment: every
  /// middleware replica's registry ("mw.*"), every storage engine's
  /// ("storage.*", "engine.*"), and every GCS group's ("gcs.*"). Same-name
  /// metrics from different replicas add up (histograms bucket-wise).
  obs::MetricsSnapshot DumpMetrics() const;

  /// Human-readable per-stage commit-latency breakdown (count / mean /
  /// p50 / p95 / p99 per commit-path stage) extracted from `snapshot`'s
  /// "mw.commit.stage.*_us" histograms — the paper's Fig. 7 overhead
  /// table, measured instead of estimated. Includes the cross-replica
  /// stages (sequencer queue, delivery skew, remote apply lag, snapshot
  /// staleness), measured against the origin's multicast stamp.
  static std::string FormatCommitBreakdown(const obs::MetricsSnapshot& snap);

  /// Concatenated flight-recorder dump: one section per live replica
  /// plus the process-global recorder (WAL, failpoints, harness events).
  std::string DumpFlightRecorders() const;

  /// Starts one loopback HTTP exposition server per replica, each
  /// serving GET /metrics (that replica's registry, Prometheus text),
  /// GET /flightrecorder (its black box), and GET /cluster/metrics (the
  /// merged DumpMetrics() view — the cluster aggregator, available on
  /// every port). Kernel-assigned ports; see MetricsPorts(). Idempotent.
  Status StartMetricsEndpoints();

  /// Bound port of each replica's exposition server (empty until
  /// StartMetricsEndpoints()).
  std::vector<uint16_t> MetricsPorts() const;

  /// Stops the exposition servers (also run at destruction).
  void StopMetricsEndpoints();

  /// Blocks until all multicast traffic has been delivered and all
  /// tocommit queues drained (test helper).
  void Quiesce();

  /// Runs version garbage collection at every replica (PostgreSQL's
  /// VACUUM). Returns total versions freed.
  size_t VacuumAll();

  // client::ReplicaDirectory
  std::vector<middleware::SrcaRepReplica*> Discover() override;

 private:
  /// Builds a recovering middleware incarnation over `db` and drives
  /// Recover(from_tid) to success. The only recovery retry loop: each
  /// Recover() call is one transfer attempt, and retryable failures
  /// (kUnavailable/kTimedOut: a donor fault, a buffer spill, every donor
  /// momentarily dead, the incarnation expelled mid-recovery) back off
  /// exponentially and re-enter, rebuilding the incarnation if it died;
  /// hard failures and attempt or deadline exhaustion return the last
  /// status with the incarnation crashed.
  Result<std::unique_ptr<middleware::SrcaRepReplica>> RecoverIncarnation(
      engine::Database* db, uint64_t from_tid, size_t slot);

  /// Puts `next` in slot `index` and parks the dead incarnation it
  /// replaces in retired_, shut down so its threads exit.
  void Replace(size_t index,
               std::unique_ptr<middleware::SrcaRepReplica> next);

  /// Holder group of replica slot `index` (0 under full replication).
  size_t GroupOf(size_t index) const {
    return partition_map_ != nullptr ? partition_map_->GroupOfSlot(index)
                                     : 0;
  }

  ClusterOptions options_;
  /// Shared by every replica's ReplicaOptions (slot i = replica i).
  std::shared_ptr<PartitionMap> partition_map_;
  /// One per holder group (GroupOf).
  std::vector<std::unique_ptr<gcs::Group>> groups_;
  /// Guards nodes_/replicas_ against concurrent structural changes:
  /// RestartReplica swaps a replica slot and AddReplica appends while
  /// client threads run Discover() and tests poke accessors. Readers
  /// take it shared; recording into replica objects needs no lock.
  mutable std::shared_mutex replicas_mu_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  std::vector<std::unique_ptr<middleware::SrcaRepReplica>> replicas_;
  /// Dead middleware incarnations, shut down and parked so raw
  /// SrcaRepReplica* handles held by clients stay valid until the
  /// cluster dies.
  std::vector<std::unique_ptr<middleware::SrcaRepReplica>> retired_;
  /// Per-replica exposition servers (StartMetricsEndpoints). Handlers
  /// resolve the replica by index through replica(), so they survive
  /// RestartReplica's incarnation swap.
  std::vector<std::unique_ptr<middleware::MetricsHttpServer>>
      metrics_servers_;
  client::Driver driver_;
};

}  // namespace sirep::cluster

#endif  // SIREP_CLUSTER_CLUSTER_H_
