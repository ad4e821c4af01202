#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace sirep::cluster {

namespace {

/// Size of each holder group's member-id range: group g's members get
/// ids g * kMemberIdsPerGroup, counting up per join (restarts included).
constexpr gcs::MemberId kMemberIdsPerGroup = 1u << 16;

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(options), driver_(this) {
  // One shared partition map for the whole deployment (slot i =
  // replica i); none at all under full replication.
  if (options_.partitions != 0 || options_.replication_factor != 0) {
    partition_map_ = std::make_shared<PartitionMap>(
        options_.num_replicas,
        options_.partitions == 0 ? size_t{16} : options_.partitions,
        options_.replication_factor);
  }
  options_.replica.partition_map = partition_map_;
  const size_t num_groups =
      partition_map_ != nullptr ? partition_map_->num_groups() : 1;
  for (size_t g = 0; g < num_groups; ++g) {
    groups_.push_back(std::make_unique<gcs::Group>(
        options_.gcs, static_cast<gcs::MemberId>(g) * kMemberIdsPerGroup));
  }
  nodes_.reserve(options_.num_replicas);
  replicas_.reserve(options_.num_replicas);
  for (size_t i = 0; i < options_.num_replicas; ++i) {
    nodes_.push_back(std::make_unique<ReplicaNode>(
        "replica" + std::to_string(i), options_.workers_per_replica,
        options_.cost));
    middleware::ReplicaOptions ropt = options_.replica;
    ropt.partition_slot = i;
    replicas_.push_back(std::make_unique<middleware::SrcaRepReplica>(
        nodes_.back()->db(), &group(GroupOf(i)), ropt));
  }
}

Cluster::~Cluster() {
  StopMetricsEndpoints();
  for (auto& replica : replicas_) replica->Shutdown();
  for (auto& group : groups_) group->Shutdown();
}

Status Cluster::Start() {
  for (auto& replica : replicas_) {
    SIREP_RETURN_IF_ERROR(replica->Start());
  }
  return Status::OK();
}

Status Cluster::ExecuteEverywhere(const std::string& sql,
                                  const std::vector<sql::Value>& params) {
  for (auto& node : nodes_) {
    auto result = node->db()->ExecuteAutoCommit(sql, params);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Status Cluster::LoadEverywhere(
    const std::function<Status(engine::Database*)>& loader) {
  for (auto& node : nodes_) {
    SIREP_RETURN_IF_ERROR(loader(node->db()));
  }
  return Status::OK();
}

void Cluster::SetEmulationEnabled(bool enabled) {
  for (auto& node : nodes_) node->SetEmulationEnabled(enabled);
}

void Cluster::CrashReplica(size_t index) {
  std::shared_lock<std::shared_mutex> lock(replicas_mu_);
  if (index < replicas_.size()) replicas_[index]->Crash();
}

std::vector<middleware::SrcaRepReplica*> Cluster::Discover() {
  std::shared_lock<std::shared_mutex> lock(replicas_mu_);
  std::vector<middleware::SrcaRepReplica*> out;
  for (auto& replica : replicas_) {
    // Paper §5.4: "replicas that are able to handle additional workload
    // respond" — a recovering replica does not respond to discovery.
    if (replica->IsAcceptingClients()) out.push_back(replica.get());
  }
  return out;
}

namespace {

/// The retry policy of recovery (the only one: each Recover() call is a
/// single transfer attempt): attempts, the exponential backoff between
/// them, and an overall cap (backoff sleeps included). A buffer spill
/// under heavy traffic costs an attempt while the spill mark escalates,
/// so the budget leaves room for several.
constexpr size_t kRecoveryAttempts = 16;
constexpr std::chrono::milliseconds kRecoveryInitialBackoff{10};
constexpr std::chrono::milliseconds kRecoveryMaxBackoff{400};
constexpr std::chrono::milliseconds kRecoveryDeadline{60000};

}  // namespace

Result<std::unique_ptr<middleware::SrcaRepReplica>>
Cluster::RecoverIncarnation(engine::Database* db, uint64_t from_tid,
                            size_t slot) {
  const auto deadline = std::chrono::steady_clock::now() + kRecoveryDeadline;
  std::chrono::milliseconds backoff = kRecoveryInitialBackoff;
  middleware::ReplicaOptions ropt = options_.replica;
  ropt.start_recovering = true;
  ropt.partition_slot = slot;

  std::unique_ptr<middleware::SrcaRepReplica> incarnation;
  Status recovered = Status::Unavailable("recovery never attempted");
  for (size_t attempt = 0; attempt < kRecoveryAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kRecoveryMaxBackoff);
      if (std::chrono::steady_clock::now() > deadline) break;
    }
    if (incarnation == nullptr || !incarnation->IsAlive()) {
      // First attempt, or the joining incarnation crashed mid-recovery
      // (e.g. expelled by a view change): rebuild it. Destroying the
      // crashed one is safe: it was never published to clients, and its
      // destructor waits out a callback still unwinding its self-crash.
      incarnation = std::make_unique<middleware::SrcaRepReplica>(
          db, &group(GroupOf(slot)), ropt);
      Status started = incarnation->Start();
      if (!started.ok()) {
        recovered = started;
        incarnation->Crash();
        incarnation.reset();
        if (!middleware::RecoveryRetryable(started)) return started;
        continue;
      }
    }
    recovered = incarnation->Recover(from_tid);
    if (recovered.ok()) return incarnation;
    if (!middleware::RecoveryRetryable(recovered)) break;
    // Retryable (a donor fault, a buffer spill, no donor yet): a live
    // incarnation re-enters Recover() directly for a fresh attempt from
    // `from_tid` (its buffered delivery mode is still armed, and it
    // keeps its donor rotation and spill mark); a dead one is rebuilt at
    // the top of the loop.
  }
  if (incarnation != nullptr) {
    // The incarnation may have joined the group; detach it before the
    // object dies, or the delivery thread would keep invoking a
    // dangling listener on the next view change.
    incarnation->Crash();
  }
  return recovered;
}

Status Cluster::RestartReplica(size_t index) {
  middleware::SrcaRepReplica* old = nullptr;
  // The node outlives the restart and AddReplica's reallocation of
  // nodes_, so it is read once, under the lock, like the incarnation.
  ReplicaNode* node = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    if (index >= replicas_.size()) {
      return Status::InvalidArgument("no replica " + std::to_string(index));
    }
    old = replicas_[index].get();
    node = nodes_[index].get();
  }
  if (old->IsAlive()) {
    return Status::InvalidArgument("replica " + std::to_string(index) +
                                   " has not crashed");
  }
  const uint64_t from_tid = old->StableCommitPrefix();
  // The database "process" restarts: committed data survives, in-flight
  // transactions of the dead incarnation roll back implicitly.
  node->db()->engine().SimulateRestart();

  // Whole-group outage (under full replication, the whole cluster):
  // online recovery needs a live donor in the replica's group, and there
  // is none. Commits apply in delivery order and an acknowledgement
  // follows the delegate's local commit, so the group member holding the
  // longest stable prefix contains every acknowledged commit of the
  // group — it alone may cold-start as the group's new seed; everyone
  // else keeps failing with a retryable status until it is up, then
  // recovers from it.
  const size_t g = GroupOf(index);
  bool any_alive = false;
  uint64_t max_prefix = 0;
  {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (GroupOf(i) != g) continue;
      if (replicas_[i]->IsAlive()) any_alive = true;
      max_prefix = std::max(max_prefix, replicas_[i]->StableCommitPrefix());
    }
  }
  if (!any_alive && from_tid >= max_prefix) {
    middleware::ReplicaOptions ropt = options_.replica;
    ropt.start_recovering = false;
    ropt.partition_slot = index;
    ropt.bootstrap_prefix = from_tid;  // 0 (nothing ever committed) is
                                       // simply a normal live start
    auto seed = std::make_unique<middleware::SrcaRepReplica>(
        node->db(), &group(g), ropt);
    Status started = seed->Start();
    if (!started.ok()) {
      seed->Crash();
      return started;
    }
    Replace(index, std::move(seed));
    return Status::OK();
  }
  if (!any_alive) {
    return Status::Unavailable(
        "every replica of replica " + std::to_string(index) +
        "'s group is down and it does not hold the group's longest stable "
        "prefix; cold-start the longest-prefix replica first");
  }

  auto incarnation = RecoverIncarnation(node->db(), from_tid, index);
  if (!incarnation.ok()) return incarnation.status();
  Replace(index, std::move(incarnation.value()));
  return Status::OK();
}

void Cluster::Replace(size_t index,
                      std::unique_ptr<middleware::SrcaRepReplica> next) {
  middleware::SrcaRepReplica* old = nullptr;
  {
    // Park (don't destroy) the dead incarnation: clients may still hold
    // raw pointers to it mid-failover.
    std::unique_lock<std::shared_mutex> lock(replicas_mu_);
    old = replicas_[index].get();
    retired_.push_back(std::move(replicas_[index]));
    replicas_[index] = std::move(next);
  }
  // Its applier threads exit now instead of idling until the cluster
  // dies (outside replicas_mu_: the join may wait for an apply).
  old->Shutdown();
}

Result<size_t> Cluster::AddReplica(
    const std::function<Status(engine::Database*)>& schema_loader) {
  // Like a cross-group transaction, a replica outside the partition
  // layout has no holder group to join.
  if (partition_map_ != nullptr && partition_map_->partial()) {
    return Status::InvalidArgument(
        "AddReplica is not supported under partial replication");
  }
  const size_t slot = size();
  auto node = std::make_unique<ReplicaNode>(
      "replica" + std::to_string(slot), options_.workers_per_replica,
      options_.cost);
  SIREP_RETURN_IF_ERROR(schema_loader(node->db()));
  // Re-attempts reuse the same database: recovery replay is idempotent,
  // so data a failed attempt already imported is simply overwritten.
  auto replica = RecoverIncarnation(node->db(), /*from_tid=*/0, slot);
  if (!replica.ok()) return replica.status();
  std::unique_lock<std::shared_mutex> lock(replicas_mu_);
  nodes_.push_back(std::move(node));
  replicas_.push_back(std::move(replica.value()));
  return nodes_.size() - 1;
}

size_t Cluster::VacuumAll() {
  size_t freed = 0;
  for (auto& node : nodes_) freed += node->db()->engine().Vacuum();
  return freed;
}

obs::MetricsSnapshot Cluster::DumpMetrics() const {
  obs::MetricsSnapshot merged;
  for (const auto& group : groups_) merged.Merge(group->metrics().Snapshot());
  std::shared_lock<std::shared_mutex> lock(replicas_mu_);
  for (const auto& replica : replicas_) {
    merged.Merge(replica->metrics().Snapshot());
  }
  for (const auto& node : nodes_) {
    merged.Merge(node->db()->engine().metrics().Snapshot());
  }
  return merged;
}

std::string Cluster::FormatCommitBreakdown(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "commit-path stage breakdown (us)\n";
  os << "  " << std::left << std::setw(20) << "stage" << std::right
     << std::setw(10) << "count" << std::setw(12) << "mean"
     << std::setw(12) << "p50" << std::setw(12) << "p95"
     << std::setw(12) << "p99" << "\n";
  os << std::fixed << std::setprecision(1);
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (i == obs::kFirstCrossReplicaStage) {
      os << "  -- cross-replica (measured against the origin's multicast "
            "stamp) --\n";
    }
    const auto stage = static_cast<obs::Stage>(i);
    const auto it = snap.histograms.find(obs::StageMetricName(stage));
    if (it == snap.histograms.end()) continue;
    const auto p = it->second.SummaryPercentiles();
    os << "  " << std::left << std::setw(20) << obs::StageName(stage)
       << std::right << std::setw(10) << p.count << std::setw(12) << p.mean
       << std::setw(12) << p.p50 << std::setw(12) << p.p95 << std::setw(12)
       << p.p99 << "\n";
  }
  return os.str();
}

std::string Cluster::DumpFlightRecorders() const {
  std::ostringstream os;
  {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      os << "## replica " << i << " (member "
         << replicas_[i]->member_id() << ")\n"
         << replicas_[i]->flight_recorder().DumpText();
    }
  }
  os << "## process-global\n" << obs::FlightRecorder::Global().DumpText();
  return os.str();
}

Status Cluster::StartMetricsEndpoints() {
  if (!metrics_servers_.empty()) return Status::OK();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    auto server = std::make_unique<middleware::MetricsHttpServer>();
    server->AddEndpoint(
        "/metrics", "text/plain; version=0.0.4", [this, i] {
          return replica(i)->metrics().PrometheusText();
        });
    server->AddEndpoint("/metrics.json", "application/json", [this, i] {
      return replica(i)->metrics().SnapshotJson();
    });
    server->AddEndpoint("/healthz", "application/json", [this, i] {
      return replica(i)->HealthJson();
    });
    server->AddEndpoint("/profile", "application/json", [] {
      return obs::Profiler::Global().SnapshotJson();
    });
    server->AddEndpoint("/flightrecorder", "text/plain", [this, i] {
      return replica(i)->flight_recorder().DumpText();
    });
    server->AddEndpoint(
        "/cluster/metrics", "text/plain; version=0.0.4",
        [this] { return DumpMetrics().ToPrometheusText(); });
    SIREP_RETURN_IF_ERROR(server->Start());
    metrics_servers_.push_back(std::move(server));
  }
  return Status::OK();
}

std::vector<uint16_t> Cluster::MetricsPorts() const {
  std::vector<uint16_t> ports;
  ports.reserve(metrics_servers_.size());
  for (const auto& server : metrics_servers_) {
    ports.push_back(server->port());
  }
  return ports;
}

void Cluster::StopMetricsEndpoints() {
  for (auto& server : metrics_servers_) server->Stop();
  metrics_servers_.clear();
}

void Cluster::Quiesce() {
  for (auto& group : groups_) group->WaitForQuiescence();
  // Then wait for every live replica's tocommit queue to drain (remote
  // applies are asynchronous after delivery). The group is quiescent, so
  // no new deliveries can refill a queue once it empties — waiting on
  // each replica in turn is exact, and the condition-variable wait
  // replaces the old 1 ms poll loop. Pointers are collected under the
  // lock but waited on outside it: replicas_mu_ must stay available to
  // discovery while we block.
  std::vector<middleware::SrcaRepReplica*> replicas;
  {
    std::shared_lock<std::shared_mutex> lock(replicas_mu_);
    replicas.reserve(replicas_.size());
    for (auto& replica : replicas_) replicas.push_back(replica.get());
  }
  for (auto* replica : replicas) replica->WaitForQueueDrain();
}

}  // namespace sirep::cluster
