#ifndef SIREP_CLIENT_DRIVER_H_
#define SIREP_CLIENT_DRIVER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "middleware/replica_mw.h"

namespace sirep::client {

/// How the driver finds middleware replicas — the in-process stand-in for
/// the paper's IP-multicast discovery (§5.4: "the SI-Rep JDBC driver
/// multicasts a discovery message... replicas that are able to handle
/// additional workload respond"). cluster::Cluster implements this.
class ReplicaDirectory {
 public:
  virtual ~ReplicaDirectory() = default;

  /// Live replicas currently accepting connections.
  virtual std::vector<middleware::SrcaRepReplica*> Discover() = 0;
};

struct ConnectionOptions {
  bool autocommit = true;
  /// Seed for the uniform choice among the replicas discovery returns
  /// (reproducible tests).
  uint64_t seed = 1;
  /// If >= 0, prefer this member id while it is alive (tests / sticky
  /// routing); fail-over still moves to a survivor of its group when it
  /// crashes.
  int pinned_replica = -1;
  /// Discovery/fail-over deadline: ConnectToReplica retries discovery
  /// with exponential backoff (1 ms, doubling, capped at 100 ms) until a
  /// live replica answers or this budget runs out (a restarting cluster
  /// costs latency, not an immediate kUnavailable). Zero disables
  /// retries (single attempt).
  std::chrono::milliseconds connect_deadline{2000};
};

/// A JDBC-like connection. The replication middleware is completely
/// transparent: the application executes SQL and commits; fail-over,
/// discovery, and in-doubt resolution happen underneath (paper §5.4).
///
/// Transaction semantics mirror JDBC: with autocommit on, each statement
/// is its own transaction; with autocommit off, the first statement after
/// a commit/rollback implicitly starts one. BEGIN/COMMIT/ROLLBACK
/// statements are also accepted. A statement that fails rolls back the
/// transaction it implicitly started.
///
/// The first replica a connection reaches fixes its group (the replica's
/// gcs::Group: the whole cluster under full replication, one holder
/// group under partial replication); fail-over and every inquiry stay
/// inside it.
///
/// Error contract on replica crash:
///  * no transaction active: fail-over is fully transparent;
///  * mid-transaction (commit not yet requested): kTransactionLost — the
///    transaction never left its replica; restart it;
///  * crash during Commit(): the driver inquires at the other replicas of
///    the group and returns the true outcome — OK if the writeset
///    survived (uniform delivery), kTransactionLost if it never entered
///    the total order, and kUnavailable ("outcome unknown") when no
///    replica of the group can tell — all down, or only incarnations that
///    never saw the crashed replica. The transaction may then have
///    committed or not.
class Connection {
 public:
  Connection(ReplicaDirectory* directory, ConnectionOptions options);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Executes one SQL statement (handles BEGIN/COMMIT/ROLLBACK too).
  Result<engine::QueryResult> Execute(
      const std::string& sql, const std::vector<sql::Value>& params = {});

  Status Commit();
  Status Rollback();

  void SetAutoCommit(bool autocommit) { autocommit_ = autocommit; }
  bool autocommit() const { return autocommit_; }
  bool in_transaction() const { return txn_.valid(); }

  /// Resolves a replica if none is connected yet (discovery). Called by
  /// Driver::Connect; safe to call any time.
  Status EnsureConnected();

  /// The replica currently serving this connection (introspection).
  middleware::SrcaRepReplica* replica() const { return replica_; }

  /// Number of transparent fail-overs performed so far.
  uint64_t failover_count() const { return failovers_; }

 private:
  /// (Re)connects to a live replica of this connection's group, other
  /// than the members in `exclude` (the first of which, if any, is the
  /// crashed replica), retrying discovery with bounded exponential
  /// backoff until options_.connect_deadline. After fail-over, waits
  /// until this client's last committed update transaction is visible
  /// at the new replica (session consistency / read-your-writes).
  /// The "client.connect" failpoint injects failed discovery attempts.
  Status ConnectToReplica(const std::vector<gcs::MemberId>& exclude);

  /// One discovery + selection attempt (no retries).
  Status TryConnect(const std::vector<gcs::MemberId>& exclude);

  /// ConnectToReplica away from the current replica after its crash.
  Status FailOver();

  /// Ensures a transaction is open (JDBC implicit begin).
  Status EnsureTxn();

  /// Rolls back and forgets the open transaction, also at a crashed
  /// replica: its database keeps an open transaction's row locks until
  /// it restarts, and a statement waiting on one would block until then.
  void AbandonTxn();

  /// Commit with in-doubt resolution on crash.
  Status CommitInternal();

  ReplicaDirectory* const directory_;
  ConnectionOptions options_;
  Prng prng_;

  middleware::SrcaRepReplica* replica_ = nullptr;
  /// The group of the first replica this connection reached.
  const gcs::Group* group_ = nullptr;
  middleware::SrcaRepReplica::TxnHandle txn_;
  bool autocommit_;
  uint64_t failovers_ = 0;

  /// Last update transaction this client committed, for session
  /// consistency across fail-over.
  middleware::GlobalTxnId last_update_gid_;
};

/// Entry point, mirroring DriverManager.getConnection().
class Driver {
 public:
  explicit Driver(ReplicaDirectory* directory) : directory_(directory) {}

  Result<std::unique_ptr<Connection>> Connect(ConnectionOptions options = {});

 private:
  ReplicaDirectory* const directory_;
};

}  // namespace sirep::client

#endif  // SIREP_CLIENT_DRIVER_H_
