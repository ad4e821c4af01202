#include "client/driver.h"

#include <algorithm>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace sirep::client {

using middleware::SrcaRepReplica;
using middleware::TxnOutcome;

namespace {

/// First discovery retry backoff; doubles per attempt up to 100 ms.
constexpr std::chrono::milliseconds kConnectBackoff{1};

/// Driver-side fault/retry/failover counters, in the process-global
/// registry (connections are per-client and short-lived; a per-object
/// registry would fragment the numbers the chaos harness wants).
struct DriverCounters {
  obs::Counter* connect_retries;
  obs::Counter* failovers;
  obs::Counter* indoubt_resolutions;
  obs::Counter* indoubt_committed;
  obs::Counter* indoubt_unknown;
  obs::Counter* txn_lost;

  static DriverCounters& Get() {
    static DriverCounters* const c = [] {
      auto* r = &obs::MetricsRegistry::Default();
      return new DriverCounters{r->GetCounter("client.connect_retries"),
                                r->GetCounter("client.failovers"),
                                r->GetCounter("client.indoubt_resolutions"),
                                r->GetCounter("client.indoubt_committed"),
                                r->GetCounter("client.indoubt_unknown"),
                                r->GetCounter("client.txn_lost")};
    }();
    return *c;
  }
};

}  // namespace

Connection::Connection(ReplicaDirectory* directory, ConnectionOptions options)
    : directory_(directory),
      options_(options),
      prng_(options.seed),
      autocommit_(options.autocommit) {}

Connection::~Connection() { AbandonTxn(); }

void Connection::AbandonTxn() {
  if (txn_.valid() && replica_ != nullptr) replica_->RollbackTxn(txn_);
  txn_ = {};
}

Status Connection::ConnectToReplica(
    const std::vector<gcs::MemberId>& exclude) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.connect_deadline;
  auto backoff = kConnectBackoff;
  while (true) {
    Status st = Status::Unavailable("injected discovery failure");
    if (!failpoint::AnyArmed() ||
        failpoint::EvalStatus("client.connect").ok()) {
      st = TryConnect(exclude);
    }
    if (st.ok() || st.code() != StatusCode::kUnavailable) return st;
    // No live replica right now (all crashed/recovering, or an injected
    // discovery failure): retry with backoff until the deadline — in a
    // restarting cluster "nobody home yet" is usually transient.
    if (options_.connect_deadline.count() <= 0 ||
        std::chrono::steady_clock::now() + backoff >= deadline) {
      return st;
    }
    DriverCounters::Get().connect_retries->Increment();
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
  }
}

Status Connection::TryConnect(const std::vector<gcs::MemberId>& exclude) {
  auto replicas = directory_->Discover();
  std::vector<SrcaRepReplica*> candidates;
  for (auto* r : replicas) {
    if (r == nullptr || !r->IsAlive()) continue;
    if (group_ != nullptr && r->group() != group_) continue;
    if (std::find(exclude.begin(), exclude.end(), r->member_id()) !=
        exclude.end()) {
      continue;
    }
    candidates.push_back(r);
  }
  if (options_.pinned_replica >= 0) {
    // The pin is a preference: honoured while that replica is alive,
    // overridden by fail-over when it is not.
    auto it = std::find_if(candidates.begin(), candidates.end(),
                           [&](SrcaRepReplica* r) {
                             return static_cast<int>(r->member_id()) ==
                                    options_.pinned_replica;
                           });
    if (it != candidates.end()) candidates = {*it};
  }
  if (candidates.empty()) {
    return Status::Unavailable("no live replica found");
  }
  SrcaRepReplica* const chosen = candidates[prng_.Uniform(candidates.size())];
  const bool is_failover = replica_ != nullptr && chosen != replica_;
  replica_ = chosen;
  if (group_ == nullptr) group_ = chosen->group();
  if (is_failover) {
    ++failovers_;
    DriverCounters::Get().failovers->Increment();
    // Session consistency: make sure our last committed update is already
    // applied at the new replica before running anything there.
    if (last_update_gid_.valid()) {
      replica_->InquireOutcome(
          last_update_gid_,
          exclude.empty() ? gcs::kInvalidMember : exclude.front());
    }
  }
  return Status::OK();
}

Status Connection::FailOver() {
  if (replica_ == nullptr) return ConnectToReplica({});
  return ConnectToReplica({replica_->member_id()});
}

Status Connection::EnsureTxn() {
  if (replica_ == nullptr || !replica_->IsAlive()) {
    const bool had_txn = txn_.valid();
    AbandonTxn();
    SIREP_RETURN_IF_ERROR(FailOver());
    if (had_txn) {
      // Paper §5.4 case 2: the transaction existed only at the crashed
      // replica; it is lost, but the connection survives.
      return Status::TransactionLost(
          "replica crashed mid-transaction; restart the transaction");
    }
  }
  if (txn_.valid()) return Status::OK();
  auto txn = replica_->BeginTxn();
  if (!txn.ok()) return txn.status();
  txn_ = std::move(txn).value();
  return Status::OK();
}

Result<engine::QueryResult> Connection::Execute(
    const std::string& sql, const std::vector<sql::Value>& params) {
  if (sql::IsTransactionControl(sql)) {
    // The connection runs these itself ("COMMIT x" still fails with the
    // parser's error). Every other statement goes to the replica
    // unparsed, where the prepared-statement cache parses it once.
    auto parsed = sql::Parse(sql);
    if (!parsed.ok()) return parsed.status();
    switch (parsed.value().kind) {
      case sql::StatementKind::kBegin: {
        if (txn_.valid()) {
          return Status::InvalidArgument("transaction already in progress");
        }
        SIREP_RETURN_IF_ERROR(EnsureTxn());
        return engine::QueryResult{};
      }
      case sql::StatementKind::kCommit:
        SIREP_RETURN_IF_ERROR(Commit());
        return engine::QueryResult{};
      case sql::StatementKind::kRollback:
        SIREP_RETURN_IF_ERROR(Rollback());
        return engine::QueryResult{};
      default:
        break;
    }
  }

  const bool had_txn_before = txn_.valid();
  Status st = EnsureTxn();
  if (!st.ok()) return st;
  auto result = replica_->Execute(txn_, sql, params);

  if (!result.ok() &&
      result.status().code() == StatusCode::kUnavailable &&
      !had_txn_before) {
    // The replica crashed under a brand-new transaction that has not
    // executed anything yet: retry transparently elsewhere (case 1).
    AbandonTxn();
    st = EnsureTxn();
    if (st.ok()) result = replica_->Execute(txn_, sql, params);
  }

  if (!result.ok()) {
    if (result.status().code() == StatusCode::kUnavailable) {
      // Crash mid-transaction: the transaction is lost (case 2). Keep the
      // connection usable by failing over now.
      AbandonTxn();
      Status reconnect = FailOver();
      if (!reconnect.ok()) return reconnect;
      return Status::TransactionLost(
          "replica crashed mid-transaction; restart the transaction");
    }
    if (result.status().IsTransactionFailure()) {
      // The DB aborted the transaction (conflict/deadlock); forget it.
      txn_ = {};
    } else if (!had_txn_before) {
      // A statement error (parse error, unknown table) in the transaction
      // this statement began: roll it back, or every later autocommit
      // statement would silently join it and never commit.
      (void)Rollback();
    }
    return result;
  }

  if (!had_txn_before && autocommit_) {
    SIREP_RETURN_IF_ERROR(Commit());
  }
  return result;
}

Status Connection::Commit() {
  if (!txn_.valid()) return Status::OK();
  return CommitInternal();
}

Status Connection::CommitInternal() {
  middleware::SrcaRepReplica::TxnHandle txn = std::move(txn_);
  txn_ = {};
  bool had_writes = false;
  Status st = replica_->CommitTxn(txn, &had_writes);
  if (st.ok()) {
    if (had_writes) last_update_gid_ = txn.gid;
    return st;
  }
  if (st.code() != StatusCode::kUnavailable) {
    return st;  // validation conflict etc.; transaction aborted
  }
  if (replica_->IsAlive()) {
    // kUnavailable from a replica that did NOT crash: the multicast was
    // dropped by a transient transport fault and the middleware aborted
    // the transaction locally. No in-doubt question to resolve — the
    // writeset never entered the total order. Report it lost; the
    // connection (and replica) stay usable.
    DriverCounters::Get().txn_lost->Increment();
    return Status::TransactionLost(
        "transient multicast failure during commit; transaction aborted");
  }

  // Crash during commit (paper §5.4 case 3): every crash exit of
  // CommitTxn comes before the local commit, so roll the transaction
  // back at the crashed replica, as its database's restart would; until
  // then it holds its row locks. Then resolve the in-doubt transaction
  // at the other replicas of the group, using the global transaction
  // id. Only the group's replicas ever see its writesets; ask each
  // until one can tell.
  replica_->RollbackTxn(txn);
  const gcs::MemberId crashed = replica_->member_id();
  std::vector<gcs::MemberId> asked = {crashed};
  SrcaRepReplica* undecided = nullptr;  // last replica that could not tell
  DriverCounters::Get().indoubt_resolutions->Increment();
  while (true) {
    replica_ = nullptr;
    if (!ConnectToReplica(asked).ok()) break;
    switch (replica_->InquireOutcome(txn.gid, crashed)) {
      case TxnOutcome::kCommitted:
        // 3b: the writeset survived (uniform reliable delivery) and the
        // transaction committed — fail-over is fully transparent.
        last_update_gid_ = txn.gid;
        DriverCounters::Get().indoubt_committed->Increment();
        return Status::OK();
      case TxnOutcome::kAborted:
      case TxnOutcome::kLost:
        // 3a: the writeset never made it out; same exception as a crash
        // before the commit request.
        DriverCounters::Get().txn_lost->Increment();
        return Status::TransactionLost(
            "replica crashed during commit; transaction did not commit");
      case TxnOutcome::kUnknown:
        undecided = replica_;
        asked.push_back(replica_->member_id());
        break;
    }
  }
  replica_ = undecided;
  DriverCounters::Get().indoubt_unknown->Increment();
  return Status::Unavailable(
      "replica crashed during commit of " + txn.gid.ToString() +
      " and no replica of its group can tell the outcome; it may or may "
      "not have committed");
}

Status Connection::Rollback() {
  AbandonTxn();
  return Status::OK();
}

Status Connection::EnsureConnected() {
  if (replica_ != nullptr && replica_->IsAlive()) return Status::OK();
  return FailOver();
}

Result<std::unique_ptr<Connection>> Driver::Connect(
    ConnectionOptions options) {
  auto conn = std::make_unique<Connection>(directory_, options);
  // Eagerly resolve a replica so connection errors surface here.
  SIREP_RETURN_IF_ERROR(conn->EnsureConnected());
  return conn;
}

}  // namespace sirep::client
