// Native end-to-end benchmark of the SI-Rep stack.
//
// One process runs one workload: it builds an in-process cluster through
// the public cluster::Cluster API (cost model off, in-process GCS, no
// WAL, default ReplicaOptions), loads it, drives closed-loop clients
// through client::Driver connections for a warm-up and a measured
// window, quiesces, and checks the replicas' contents against what the
// clients committed. It prints one "config" line and one "result" line
// (JSON) on stdout; perfbench/run.py runs several such processes and
// reports medians. See perfbench/README.md.
//
// With --trace 1 the process also reports per-layer numbers, measured
// from outside the program: spans around the benchmark's own calls into
// client::Connection, the registries Cluster::DumpMetrics() merges (read
// once before and once after the window, never during it), getrusage,
// and standalone replays of the same seeded stream through
// engine::Session and sql::Parse after the cluster is torn down.
//
// Exit codes: 0 ok, 2 usage or refused environment, 3 correctness
// check failed (the result line is still printed, with "correct":
// false), 4 set-up failed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "cluster/cluster.h"
#include "cluster/partition_map.h"
#include "engine/database.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "workload/simple_workloads.h"
#include "workload/tpcw.h"

#ifndef SIREP_PERF_BUILD_TYPE
#define SIREP_PERF_BUILD_TYPE "unknown"
#endif

extern char** environ;

using namespace sirep;

namespace {

using Clock = std::chrono::steady_clock;
using sql::Value;
using workload::TxnInstance;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Seed of one client's transaction stream, shared by the cluster run and
/// the standalone replays so both see the same transactions.
uint64_t ClientSeed(uint64_t seed, size_t client) {
  return seed * 0x9e3779b97f4a7c15ull + client + 1;
}

/// Linear-interpolated percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ tallies

/// What one client's committed transactions did, warm-up included: the
/// ground truth the post-run invariants compare the replicas against.
struct Tally {
  int64_t increments = 0;  ///< committed "v = v + 1" statements
  int64_t orders = 0;      ///< committed inserts into orders
  int64_t order_lines = 0;  ///< committed inserts into order_line

  void Add(const TxnInstance& txn) {
    for (const auto& [sql, params] : txn.statements) {
      if (sql.find("SET v = v + 1") != std::string::npos) ++increments;
      if (sql.rfind("INSERT INTO orders ", 0) == 0) ++orders;
      if (sql.rfind("INSERT INTO order_line ", 0) == 0) ++order_lines;
    }
  }
};

// ---------------------------------------------------- replica contents

Result<std::vector<sql::Row>> Scan(engine::Database* db,
                                   const std::string& columns,
                                   const std::string& table) {
  auto r = db->ExecuteAutoCommit("SELECT " + columns + " FROM " + table);
  if (!r.ok()) return r.status();
  return std::move(r.value().rows);
}

struct TableSum {
  uint64_t rows = 0;
  uint64_t checksum = 0;  ///< order-independent: sum of row hashes
  bool operator==(const TableSum&) const = default;
};

Result<std::map<std::string, TableSum>> Checksums(engine::Database* db) {
  std::map<std::string, TableSum> sums;
  for (const std::string& table : db->engine().TableNames()) {
    auto rows = Scan(db, "*", table);
    if (!rows.ok()) return rows.status();
    TableSum& sum = sums[table];
    for (const sql::Row& row : rows.value()) {
      ++sum.rows;
      sum.checksum += Fnv1a(sql::RowToString(row));
    }
  }
  return sums;
}

/// Empty when every replica holds identical per-table checksums.
std::string CheckIdentical(cluster::Cluster& cluster) {
  auto reference = Checksums(cluster.db(0));
  if (!reference.ok()) return "scan failed: " + reference.status().ToString();
  for (size_t r = 1; r < cluster.size(); ++r) {
    auto sums = Checksums(cluster.db(r));
    if (!sums.ok()) return "scan failed: " + sums.status().ToString();
    for (const auto& [table, sum] : reference.value()) {
      const auto it = sums.value().find(table);
      if (it == sums.value().end() || !(it->second == sum)) {
        return "replica " + std::to_string(r) + " table " + table +
               " checksum differs from replica 0";
      }
    }
  }
  return "";
}

/// Sum of column v over `table` at `db`, or -1 if the scan fails.
int64_t SumV(engine::Database* db, const std::string& table) {
  auto rows = Scan(db, "v", table);
  if (!rows.ok()) return -1;
  int64_t sum = 0;
  for (const sql::Row& row : rows.value()) sum += row[0].AsInt();
  return sum;
}

// ------------------------------------------------------------ workloads

/// One benchmark workload: the deployment it runs on, how each replica
/// is loaded, each client's transaction stream, and the invariants the
/// quiesced replicas must satisfy.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  virtual size_t replicas() const = 0;
  virtual size_t clients() const = 0;
  virtual size_t partitions() const { return 0; }
  virtual size_t replication_factor() const { return 0; }

  virtual Status Load(engine::Database* db) = 0;
  /// Next transaction of `client`'s stream, drawn from that client's
  /// `prng`. Thread-safe across clients.
  virtual TxnInstance Next(size_t client, Prng& prng) = 0;
  /// Empty when the quiesced cluster matches what the clients
  /// committed (`tallies[c]` is client c's), else what is wrong.
  virtual std::string Check(cluster::Cluster& cluster,
                            const std::vector<Tally>& tallies) = 0;
  /// A statement that changes one row; run at replica 1 only, the
  /// checks must catch it.
  virtual std::string CorruptSql() const = 0;
};

int64_t CountRows(engine::Database* db, const std::string& table) {
  auto rows = Scan(db, "*", table);
  return rows.ok() ? static_cast<int64_t>(rows.value().size()) : -1;
}

/// TPC-W ordering mix (paper §6.1) at default options, full replication.
class TpcwBench : public BenchWorkload {
 public:
  size_t replicas() const override { return 3; }
  size_t clients() const override { return 2; }

  Status Load(engine::Database* db) override {
    SIREP_RETURN_IF_ERROR(gen_.Load(db));
    initial_orders_ = CountRows(db, "orders");
    initial_order_lines_ = CountRows(db, "order_line");
    return Status::OK();
  }
  TxnInstance Next(size_t, Prng& prng) override { return gen_.Next(prng); }

  std::string Check(cluster::Cluster& cluster,
                    const std::vector<Tally>& tallies) override {
    Tally total;
    for (const Tally& t : tallies) {
      total.orders += t.orders;
      total.order_lines += t.order_lines;
    }
    for (size_t r = 0; r < cluster.size(); ++r) {
      const int64_t orders = CountRows(cluster.db(r), "orders");
      const int64_t lines = CountRows(cluster.db(r), "order_line");
      if (orders != initial_orders_ + total.orders ||
          lines != initial_order_lines_ + total.order_lines) {
        return "replica " + std::to_string(r) + " holds " +
               std::to_string(orders) + " orders / " + std::to_string(lines) +
               " order lines, expected " +
               std::to_string(initial_orders_ + total.orders) + " / " +
               std::to_string(initial_order_lines_ + total.order_lines);
      }
    }
    return CheckIdentical(cluster);
  }
  std::string CorruptSql() const override {
    return "UPDATE item SET i_stock = i_stock + 1 WHERE i_id = 1";
  }

 private:
  workload::TpcwWorkload gen_;
  int64_t initial_orders_ = 0;
  int64_t initial_order_lines_ = 0;
};

/// One in kReadEvery transactions of the write-only workloads is a
/// single-row read, so read latency is measured on every workload.
constexpr uint64_t kReadEvery = 10;

/// Paper Fig. 7 stress (10 updates over 3 of 10 tables per transaction),
/// resized to 10,000 rows per table so rows far outnumber clients.
class UpdateIntensiveBench : public BenchWorkload {
 public:
  static constexpr int64_t kTables = 10;
  static constexpr int64_t kRows = 10000;

  UpdateIntensiveBench() : gen_(Options()) {}

  size_t replicas() const override { return 3; }
  size_t clients() const override { return 2; }

  Status Load(engine::Database* db) override { return gen_.Load(db); }
  TxnInstance Next(size_t, Prng& prng) override {
    if (prng.Uniform(kReadEvery) != 0) return gen_.Next(prng);
    TxnInstance txn;
    txn.read_only = true;
    const auto table = "ut" + std::to_string(prng.Uniform(kTables));
    txn.tables = {table};
    txn.statements = {
        {"SELECT v FROM " + table + " WHERE k = ?",
         {Value::Int(static_cast<int64_t>(prng.Uniform(kRows)))}}};
    return txn;
  }

  std::string Check(cluster::Cluster& cluster,
                    const std::vector<Tally>& tallies) override {
    int64_t expected = 0;
    for (const Tally& t : tallies) expected += t.increments;
    for (size_t r = 0; r < cluster.size(); ++r) {
      int64_t sum = 0;
      for (int64_t t = 0; t < kTables; ++t) {
        sum += SumV(cluster.db(r), "ut" + std::to_string(t));
      }
      if (sum != expected) {
        return "replica " + std::to_string(r) + " sum(v) = " +
               std::to_string(sum) + ", expected " + std::to_string(expected);
      }
    }
    return CheckIdentical(cluster);
  }
  std::string CorruptSql() const override {
    return "UPDATE ut0 SET v = v + 1 WHERE k = 0";
  }

 private:
  static workload::UpdateIntensiveWorkload::Options Options() {
    workload::UpdateIntensiveWorkload::Options o;
    o.num_tables = kTables;
    o.rows_per_table = kRows;
    return o;
  }

  workload::UpdateIntensiveWorkload gen_;
};

/// Partial replication at rf=1: 4 replicas, 16 partitions, client c
/// pinned to replica c and writing single rows of keys replica c holds.
class PartialRf1Bench : public BenchWorkload {
 public:
  static constexpr size_t kReplicas = 4;
  static constexpr size_t kPartitions = 16;
  static constexpr int64_t kKeys = 40000;

  PartialRf1Bench() : map_(kReplicas, kPartitions, 1), pools_(kReplicas) {
    for (int64_t k = 0; k < kKeys; ++k) {
      pools_[HolderOf(k)].push_back(k);
    }
  }

  size_t replicas() const override { return kReplicas; }
  size_t clients() const override { return kReplicas; }
  size_t partitions() const override { return kPartitions; }
  size_t replication_factor() const override { return 1; }

  Status Load(engine::Database* db) override {
    auto r = db->ExecuteAutoCommit(
        "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))");
    if (!r.ok()) return r.status();
    auto txn = db->Begin();
    for (int64_t k = 0; k < kKeys; ++k) {
      auto res = db->Execute(txn, "INSERT INTO kv VALUES (?, 0)",
                             {Value::Int(k)});
      if (!res.ok()) {
        db->Abort(txn);
        return res.status();
      }
    }
    return db->Commit(txn);
  }

  TxnInstance Next(size_t client, Prng& prng) override {
    const auto& pool = pools_[client % kReplicas];
    const bool read = prng.Uniform(kReadEvery) == 0;
    const int64_t k = pool[prng.Uniform(pool.size())];
    TxnInstance txn;
    txn.read_only = read;
    txn.tables = {"kv"};
    txn.statements = {{read ? "SELECT v FROM kv WHERE k = ?"
                            : "UPDATE kv SET v = v + 1 WHERE k = ?",
                       {Value::Int(k)}}};
    return txn;
  }

  std::string Check(cluster::Cluster& cluster,
                    const std::vector<Tally>& tallies) override {
    for (size_t r = 0; r < cluster.size(); ++r) {
      auto rows = Scan(cluster.db(r), "k, v", "kv");
      if (!rows.ok()) return "scan failed: " + rows.status().ToString();
      if (static_cast<int64_t>(rows.value().size()) != kKeys) {
        return "replica " + std::to_string(r) + " holds " +
               std::to_string(rows.value().size()) + " kv rows";
      }
      int64_t held_sum = 0;
      for (const sql::Row& row : rows.value()) {
        const int64_t v = row[1].AsInt();
        if (HolderOf(row[0].AsInt()) == r) {
          held_sum += v;
        } else if (v != 0) {
          return "replica " + std::to_string(r) + " changed non-held key " +
                 row[0].ToString();
        }
      }
      if (held_sum != tallies[r].increments) {
        return "replica " + std::to_string(r) + " sum(v) over held keys = " +
               std::to_string(held_sum) + ", expected " +
               std::to_string(tallies[r].increments);
      }
    }
    return "";
  }
  std::string CorruptSql() const override {
    return "UPDATE kv SET v = v + 1 WHERE k = " +
           std::to_string(pools_[0].front());
  }

 private:
  size_t HolderOf(int64_t k) const {
    storage::TupleId tuple;
    tuple.table = "kv";
    tuple.key.parts.push_back(Value::Int(k));
    const size_t partition = map_.PartitionOf(tuple);
    for (size_t slot = 0; slot < kReplicas; ++slot) {
      if (map_.Holds(slot, partition)) return slot;
    }
    return 0;
  }

  /// Same layout as the cluster's own map (4 slots, 16 partitions, rf 1).
  cluster::PartitionMap map_;
  std::vector<std::vector<int64_t>> pools_;  ///< keys each replica holds
};

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name) {
  if (name == "tpcw") return std::make_unique<TpcwBench>();
  if (name == "update_intensive") {
    return std::make_unique<UpdateIntensiveBench>();
  }
  if (name == "partial_rf1") return std::make_unique<PartialRf1Bench>();
  return nullptr;
}

// -------------------------------------------------------------- clients

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// A logical transaction is retried on abort (conflict, deadlock, lost)
/// up to this many attempts before it counts as failed.
constexpr int kMaxAttempts = 100;
/// First retry delay; doubles per retry, up to 64x.
constexpr std::chrono::microseconds kRetryBackoff{50};

struct ClientState {
  size_t index = 0;
  std::unique_ptr<client::Connection> conn;
  Tally tally;

  // Measured window only: transactions whose outcome landed in it.
  std::vector<double> update_us;  ///< first statement -> commit ack
  std::vector<double> read_us;
  uint64_t attempted = 0;  ///< logical transactions finished
  uint64_t failed = 0;     ///< ... that never committed
  uint64_t attempts = 0;   ///< including retries
  uint64_t committed_attempts = 0;
  // Traced runs only: spans around Connection::Execute / Commit.
  std::vector<double> execute_us;
  std::vector<double> commit_us;
  double committed_span_us = 0;  ///< spans of attempts that committed

  std::string first_error;
};

/// Client spans of one attempt (traced runs).
struct AttemptSpans {
  std::vector<double> execute_us;
  double commit_us = -1;  ///< < 0: the attempt never reached Commit()
};

/// One attempt of `txn` on `c`'s connection; `spans` is null when
/// untraced.
Status RunAttempt(ClientState& c, const TxnInstance& txn,
                  AttemptSpans* spans) {
  for (const auto& [sql, params] : txn.statements) {
    const auto t0 = spans != nullptr ? Clock::now() : Clock::time_point{};
    auto result = c.conn->Execute(sql, params);
    if (spans != nullptr) {
      spans->execute_us.push_back(Micros(Clock::now() - t0));
    }
    if (!result.ok()) {
      c.conn->Rollback();
      return result.status();
    }
  }
  const auto t0 = spans != nullptr ? Clock::now() : Clock::time_point{};
  Status st = c.conn->Commit();
  if (spans != nullptr) spans->commit_us = Micros(Clock::now() - t0);
  return st;
}

void RunClient(ClientState& c, BenchWorkload& wl, uint64_t seed,
               const std::atomic<int>& phase, bool trace) {
  Prng prng(ClientSeed(seed, c.index));
  AttemptSpans spans;
  while (phase.load(std::memory_order_relaxed) != kStop) {
    const TxnInstance txn = wl.Next(c.index, prng);
    const auto start = Clock::now();
    bool committed = false;
    bool gave_up = false;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      spans.execute_us.clear();
      spans.commit_us = -1;
      const Status st = RunAttempt(c, txn, trace ? &spans : nullptr);
      const bool measured =
          phase.load(std::memory_order_relaxed) == kMeasure;
      if (measured) {
        ++c.attempts;
        if (st.ok()) ++c.committed_attempts;
        c.execute_us.insert(c.execute_us.end(), spans.execute_us.begin(),
                            spans.execute_us.end());
        if (spans.commit_us >= 0) c.commit_us.push_back(spans.commit_us);
        if (trace && st.ok()) {
          c.committed_span_us += spans.commit_us;
          for (double s : spans.execute_us) c.committed_span_us += s;
        }
      }
      if (st.ok()) {
        committed = true;
        break;
      }
      if (!st.IsTransactionFailure()) {
        if (c.first_error.empty()) c.first_error = st.ToString();
        break;
      }
      if (phase.load(std::memory_order_relaxed) == kStop) {
        gave_up = true;  // abandoned at shutdown: neither ok nor failed
        break;
      }
      // Back off before retrying: local validation keeps failing while
      // the conflicting remote writeset is still queued, and immediate
      // retries once used up all 100 attempts of a tpcw transaction.
      std::this_thread::sleep_for(kRetryBackoff *
                                  (1 << std::min(attempt, 6)));
    }
    if (committed) c.tally.Add(txn);
    if (gave_up || phase.load(std::memory_order_relaxed) != kMeasure) {
      continue;
    }
    ++c.attempted;
    if (!committed) {
      ++c.failed;
      continue;
    }
    const double us = Micros(Clock::now() - start);
    (txn.read_only ? c.read_us : c.update_us).push_back(us);
  }
}

// ---------------------------------------------------- per-layer ledger

/// `after - before`, bucket-wise for histograms. min/max stay those of
/// `after`, which only loosens Quantile's clamp.
obs::MetricsSnapshot Delta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after) {
  obs::MetricsSnapshot d = after;
  for (auto& [name, value] : d.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= std::min(value, it->second);
  }
  for (auto& [name, h] : d.histograms) {
    const auto it = before.histograms.find(name);
    if (it == before.histograms.end() ||
        it->second.buckets.size() != h.buckets.size()) {
      continue;
    }
    h.count = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= std::min(h.buckets[i], it->second.buckets[i]);
      h.count += h.buckets[i];
    }
    h.sum = h.count == 0 ? 0 : std::max(0.0, h.sum - it->second.sum);
  }
  return d;
}

const obs::HistogramSnapshot& Hist(const obs::MetricsSnapshot& s,
                                   const std::string& name) {
  static const obs::HistogramSnapshot kEmpty;
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? kEmpty : it->second;
}

double Count(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : static_cast<double>(it->second);
}

using Metrics = std::map<std::string, double>;

/// The registry-derived part of the per-layer ledger over the window
/// delta `d`. `client_span_us` is the sum of client spans of attempts
/// that committed in the window.
void AddRegistryLayers(const obs::MetricsSnapshot& d, size_t replicas,
                       double client_span_us, Metrics* m) {
  auto quantiles = [&](const std::string& out, const std::string& hist) {
    (*m)[out + ".p50"] = Hist(d, hist).Quantile(0.50);
    (*m)[out + ".p99"] = Hist(d, hist).Quantile(0.99);
  };
  quantiles("mw.begin_wait_us", "mw.begin.hole_wait_us");
  for (const char* lock : {"holes", "tocommit", "wsindex"}) {
    const std::string name = std::string("mw.lock.") + lock + ".wait_us";
    (*m)[name + ".p99"] = Hist(d, name).Quantile(0.99);
  }
  using obs::Stage;
  using obs::StageMetricName;
  for (Stage s : {Stage::kExecute, Stage::kExtract, Stage::kLocalValidate,
                  Stage::kMulticast, Stage::kGlobalValidate, Stage::kCommit}) {
    quantiles(std::string("mw.stage.") + obs::StageName(s) + "_us",
              StageMetricName(s));
  }
  quantiles("mw.remote_apply_lag_us",
            StageMetricName(Stage::kRemoteApplyLag));
  quantiles("mw.snapshot_staleness_us",
            StageMetricName(Stage::kSnapshotStaleness));
  (*m)["mw.apply_parallelism.mean"] =
      Hist(d, StageMetricName(Stage::kApplyParallelism)).Mean();

  // Local transactions vs remote applies: every remote apply flushes one
  // apply span, so the local commits are the rest of mw.committed.
  const double remote_applies =
      static_cast<double>(Hist(d, StageMetricName(Stage::kApply)).count);
  const double local_commits = Count(d, "mw.committed") - remote_applies;
  const double read_only = Count(d, "mw.empty_ws_commits");
  const double local_updates = local_commits - read_only;
  const double val_aborts =
      Count(d, "mw.local_val_aborts") + Count(d, "mw.global_val_aborts");
  const double header = Count(d, "mw.partial.header_commits");
  const double certifications = header + remote_applies + local_updates +
                                Count(d, "mw.remote_discards") +
                                Count(d, "mw.global_val_aborts");
  (*m)["mw.header_only_share"] = Ratio(header, certifications);
  (*m)["mw.read_only_share"] = Ratio(read_only, local_commits);
  (*m)["mw.val_abort_ratio"] = Ratio(val_aborts, local_updates + val_aborts);
  (*m)["mw.apply_retries_per_txn"] =
      Ratio(Count(d, "mw.apply_retries"), remote_applies);

  quantiles("gcs.multicast_us", "gcs.multicast_us");
  quantiles("gcs.delivery_lag_us", "gcs.delivery_lag_us");
  (*m)["gcs.msgs_per_frame"] =
      Ratio(Count(d, "gcs.messages_delivered"),
            Count(d, "gcs.frames_sent") * static_cast<double>(replicas));

  quantiles("engine.stmt_us", "engine.stmt_us");
  (*m)["storage.lock_wait_us.p99"] =
      Hist(d, "storage.lock_wait_us").Quantile(0.99);
  (*m)["storage.ww_conflicts_per_txn"] =
      Ratio(Count(d, "storage.ww_conflicts"), local_commits);
  (*m)["storage.deadlocks"] = Count(d, "storage.deadlocks");
  (*m)["storage.version_chain_len.mean"] =
      Hist(d, "storage.version_chain_len").Mean();

  // Ledger: middleware stage time of the local transactions against the
  // client spans around them. execute/extract/local_validate/multicast
  // are recorded only for local transactions; global_validate and
  // commit also for remote ones, so their local part is prorated by
  // count (assumes equal local and remote means).
  double stage_us = 0;
  for (Stage s : {Stage::kExecute, Stage::kExtract, Stage::kLocalValidate,
                  Stage::kMulticast}) {
    stage_us += Hist(d, StageMetricName(s)).sum;
  }
  const auto& gv = Hist(d, StageMetricName(Stage::kGlobalValidate));
  stage_us += gv.sum * std::min(1.0, Ratio(local_updates,
                                           static_cast<double>(gv.count)));
  const auto& commit = Hist(d, StageMetricName(Stage::kCommit));
  stage_us += commit.sum * std::min(1.0, Ratio(local_commits,
                                               static_cast<double>(
                                                   commit.count)));
  (*m)["ledger.residual_share"] =
      Ratio(client_span_us - stage_us, client_span_us);
}

// ----------------------------------------------------------- replays

/// The centralized baseline and the parser alone, over the first
/// `count` transactions of the same seeded client streams (interleaved
/// round-robin), on one thread against one freshly loaded Database.
Status AddReplayLayers(const std::string& name, uint64_t seed, size_t count,
                       Metrics* m) {
  auto wl = MakeWorkload(name);
  engine::Database db("replay");
  SIREP_RETURN_IF_ERROR(wl->Load(&db));
  std::vector<Prng> prngs;
  for (size_t c = 0; c < wl->clients(); ++c) {
    prngs.emplace_back(ClientSeed(seed, c));
  }
  std::vector<TxnInstance> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t c = i % wl->clients();
    stream.push_back(wl->Next(c, prngs[c]));
  }

  engine::Session session(&db);
  session.SetAutoCommit(false);
  const auto t0 = Clock::now();
  for (const TxnInstance& txn : stream) {
    bool ok = true;
    for (const auto& [sql, params] : txn.statements) {
      if (!session.Execute(sql, params).ok()) {
        ok = false;
        break;
      }
    }
    if (ok) {
      session.Commit();
    } else {
      session.Rollback();
    }
  }
  (*m)["engine.replay_us_per_txn"] =
      Micros(Clock::now() - t0) /
      static_cast<double>(std::max<size_t>(count, 1));

  std::vector<double> parse_us;
  for (const TxnInstance& txn : stream) {
    for (const auto& [sql, params] : txn.statements) {
      const auto p0 = Clock::now();
      auto parsed = sql::Parse(sql);
      parse_us.push_back(Micros(Clock::now() - p0));
    }
    if (parse_us.size() >= 20000) break;
  }
  (*m)["sql.parse_us.p50"] = Percentile(parse_us, 0.5);
  return Status::OK();
}

// ------------------------------------------------------------- process

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

double TimevalUs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 +
         static_cast<double>(tv.tv_usec);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t window_ms = 2000;
  int64_t warmup_ms = 500;
  bool trace = false;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--window-ms") {
      args->window_ms = std::atoll(value);
    } else if (flag == "--warmup-ms") {
      args->warmup_ms = std::atoll(value);
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->window_ms > 0 &&
         args->warmup_ms >= 0;
}

std::string Json(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "\"" + name + "\": " + buf;
  }
  return out + "}";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

/// Constructs, starts and loads `wl`'s cluster into `*out`; returns the
/// seconds it took.
Result<double> SetUp(BenchWorkload& wl,
                     std::unique_ptr<cluster::Cluster>* out) {
  const auto start = Clock::now();
  cluster::ClusterOptions copt;
  copt.num_replicas = wl.replicas();
  copt.gcs.transport = gcs::TransportKind::kInProcess;
  copt.partitions = wl.partitions();
  copt.replication_factor = wl.replication_factor();
  *out = std::make_unique<cluster::Cluster>(copt);
  SIREP_RETURN_IF_ERROR((*out)->Start());
  SIREP_RETURN_IF_ERROR((*out)->LoadEverywhere(
      [&](engine::Database* db) { return wl.Load(db); }));
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sirep_perf --workload tpcw|update_intensive|"
                 "partial_rf1 [--seed N] [--window-ms MS] [--warmup-ms MS] "
                 "[--trace 0|1] [--corrupt]\n");
    return 2;
  }
  // The benchmark measures the defaults: any SIREP_* override would
  // silently change what is measured.
  std::string overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SIREP_", 6) == 0) {
      overrides += std::string(*e, std::strcspn(*e, "=")) + " ";
    }
  }
  if (!overrides.empty()) {
    std::fprintf(stderr, "refusing to run: %sset in the environment\n",
                 overrides.c_str());
    return 2;
  }
  std::unique_ptr<BenchWorkload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // ---- set-up: construct, start, load ----
  std::unique_ptr<cluster::Cluster> cluster;
  const Result<double> setup = SetUp(*wl, &cluster);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 4;
  }
  const double setup_s = setup.value();

  std::printf(
      "config {\"workload\": \"%s\", \"seed\": %llu, \"replicas\": %zu, "
      "\"clients\": %zu, \"applier_threads\": %zu, \"partitions\": %zu, "
      "\"replication_factor\": %zu, \"transport\": \"inproc\", "
      "\"wal\": \"off (flush policy: none)\", \"cost_model\": \"off\", "
      "\"build_type\": \"%s\", \"nproc\": %u, \"window_ms\": %lld, "
      "\"warmup_ms\": %lld, \"trace\": %d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      wl->replicas(), wl->clients(),
      cluster->replica(0)->options().applier_threads, wl->partitions(),
      wl->replication_factor(), SIREP_PERF_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      static_cast<long long>(args.window_ms),
      static_cast<long long>(args.warmup_ms), args.trace ? 1 : 0);
  std::fflush(stdout);

  // ---- clients, warm-up, window ----
  std::vector<ClientState> clients(wl->clients());
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c].index = c;
    client::ConnectionOptions opt;
    opt.seed = ClientSeed(args.seed, c);
    opt.pinned_replica =
        static_cast<int>(cluster->replica(c % wl->replicas())->member_id());
    auto conn = cluster->Connect(opt);
    if (!conn.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   conn.status().ToString().c_str());
      return 4;
    }
    clients[c].conn = std::move(conn).value();
    clients[c].conn->SetAutoCommit(false);
  }
  std::atomic<int> phase{kWarmup};
  std::vector<std::thread> threads;
  for (ClientState& c : clients) {
    threads.emplace_back([&, state = &c] {
      RunClient(*state, *wl, args.seed, phase, args.trace);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(args.warmup_ms));
  obs::MetricsSnapshot before;
  if (args.trace) before = cluster->DumpMetrics();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto window_start = Clock::now();
  phase.store(kMeasure, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(args.window_ms));
  phase.store(kStop, std::memory_order_relaxed);
  const double window_s =
      std::chrono::duration<double>(Clock::now() - window_start).count();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  const int thread_count = ThreadCount();
  obs::MetricsSnapshot after;
  if (args.trace) after = cluster->DumpMetrics();
  for (auto& t : threads) t.join();

  const auto quiesce_start = Clock::now();
  cluster->Quiesce();
  const double catchup_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - quiesce_start)
          .count();

  // ---- correctness ----
  if (args.corrupt) {
    auto r = cluster->db(1)->ExecuteAutoCommit(wl->CorruptSql());
    if (!r.ok()) {
      std::fprintf(stderr, "corruption failed: %s\n",
                   r.status().ToString().c_str());
      return 4;
    }
  }
  std::vector<Tally> tallies;
  for (const ClientState& c : clients) tallies.push_back(c.tally);
  const std::string mismatch = wl->Check(*cluster, tallies);

  // ---- end-to-end metrics ----
  std::vector<double> update_us, read_us, execute_us, commit_us;
  uint64_t attempted = 0, failed = 0, attempts = 0, committed_attempts = 0;
  uint64_t failovers = 0;
  double client_span_us = 0;
  for (ClientState& c : clients) {
    update_us.insert(update_us.end(), c.update_us.begin(), c.update_us.end());
    read_us.insert(read_us.end(), c.read_us.begin(), c.read_us.end());
    execute_us.insert(execute_us.end(), c.execute_us.begin(),
                      c.execute_us.end());
    commit_us.insert(commit_us.end(), c.commit_us.begin(), c.commit_us.end());
    attempted += c.attempted;
    failed += c.failed;
    attempts += c.attempts;
    committed_attempts += c.committed_attempts;
    client_span_us += c.committed_span_us;
    failovers += c.conn->failover_count();
    if (!c.first_error.empty()) {
      std::fprintf(stderr, "client %zu error: %s\n", c.index,
                   c.first_error.c_str());
    }
  }
  const double committed =
      static_cast<double>(update_us.size() + read_us.size());
  const double cpu_us = TimevalUs(ru1.ru_utime) - TimevalUs(ru0.ru_utime) +
                        TimevalUs(ru1.ru_stime) - TimevalUs(ru0.ru_stime);
  Metrics m;
  m["tps"] = committed / window_s;
  m["client.update_samples"] = static_cast<double>(update_us.size());
  m["client.read_samples"] = static_cast<double>(read_us.size());
  m["update_p50_us"] = Percentile(update_us, 0.50);
  m["client.update_p95_us"] = Percentile(update_us, 0.95);
  m["client.update_p99_us"] = Percentile(update_us, 0.99);
  m["client.read_p50_us"] = Percentile(read_us, 0.50);
  m["read_p99_us"] = Percentile(read_us, 0.99);
  m["cpu_us_per_txn"] = Ratio(cpu_us, committed);
  m["commit_ratio"] = Ratio(static_cast<double>(committed_attempts),
                            static_cast<double>(attempts));
  m["setup_s"] = setup_s;

  // ---- per-layer metrics (traced runs) ----
  if (args.trace) {
    m["client.execute_us.p50"] = Percentile(execute_us, 0.50);
    m["client.execute_us.p99"] = Percentile(execute_us, 0.99);
    m["client.commit_us.p50"] = Percentile(commit_us, 0.50);
    m["client.commit_us.p99"] = Percentile(commit_us, 0.99);
    m["client.failovers"] = static_cast<double>(failovers);
    m["mw.catchup_ms"] = catchup_ms;
    AddRegistryLayers(Delta(before, after), wl->replicas(), client_span_us,
                      &m);
    const double sys_us =
        TimevalUs(ru1.ru_stime) - TimevalUs(ru0.ru_stime);
    m["proc.sys_cpu_share"] = Ratio(sys_us, cpu_us);
    m["proc.ctx_switches_per_txn"] = Ratio(
        static_cast<double>((ru1.ru_nvcsw - ru0.ru_nvcsw) +
                            (ru1.ru_nivcsw - ru0.ru_nivcsw)),
        committed);
    m["proc.threads"] = thread_count;
  }

  clients.clear();
  cluster.reset();
  if (args.trace) {
    const Status st = AddReplayLayers(
        args.workload, args.seed,
        std::min<size_t>(static_cast<size_t>(committed), 100000), &m);
    if (!st.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
      return 4;
    }
  }

  std::printf(
      "result {\"correct\": %s, \"check\": \"%s\", \"attempted\": %llu, "
      "\"failed\": %llu, \"metrics\": %s}\n",
      mismatch.empty() ? "true" : "false", Escape(mismatch).c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Json(m).c_str());
  std::fflush(stdout);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "correctness check failed: %s\n", mismatch.c_str());
    return 3;
  }
  return 0;
}
