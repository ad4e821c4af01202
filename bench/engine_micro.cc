// Engine micro-benchmark: one engine::Database, no replication and no
// cost model, on the statements that set the engine's share of the
// native TPC-W costs:
//   * the TPC-W best-seller query (order_line JOIN item, GROUP BY,
//     ORDER BY sum DESC, LIMIT 50) at 1.2k, 4.2k and 8.2k order lines —
//     the TPC-W load seeds 1.2k, BuyConfirm keeps adding them, and a
//     15 s native tpcw window at about 12k tps ends near 8k;
//   * begin + point SELECT by primary key + commit;
//   * begin + point UPDATE + commit on a row whose version chain is
//     already 1,024 versions long (no vacuum runs during a native run);
//   * the same point UPDATE at a random key of a 100k-row table, where
//     finding the key's version chain is a cache miss, not a hot path;
//   * a remote replica's share of a 10-row update transaction: the
//     source runs 10 random UPDATEs, extracts the writeset and commits,
//     then a second Database runs begin + ApplyWriteSet + commit. The
//     two sides are timed apart (paper §6.3: apply ≈ 20 % of execute).
// Each figure is the median (and p90) over repeated timed runs.
//
//   build/bench/engine_micro             # full repetitions
//   SIREP_BENCH_FAST=1 build/bench/engine_micro

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/database.h"
#include "workload/tpcw.h"

using namespace sirep;
using sql::Value;

namespace {

void Must(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "engine_micro: %s failed\n", what);
    std::abort();
  }
}

struct Timing {
  double median_us = 0;
  double p90_us = 0;
};

/// Times `reps` runs of `op`, each after an untimed run of `setup`.
template <typename Setup, typename Op>
Timing Measure(int reps, const Setup& setup, const Op& op) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    op();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(us.begin(), us.end());
  return Timing{us[us.size() / 2], us[us.size() * 9 / 10]};
}

template <typename Op>
Timing Measure(int reps, const Op& op) {
  return Measure(reps, [] {}, op);
}

/// Runs `statement` with `params` in its own transaction.
void RunTxn(engine::Database& db, const std::string& statement,
            const std::vector<Value>& params) {
  auto txn = db.Begin();
  Must(db.Execute(txn, statement, params).ok(), statement.c_str());
  Must(db.Commit(txn).ok(), "commit");
}

constexpr int64_t kKvRows = 100'000;

/// Creates `kv (k INT, v INT)` with keys 1..kKvRows in one transaction.
void LoadKv(engine::Database& db) {
  Must(db.ExecuteAutoCommit("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
           .ok(),
       "create kv");
  auto txn = db.Begin();
  for (int64_t k = 1; k <= kKvRows; ++k) {
    Must(db.Execute(txn, "INSERT INTO kv VALUES (?, ?)",
                    {Value::Int(k), Value::Int(0)})
             .ok(),
         "insert");
  }
  Must(db.Commit(txn).ok(), "commit");
}

void Report(bench::BenchReport& report, const std::string& name,
            const std::string& what, const Timing& t) {
  std::printf("  %-44s median %8.1f us   p90 %8.1f us\n", what.c_str(),
              t.median_us, t.p90_us);
  report.AddScalar(name + "_us", t.median_us, "us",
                   bench::Direction::kLowerIsBetter);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("engine_micro", &argc, argv);
  bench::BenchReport report("engine_micro");
  const bool fast = bench::FastMode();
  const int query_reps = fast ? 40 : 400;
  const int point_reps = fast ? 2000 : 100000;

  engine::Database db;
  workload::TpcwWorkload tpcw;
  Must(tpcw.Load(&db).ok(), "TPC-W load");
  Prng prng(bench::BenchSeed());
  const int64_t items = tpcw.options().num_items;
  auto random_item = [&] {
    return Value::Int(1 + static_cast<int64_t>(
                              prng.Uniform(static_cast<uint64_t>(items))));
  };

  std::printf("engine_micro: one Database, TPC-W schema, %lld items\n",
              static_cast<long long>(items));
  const std::string best_sellers =
      "SELECT i_title, SUM(ol_qty) FROM order_line JOIN item ON "
      "ol_i_id = i_id GROUP BY i_title ORDER BY sum(ol_qty) DESC LIMIT 50";
  int64_t lines = 1200;  // what the TPC-W load seeds
  for (const int64_t target : {1200, 4200, 8200}) {
    for (; lines < target; ++lines) {
      RunTxn(db, "INSERT INTO order_line VALUES (?, ?, ?, ?)",
             {Value::Int(1'000'000 + lines), Value::Int(1), random_item(),
              Value::Int(1 + static_cast<int64_t>(prng.Uniform(5)))});
    }
    Report(report, "best_sellers_" + std::to_string(target),
           "best sellers, " + std::to_string(target) + " order lines",
           Measure(query_reps, [&] { RunTxn(db, best_sellers, {}); }));
  }

  const std::string point_select =
      "SELECT i_cost, i_stock FROM item WHERE i_id = ?";
  Report(report, "point_select_txn", "begin + point SELECT + commit",
         Measure(point_reps,
                 [&] { RunTxn(db, point_select, {random_item()}); }));

  const std::string update =
      "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?";
  for (int i = 0; i < 1024; ++i) RunTxn(db, update, {Value::Int(1)});
  Report(report, "point_update_long_chain",
         "begin + point UPDATE + commit, 1,024+ chain",
         Measure(point_reps, [&] { RunTxn(db, update, {Value::Int(1)}); }));

  // Cold point access: a random key of 100k, at a source and a replica.
  engine::Database source;
  engine::Database replica;
  LoadKv(source);
  LoadKv(replica);
  auto random_kv = [&] {
    return Value::Int(1 + static_cast<int64_t>(
                              prng.Uniform(static_cast<uint64_t>(kKvRows))));
  };
  const std::string kv_update = "UPDATE kv SET v = v + 1 WHERE k = ?";
  std::printf("engine_micro: table kv, %lld rows, at two Databases\n",
              static_cast<long long>(kKvRows));
  Report(report, "point_update_random_100k",
         "begin + point UPDATE + commit, 100k random",
         Measure(point_reps,
                 [&] { RunTxn(source, kv_update, {random_kv()}); }));

  std::shared_ptr<const storage::WriteSet> ws;
  auto execute = [&] {
    auto txn = source.Begin();
    for (int i = 0; i < 10; ++i) {
      Must(source.Execute(txn, kv_update, {random_kv()}).ok(), "update");
    }
    ws = source.ExtractWriteSet(txn);
    Must(source.Commit(txn).ok(), "commit");
  };
  auto apply = [&] {
    auto txn = replica.Begin();
    Must(replica.ApplyWriteSet(txn, *ws).ok(), "apply");
    Must(replica.Commit(txn).ok(), "commit");
  };
  const int ws_reps = point_reps / 5;
  Report(report, "update10_execute",
         "10 random UPDATEs + extract + commit",
         Measure(ws_reps, execute));
  Report(report, "update10_apply",
         "begin + apply 10-row writeset + commit",
         Measure(ws_reps, execute, apply));

  bench::FinishReport(report);
  return 0;
}
