// Engine micro-benchmark: one engine::Database, no replication and no
// cost model, on the statements that set the engine's share of the
// native TPC-W costs:
//   * the TPC-W best-seller query (order_line JOIN item, GROUP BY,
//     ORDER BY sum DESC, LIMIT 50) at 1.2k and 4.2k order lines — the
//     TPC-W load seeds 1.2k, and BuyConfirm keeps adding them;
//   * begin + point SELECT by primary key + commit;
//   * begin + point UPDATE + commit on a row whose version chain is
//     already 1,024 versions long (no vacuum runs during a native run).
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

/// Times `reps` runs of `op`.
template <typename Op>
Timing Measure(int reps, const Op& op) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    op();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(us.begin(), us.end());
  return Timing{us[us.size() / 2], us[us.size() * 9 / 10]};
}

/// Runs `statement` with `params` in its own transaction.
void RunTxn(engine::Database& db, const std::string& statement,
            const std::vector<Value>& params) {
  auto txn = db.Begin();
  Must(db.Execute(txn, statement, params).ok(), statement.c_str());
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
  for (const int64_t target : {1200, 4200}) {
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

  bench::FinishReport(report);
  return 0;
}
