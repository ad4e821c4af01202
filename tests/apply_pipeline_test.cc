// Deterministic interleaving tests for the parallel remote-apply
// pipeline (ISSUE: two conflicting + two non-conflicting delivered
// writesets through the worker pool; visibility order and final state
// must match the serial path). The interleaving is made deterministic by
// *gating*, not sleeps: the conflicting successor can only enter the
// pipeline once ToCommitQueue::Commit() ran for its predecessor, and the
// adversarial schedule blocks the predecessor's apply until both
// non-conflicting writesets have been applied by other workers, which
// the shared queue must hand to them. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/sync.h"
#include "middleware/apply_pipeline.h"
#include "middleware/tocommit_queue.h"
#include "sql/value.h"
#include "storage/write_set.h"

namespace sirep::middleware {
namespace {

using storage::WriteOp;
using storage::WriteSet;

std::shared_ptr<const WriteSet> Ws(
    std::initializer_list<std::pair<const char*, int64_t>> tuples) {
  auto ws = std::make_shared<WriteSet>();
  for (const auto& [table, key] : tuples) {
    ws->Record({table, sql::Key{{sql::Value::Int(key)}}}, WriteOp::kUpdate,
               {sql::Value::Int(key)});
  }
  return ws;
}

/// Drives the replica's dispatch protocol against a scripted "database":
/// queue four writesets (tids 1 and 2 conflict on tuple x; 3 and 4 are
/// independent), pump dispatchable entries into the pipeline, and treat
/// each apply as an immediate commit that dispatches what it released,
/// exactly what SrcaRepReplica::ApplyRemote does. Records the apply
/// order and the per-tuple last-writer "state". When `adversarial` is
/// true, tid 1's apply blocks until tids 3 and 4 finish on other workers.
struct PipelineRun {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;                         // gates the first apply
  std::vector<uint64_t> order;                  // apply order, by tid
  std::map<std::string, uint64_t> state;        // "table:key" -> last tid
  obs::MetricsRegistry registry;
  ToCommitQueue queue{/*gate_enabled=*/true, &registry};
  std::unique_ptr<ApplyPipeline> pipeline;

  bool Applied(uint64_t tid) {
    for (uint64_t t : order) {
      if (t == tid) return true;
    }
    return false;
  }

  void Run(size_t threads, bool adversarial) {
    pipeline = std::make_unique<ApplyPipeline>(
        threads,
        [&](ToCommitEntry entry) {
          {
            std::unique_lock<std::mutex> lock(mu);
            // No apply proceeds until the initial Dispatch() handed all
            // its entries to the pipeline — otherwise a fast worker could
            // commit tid 1 and dispatch tid 2 between the hand-offs of
            // tids 1 and 3, making the observed order scheduling-
            // dependent (seen under TSan).
            cv.wait(lock, [&] { return started; });
            if (adversarial && entry.tid == 1) {
              // Hold the predecessor's apply until the two independent
              // writesets were applied — necessarily by other workers.
              cv.wait(lock, [&] { return Applied(3) && Applied(4); });
            }
            order.push_back(entry.tid);
            for (const auto& we : entry.ws->entries()) {
              state[we.tuple.table + ":" +
                    we.tuple.key.parts[0].ToString()] = entry.tid;
            }
            cv.notify_all();
          }
          std::vector<ToCommitEntry> released;
          EXPECT_TRUE(queue
                          .Commit(entry.tid, [] { return Status::OK(); },
                                  &released)
                          .ok());
          Dispatch(std::move(released));
        },
        /*registry=*/nullptr);

    queue.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"x", 7}})});
    queue.Append({.tid = 2, .gid = {1, 2}, .ws = Ws({{"x", 7}})});  // after 1
    queue.Append({.tid = 3, .gid = {1, 3}, .ws = Ws({{"c", 3}})});
    queue.Append({.tid = 4, .gid = {1, 4}, .ws = Ws({{"d", 4}})});
    Dispatch(queue.TakeDispatchable());
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();

    queue.WaitUntilEmpty();
    pipeline->Shutdown();
  }

  void Dispatch(std::vector<ToCommitEntry> entries) {
    for (auto& entry : entries) pipeline->Dispatch(std::move(entry));
  }

  size_t IndexOf(uint64_t tid) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == tid) return i;
    }
    ADD_FAILURE() << "tid " << tid << " never applied";
    return order.size();
  }
};

TEST(ApplyPipelineTest, SerialPathAppliesAllInDispatchOrder) {
  PipelineRun run;
  run.Run(/*threads=*/1, /*adversarial=*/false);
  // Width 1 preserves strict dispatch order: 1, 3, 4 were dispatched
  // together (in ready order), 2 only after 1 committed.
  ASSERT_EQ(run.order.size(), 4u);
  EXPECT_EQ(run.order, (std::vector<uint64_t>{1, 3, 4, 2}));
}

TEST(ApplyPipelineTest, AdversarialParallelInterleavingMatchesSerial) {
  PipelineRun serial;
  serial.Run(/*threads=*/1, /*adversarial=*/false);

  PipelineRun parallel;
  parallel.Run(/*threads=*/4, /*adversarial=*/true);

  ASSERT_EQ(parallel.order.size(), 4u);
  // Visibility order: the conflicting successor (2) applied only after
  // its predecessor (1), even though 1 was stalled while 3 and 4 ran.
  EXPECT_LT(parallel.IndexOf(1), parallel.IndexOf(2));
  // The stall really was concurrent: 3 and 4 finished before 1 did.
  EXPECT_LT(parallel.IndexOf(3), parallel.IndexOf(1));
  EXPECT_LT(parallel.IndexOf(4), parallel.IndexOf(1));
  // Final database state is order-independent and equals the serial run.
  EXPECT_EQ(parallel.state, serial.state);
  EXPECT_EQ(parallel.state.at("x:7"), 2u);
}

TEST(ApplyPipelineTest, ShutdownDrainsQueuedEntries) {
  std::atomic<int> applied{0};
  std::mutex gate;
  gate.lock();  // stall the first apply so the rest stay queued
  auto pipeline = std::make_unique<ApplyPipeline>(
      2,
      [&](ToCommitEntry) {
        if (applied.fetch_add(1) == 0) {
          gate.lock();  // first apply waits until the test releases it
          gate.unlock();
        }
      },
      nullptr);
  for (uint64_t tid = 1; tid <= 8; ++tid) {
    pipeline->Dispatch({.tid = tid, .gid = {1, tid}, .ws = Ws({{"t", 1}})});
  }
  gate.unlock();
  pipeline->Shutdown();  // must drain everything queued before joining
  EXPECT_EQ(applied.load(), 8);
}

// Paper §4.2: an applier can block inside the database on a lock held
// by a local transaction. The pool must not lose the rest of its width
// to it: entries dispatched while one worker is stuck are applied by
// another.
TEST(ApplyPipelineTest, BlockedWorkerStrandsNothing) {
  CountDownLatch blocked(1);
  CountDownLatch local_txn_done(1);  // stands in for the DB lock
  CountDownLatch later_applied(4);
  auto with_tid = [](uint64_t tid) {
    ToCommitEntry entry;
    entry.tid = tid;
    return entry;
  };
  ApplyPipeline pipeline(
      2,
      [&](ToCommitEntry entry) {
        if (entry.tid == 1) {
          blocked.CountDown();
          local_txn_done.Wait();
        } else {
          later_applied.CountDown();
        }
      },
      nullptr);
  pipeline.Dispatch(with_tid(1));
  blocked.Wait();
  for (uint64_t tid = 2; tid <= 5; ++tid) pipeline.Dispatch(with_tid(tid));
  EXPECT_TRUE(later_applied.WaitFor(std::chrono::seconds(10)));
  local_txn_done.CountDown();
  pipeline.Shutdown();
}

TEST(ApplyPipelineTest, ReplicaRunsTheConfiguredWidth) {
  cluster::ClusterOptions options;
  options.num_replicas = 1;
  options.replica.applier_threads = 0;  // floored: one worker
  cluster::Cluster cluster(options);
  EXPECT_EQ(cluster.replica(0)->options().applier_threads, 1u);
  const auto gauges = cluster.DumpMetrics().gauges;
  EXPECT_EQ(gauges.count("mw.apply.queue_depth"), 1u);
}

// End-to-end A/B: the same conflicting + non-conflicting workload on a
// full SRCA-Rep cluster pinned to the serial pipeline and to a 4-wide
// pipeline must converge to identical, correct state at every replica.
TEST(ApplyPipelineTest, ClusterConvergesIdenticallyInBothPipelineModes) {
  std::map<std::string, int64_t> results[2];
  const size_t widths[2] = {1, 4};
  for (int mode = 0; mode < 2; ++mode) {
    cluster::ClusterOptions options;
    options.num_replicas = 3;
    options.replica.mode = ReplicaMode::kSrcaRep;
    options.replica.applier_threads = widths[mode];
    cluster::Cluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster
                    .ExecuteEverywhere(
                        "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                    .ok());
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(cluster
                      .ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                         {sql::Value::Int(k)})
                      .ok());
    }
    // Three writers per replica: one hammers the shared key 0 (forced
    // conflicts, per-tuple FIFO ordering) and the others spread over
    // disjoint keys (parallel applies).
    std::vector<std::thread> writers;
    for (size_t r = 0; r < 3; ++r) {
      for (int w = 0; w < 3; ++w) {
        writers.emplace_back([&cluster, r, w] {
          auto* mw = cluster.replica(r);
          const int64_t key = w == 0 ? 0 : static_cast<int64_t>(1 + r * 2 + w);
          for (int i = 0; i < 30; ++i) {
            auto txn = mw->BeginTxn();
            if (!txn.ok()) continue;
            auto handle = std::move(txn).value();
            if (!mw->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = ?",
                             {sql::Value::Int(key)})
                     .ok()) {
              mw->RollbackTxn(handle);
              continue;
            }
            (void)mw->CommitTxn(handle);
          }
        });
      }
    }
    for (auto& t : writers) t.join();
    cluster.Quiesce();
    // Order-independent drain check: whatever order the pipeline applied
    // in, Quiesce means every validated writeset committed everywhere.
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(cluster.replica(r)->PendingQueueSize(), 0u);
    }
    auto rows =
        cluster.db(0)->ExecuteAutoCommit("SELECT k, v FROM kv ORDER BY k");
    ASSERT_TRUE(rows.ok());
    for (const auto& row : rows.value().rows) {
      results[mode][row[0].ToString()] = row[1].AsInt();
    }
    for (size_t r = 1; r < 3; ++r) {
      auto rr =
          cluster.db(r)->ExecuteAutoCommit("SELECT k, v FROM kv ORDER BY k");
      ASSERT_TRUE(rr.ok());
      ASSERT_EQ(rr.value().NumRows(), rows.value().NumRows());
      for (size_t i = 0; i < rr.value().rows.size(); ++i) {
        EXPECT_EQ(rr.value().rows[i][1].AsInt(),
                  rows.value().rows[i][1].AsInt())
            << "replica " << r << " diverged at row " << i << " (width "
            << widths[mode] << ")";
      }
    }
  }
  // Committed counts can differ between runs (aborts are timing
  // dependent), but both modes must produce a fully converged cluster —
  // the assertions above — and every key must have absorbed updates.
  for (int mode = 0; mode < 2; ++mode) {
    int64_t total = 0;
    for (const auto& [k, v] : results[mode]) total += v;
    EXPECT_GT(total, 0) << "width " << widths[mode];
  }
}

}  // namespace
}  // namespace sirep::middleware
