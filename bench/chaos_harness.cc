// Chaos harness: a standalone invariant checker (not a perf benchmark).
// Runs seeded client traffic against a replicated cluster while a
// deterministic fault schedule fires — failpoint faults (drops, apply
// deadlocks, validation stalls, socket resets) plus whole-replica
// crash/restart rounds — then verifies the 1-copy-SI invariants:
//
//   * sum(v) over the counter table equals the number of commits the
//     drivers acknowledged, on EVERY replica (exactly-once apply);
//   * all replicas are row-for-row identical (convergence).
//
// The entire schedule derives from --seed, so a failing run is
// replayable bit-for-bit from its command line. Exits non-zero on any
// invariant violation; prints a fault report (failpoint counters +
// driver/GCS fault metrics) either way.
//
// Usage:
//   chaos_harness [--seed=N] [--rounds=N] [--clients=N]
//                 [--duration-ms=N] [--transport=inproc|tcp]
//                 [--failpoints=SPEC_LIST] [--join-under-load]
//                 [--partitions=N] [--rf=N] [--apply-threads=N]
//                 [--recovery-buffer-hwm=N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/prng.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sirep {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using sql::Value;

struct HarnessOptions {
  uint64_t seed = 1;
  int rounds = 3;          // crash/restart rounds
  int clients = 4;         // concurrent traffic threads
  int duration_ms = 250;   // traffic window per round
  gcs::TransportKind transport = gcs::TransportKind::kInProcess;
  // Replica configuration (ReplicaOptions defaults unless overridden):
  // remote-apply pipeline width and the recovery buffer's high-water
  // mark.
  middleware::ReplicaOptions replica;
  // Grow the cluster by one fresh replica mid-traffic (AddReplica with
  // an empty schema): the joiner must complete a state transfer
  // under live load and then satisfy the same invariants as everyone.
  bool join_under_load = false;
  // Partial replication (cluster::PartitionMap): 0/0 = full
  // replication. With rf < replicas the traffic threads honor the
  // routing contract (each burst targets one partition group at one of
  // its holders) and the invariant check judges each key against its
  // holder set instead of against every replica.
  size_t partitions = 0;
  size_t rf = 0;
  // Default fault schedule: transient multicast drops, transient apply
  // deadlocks, and validation stalls — all recoverable faults that must
  // never cost an acknowledged commit.
  std::string failpoints =
      "gcs.send=1in(40,error(unavailable));"
      "mw.apply=1in(60,error(deadlock));"
      "mw.validate=1in(80,delay(200us))";
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ParseOptions(int argc, char** argv, HarnessOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--seed", &v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--rounds", &v)) {
      opt->rounds = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--clients", &v)) {
      opt->clients = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--duration-ms", &v)) {
      opt->duration_ms = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--transport", &v)) {
      if (v == "tcp") {
        opt->transport = gcs::TransportKind::kTcp;
      } else if (v == "inproc") {
        opt->transport = gcs::TransportKind::kInProcess;
      } else {
        std::fprintf(stderr, "unknown transport '%s'\n", v.c_str());
        return false;
      }
    } else if (ParseFlag(argv[i], "--failpoints", &v)) {
      opt->failpoints = v;
    } else if (ParseFlag(argv[i], "--partitions", &v)) {
      opt->partitions = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--rf", &v)) {
      opt->rf = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--apply-threads", &v)) {
      opt->replica.applier_threads = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--recovery-buffer-hwm", &v)) {
      opt->replica.recovery_buffer_high_water =
          std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--join-under-load") == 0) {
      opt->join_under_load = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (opt->join_under_load && opt->rf != 0) {
    // Cluster::AddReplica is refused under partial replication (a new
    // replica would belong to no holder group).
    std::fprintf(stderr, "--join-under-load is incompatible with --rf\n");
    return false;
  }
  // --join-under-load needs at least one traffic round to join during.
  return opt->rounds >= 0 && opt->clients > 0 && opt->duration_ms > 0 &&
         (!opt->join_under_load || opt->rounds > 0);
}

/// Seeded counter-increment traffic (same shape as tests/chaos_test.cc):
/// short transactions through the JDBC-like driver with periodic
/// reconnects, counting only commits the driver acknowledged.
long long RunTraffic(Cluster& cluster, uint64_t seed, int clients,
                     std::chrono::milliseconds duration) {
  // Under partial replication each burst honors the routing contract:
  // pick a partition group, pin the connection to the current member
  // id of one of its holder slots, and touch only that group's keys.
  // Driver fail-over stays inside the group. (If the pinned member is
  // down at connect time the driver picks any replica; the misroute
  // guard then aborts the burst unacknowledged, which is safe for the
  // invariants.)
  const auto map = cluster.partition_map();
  const bool partial = map != nullptr && map->partial();
  std::vector<std::vector<int64_t>> group_keys;
  std::vector<std::vector<size_t>> group_slots;
  if (partial) {
    group_keys.resize(map->num_groups());
    group_slots.resize(map->num_groups());
    for (int64_t k = 0; k < 16; ++k) {
      group_keys[map->GroupOfPartition(
                     map->PartitionOf({"kv", sql::Key{{Value::Int(k)}}}))]
          .push_back(k);
    }
    for (size_t s = 0; s < map->num_slots(); ++s) {
      group_slots[map->GroupOfSlot(s)].push_back(s);
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<long long> committed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Prng prng(seed * 9176 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        client::ConnectionOptions copt;
        copt.seed = prng.Next();
        size_t group = 0;
        if (partial) {
          do {
            group = prng.Uniform(group_keys.size());
          } while (group_keys[group].empty());
          const size_t slot =
              group_slots[group][prng.Uniform(group_slots[group].size())];
          copt.pinned_replica =
              static_cast<int>(cluster.replica(slot)->member_id());
        }
        auto conn = cluster.Connect(copt);
        if (!conn.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        auto& connection = *conn.value();
        connection.SetAutoCommit(false);
        for (int t = 0; t < 5 && !stop.load(); ++t) {
          const int64_t k =
              partial ? group_keys[group][prng.Uniform(
                            group_keys[group].size())]
                      : static_cast<int64_t>(prng.Uniform(16));
          auto r = connection.Execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                      {Value::Int(k)});
          if (!r.ok()) {
            connection.Rollback();
            continue;
          }
          if (connection.Commit().ok()) committed.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (auto& t : threads) t.join();
  return committed.load();
}

/// Online restart with bounded retry: the fault schedule stays armed
/// during recovery, so the recovery protocol's own multicasts can eat a
/// transient injected drop (or the donor itself can be a crash-
/// failpoint victim). That is a scenario to survive, not a harness
/// failure — retry with exponential backoff plus seeded jitter under an
/// overall deadline until the schedule lets the join through. On final
/// failure, prints every attempt's status so the failing seed's replay
/// starts from the full error history, not just the last code.
bool RestartWithRetry(Cluster& cluster, size_t index, uint64_t seed,
                      bool sweep_on_outage = false,
                      std::chrono::milliseconds deadline_ms =
                          std::chrono::milliseconds(30000)) {
  const auto deadline = std::chrono::steady_clock::now() + deadline_ms;
  Prng jitter(seed * 77003 + index * 131 + 7);
  auto backoff = std::chrono::milliseconds(5);
  std::vector<Status> attempts;
  for (;;) {
    if (cluster.replica(index)->IsAlive()) return true;
    Status last = cluster.RestartReplica(index);
    if (last.ok()) return true;
    attempts.push_back(last);
    if (sweep_on_outage) {
      // A cascading schedule (e.g. donor-crash failpoints felling every
      // recovery donor) can leave the whole cluster (under partial
      // replication: a whole holder group) down, and such an outage has
      // a mandatory cold-start order: only the replica with the group's
      // longest stable prefix may seed it. Sweeping the *other* dead
      // replicas lets whichever one that is come up, after which
      // `index` recovers from it normally. Only enabled at call
      // sites where no medic thread is restarting replicas in parallel
      // (concurrent restarts of the same index are not supported).
      for (size_t r = 0; r < cluster.size(); ++r) {
        if (r != index && !cluster.replica(r)->IsAlive()) {
          (void)cluster.RestartReplica(r);
        }
      }
    }
    const auto sleep =
        backoff + std::chrono::milliseconds(
                      jitter.Uniform(static_cast<uint64_t>(backoff.count())));
    if (std::chrono::steady_clock::now() + sleep > deadline) break;
    std::this_thread::sleep_for(sleep);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(250));
  }
  std::fprintf(stderr,
               "restart of replica %zu kept failing (%zu attempts):\n",
               index, attempts.size());
  for (size_t a = 0; a < attempts.size(); ++a) {
    std::fprintf(stderr, "  attempt %zu: %s\n", a,
                 attempts[a].ToString().c_str());
  }
  return false;
}

/// Partial-replication invariants, judged per key against its holder
/// set: every holder of a key agrees on its value (exactly-once apply
/// within the group), non-holder copies stay at the seeded value (a
/// non-holder that applied something would be the misroute-safety bug),
/// and the sum over one authoritative copy per key accounts for every
/// acknowledged commit.
///
/// No acknowledged commit may be missing. The sum may exceed the
/// acknowledged count by at most `unknown`: commits whose outcome the
/// driver reported as unknown (every replica of the holder group that
/// could tell was down), which may or may not have committed. Anything
/// else is a real exactly-once violation.
int CheckInvariantsPartial(Cluster& cluster, const cluster::PartitionMap& map,
                           long long committed, long long unknown) {
  int violations = 0;
  long long total = 0;
  const size_t slots = std::min(cluster.size(), map.num_slots());
  for (int64_t k = 0; k < 16; ++k) {
    const size_t partition =
        map.PartitionOf({"kv", sql::Key{{Value::Int(k)}}});
    long long authoritative = -1;
    for (size_t s = 0; s < slots; ++s) {
      auto res = cluster.db(s)->ExecuteAutoCommit(
          "SELECT v FROM kv WHERE k = " + std::to_string(k));
      const long long v =
          res.ok() && res.value().NumRows() == 1
              ? res.value().rows[0][0].AsInt()
              : -1;
      if (map.Holds(s, partition)) {
        if (authoritative == -1) {
          authoritative = v;
        } else if (v != authoritative) {
          std::fprintf(stderr,
                       "VIOLATION: key %lld holders disagree: replica %zu "
                       "has %lld, expected %lld\n",
                       static_cast<long long>(k), s, v, authoritative);
          ++violations;
        }
      } else if (v != 0) {
        std::fprintf(stderr,
                     "VIOLATION: key %lld applied at non-holder replica "
                     "%zu (v=%lld)\n",
                     static_cast<long long>(k), s, v);
        ++violations;
      }
    }
    if (authoritative < 0) {
      std::fprintf(stderr, "VIOLATION: key %lld has no readable holder\n",
                   static_cast<long long>(k));
      ++violations;
    } else {
      total += authoritative;
    }
  }
  if (total < committed || total > committed + unknown) {
    std::fprintf(stderr,
                 "VIOLATION: authoritative sum(v)=%lld, drivers "
                 "acknowledged %lld commits (%lld of unknown outcome)\n",
                 total, committed, unknown);
    ++violations;
  } else if (total != committed) {
    std::printf(
        "note: %lld of %lld commits of unknown outcome did commit\n",
        total - committed, unknown);
  }
  return violations;
}

int CheckInvariants(Cluster& cluster, long long committed) {
  if (const auto& map = cluster.partition_map();
      map != nullptr && map->partial()) {
    auto snap = obs::MetricsRegistry::Default().Snapshot();
    const auto it = snap.counters.find("client.indoubt_unknown");
    const long long unknown =
        it == snap.counters.end() ? 0 : static_cast<long long>(it->second);
    return CheckInvariantsPartial(cluster, *map, committed, unknown);
  }
  int violations = 0;
  for (size_t r = 0; r < cluster.size(); ++r) {
    auto res = cluster.db(r)->ExecuteAutoCommit("SELECT SUM(v) FROM kv");
    const long long sum =
        res.ok() ? res.value().rows[0][0].AsInt() : -1;
    if (sum != committed) {
      std::fprintf(stderr,
                   "VIOLATION: replica %zu sum(v)=%lld, drivers "
                   "acknowledged %lld commits\n",
                   r, sum, committed);
      ++violations;
    }
  }
  auto reference =
      cluster.db(0)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
  if (!reference.ok()) {
    std::fprintf(stderr, "VIOLATION: replica 0 unreadable\n");
    return violations + 1;
  }
  for (size_t r = 1; r < cluster.size(); ++r) {
    auto other =
        cluster.db(r)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
    if (!other.ok() ||
        other.value().rows != reference.value().rows) {
      std::fprintf(stderr,
                   "VIOLATION: replica %zu diverged from replica 0\n", r);
      ++violations;
    }
  }
  return violations;
}

void PrintFaultReport(Cluster& cluster,
                      const std::vector<failpoint::PointStats>& points) {
  std::printf("--- failpoint report ---\n");
  for (const auto& p : points) {
    std::printf("  %-28s spec=%-28s hits=%llu fires=%llu\n",
                p.name.c_str(), p.spec.c_str(),
                static_cast<unsigned long long>(p.hits),
                static_cast<unsigned long long>(p.fires));
  }
  std::printf("--- fault counters ---\n");
  // The driver's retry/failover counters live in the process-default
  // registry, not in any per-replica registry — merge both. DumpMetrics()
  // covers each replica's current incarnation only: the recovery
  // counters of an incarnation that never went live (its restart gave
  // up) or was replaced since are not in this report.
  auto snap = cluster.DumpMetrics();
  snap.Merge(obs::MetricsRegistry::Default().Snapshot());
  for (const auto& [name, value] : snap.counters) {
    // Driver retry/failover behaviour, transport-level faults and
    // recovery retries, donor switches and spills; the throughput
    // counters are not interesting to a chaos report.
    if (name.rfind("client.", 0) == 0 || name.rfind("gcs.tcp.", 0) == 0 ||
        name.rfind("wal.", 0) == 0 || name.rfind("mw.recovery.", 0) == 0) {
      std::printf("  %-36s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
}

/// On any failed run: one kInvariant event into the black box, then the
/// whole observability state — merged metrics (Prometheus text) plus
/// every flight recorder — into a file named after the failing seed, so
/// the bit-for-bit replay starts from the recorded evidence.
void DumpFailureArtifacts(Cluster& cluster, uint64_t seed,
                          const std::string& why) {
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kInvariant, 0,
                                       seed, 0, why);
  const std::string path = "chaos_dump.seed" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto snap = cluster.DumpMetrics();
  snap.Merge(obs::MetricsRegistry::Default().Snapshot());
  out << "# chaos failure: " << why << " (seed=" << seed << ")\n"
      << "# ---- merged metrics ----\n"
      << snap.ToPrometheusText() << "# ---- flight recorders ----\n"
      << cluster.DumpFlightRecorders();
  std::fprintf(stderr, "observability dump written to %s\n", path.c_str());
}

int Run(const HarnessOptions& opt) {
  // Black-box plumbing before any traffic: failpoint verdicts stream
  // into the global flight recorder, and a fatal signal dumps every
  // recorder to a seed-stamped file.
  obs::FlightRecorder::RecordFailpointHits();
  obs::FlightRecorder::InstallCrashHandler("chaos_flightrecorder.seed" +
                                           std::to_string(opt.seed));
  ClusterOptions coptions;
  coptions.num_replicas = 4;
  coptions.replica = opt.replica;
  coptions.gcs.transport = opt.transport;
  coptions.partitions = opt.partitions;
  coptions.replication_factor = opt.rf;
  Cluster cluster(coptions);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    return 2;
  }
  if (!cluster
           .ExecuteEverywhere(
               "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
           .ok()) {
    std::fprintf(stderr, "schema setup failed\n");
    return 2;
  }
  for (int k = 0; k < 16; ++k) {
    if (!cluster
             .ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                {Value::Int(k)})
             .ok()) {
      std::fprintf(stderr, "data load failed\n");
      return 2;
    }
  }

  failpoint::Seed(opt.seed);
  if (!opt.failpoints.empty()) {
    const Status st = failpoint::ArmFromList(opt.failpoints);
    if (!st.ok()) {
      std::fprintf(stderr, "bad --failpoints list: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }

  // Each round: traffic under the fault schedule with one seeded
  // whole-replica crash in the middle, then an online restart. A medic
  // thread sweeps for collateral deaths (crash-failpoints can fell any
  // replica, not just the scheduled victim) so the cluster never bleeds
  // out of donors even with unbounded crash schedules.
  Prng chaos(opt.seed * 40503 + 11);
  long long committed = 0;
  const auto window = std::chrono::milliseconds(opt.duration_ms);
  std::atomic<bool> join_ok{!opt.join_under_load};
  std::thread joiner;
  for (int round = 0; round < opt.rounds; ++round) {
    const size_t victim = chaos.Uniform(cluster.size());
    std::atomic<bool> medic_stop{false};
    std::thread medic([&] {
      while (!medic_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        for (size_t r = 0; r < cluster.size(); ++r) {
          if (r == victim) continue;  // the victim belongs to the killer
          if (!cluster.replica(r)->IsAlive()) {
            // Best-effort: a failure here is retried on the next sweep,
            // and the final restart pass is the backstop.
            (void)cluster.RestartReplica(r);
          }
        }
      }
    });
    if (opt.join_under_load && round == 0) {
      // Grow the cluster mid-traffic: the joiner catches up from a donor
      // while the drivers keep committing against it.
      joiner = std::thread([&] {
        std::this_thread::sleep_for(window / 4);
        for (int attempt = 0; attempt < 5; ++attempt) {
          auto added = cluster.AddReplica([](engine::Database* db) {
            return db
                ->ExecuteAutoCommit(
                    "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                .status();
          });
          if (added.ok()) {
            std::printf("joined replica %zu under load\n", added.value());
            join_ok.store(true);
            return;
          }
          std::fprintf(stderr, "join attempt %d failed: %s\n", attempt,
                       added.status().ToString().c_str());
        }
      });
    }
    std::thread killer([&] {
      std::this_thread::sleep_for(window / 3);
      if (!cluster.replica(victim)->IsAlive()) return;
      cluster.CrashReplica(victim);
      std::this_thread::sleep_for(window / 3);
      if (!RestartWithRetry(cluster, victim, opt.seed)) {
        std::fprintf(stderr, "restart of replica %zu failed\n", victim);
      }
    });
    committed +=
        RunTraffic(cluster, opt.seed * 131 + round, opt.clients, window);
    killer.join();
    medic_stop.store(true);
    medic.join();
    if (!cluster.replica(victim)->IsAlive()) {
      // Crash landed after the killer's liveness check elsewhere (e.g.
      // self-expulsion from an injected reset): restart it now so the
      // convergence check sees a full complement.
      if (!RestartWithRetry(cluster, victim, opt.seed,
                            /*sweep_on_outage=*/true)) {
        std::fprintf(stderr, "late restart of replica %zu failed\n",
                     victim);
        DumpFailureArtifacts(cluster, opt.seed, "late restart failed");
        return 2;
      }
    }
    std::printf("round %d: victim=%zu committed(total)=%lld\n", round,
                victim, committed);
  }
  if (joiner.joinable()) joiner.join();
  if (!join_ok.load()) {
    std::fprintf(stderr, "FAIL: join under load never completed\n");
    DumpFailureArtifacts(cluster, opt.seed, "join under load failed");
    return 1;
  }

  // Snapshot counters before disarming — Disarm() drops them.
  const auto fault_points = failpoint::Snapshot();
  failpoint::DisarmAll();
  // Anything self-expelled by socket-level faults must be brought back
  // before convergence is judged.
  for (size_t r = 0; r < cluster.size(); ++r) {
    if (!RestartWithRetry(cluster, r, opt.seed, /*sweep_on_outage=*/true)) {
      std::fprintf(stderr, "final restart of replica %zu failed\n", r);
      DumpFailureArtifacts(cluster, opt.seed, "final restart failed");
      return 2;
    }
  }
  cluster.Quiesce();

  const int violations = CheckInvariants(cluster, committed);
  PrintFaultReport(cluster, fault_points);
  if (committed == 0) {
    std::fprintf(stderr, "FAIL: no transaction ever committed\n");
    DumpFailureArtifacts(cluster, opt.seed, "no transaction ever committed");
    return 1;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %d invariant violation(s), seed=%llu\n",
                 violations, static_cast<unsigned long long>(opt.seed));
    DumpFailureArtifacts(cluster, opt.seed,
                         std::to_string(violations) +
                             " invariant violation(s)");
    return 1;
  }
  std::printf("PASS: %lld commits, invariants hold (seed=%llu)\n",
              committed, static_cast<unsigned long long>(opt.seed));
  return 0;
}

}  // namespace
}  // namespace sirep

int main(int argc, char** argv) {
  sirep::HarnessOptions opt;
  if (!sirep::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s [--seed=N] [--rounds=N] [--clients=N] "
                 "[--duration-ms=N] [--transport=inproc|tcp] "
                 "[--failpoints=LIST] [--join-under-load] "
                 "[--partitions=N] [--rf=N] [--apply-threads=N] "
                 "[--recovery-buffer-hwm=N]\n",
                 argv[0]);
    return 2;
  }
  return sirep::Run(opt);
}
