// Unit tests for the observability substrate (src/obs): lock-free
// counters/histograms under concurrency, bucket-boundary semantics,
// snapshot consistency guarantees, merge, JSON round-tripping,
// percentile extraction, the metric-name lint, the flight recorder's
// lock-free ring (including wraparound under concurrent writers — run
// under TSan in CI), and the per-role thread CPU reader.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_name.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/thread_cpu.h"
#include "obs/trace.h"

namespace sirep::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c->Value(), kThreads * kPerThread);
  EXPECT_EQ(registry.Snapshot().counters.at("test.counter"),
            kThreads * kPerThread);
}

TEST(CounterTest, AddAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.add");
  c->Add(3);
  c->Add(39);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(GaugeTest, SetAddSub) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(10);
  g->Add(5);
  g->Sub(7);
  EXPECT_EQ(g->Value(), 8);
  g->Set(-3);
  EXPECT_EQ(registry.Snapshot().gauges.at("test.gauge"), -3);
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("test.x"), registry.GetCounter("test.x"));
  EXPECT_EQ(registry.GetGauge("test.y"), registry.GetGauge("test.y"));
  EXPECT_EQ(registry.GetLatencyHistogram("test.z"),
            registry.GetLatencyHistogram("test.z"));
  EXPECT_NE(registry.GetCounter("test.x"), registry.GetCounter("test.x2"));
}

TEST(HistogramTest, BucketBoundaries) {
  // Bounds are inclusive upper bounds: a value lands in the first bucket
  // whose bound is >= value; above all bounds -> overflow bucket.
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(1.0);    // bucket 0 (inclusive)
  hist.Observe(1.001);  // bucket 1
  hist.Observe(10.0);   // bucket 1
  hist.Observe(99.9);   // bucket 2
  hist.Observe(100.0);  // bucket 2
  hist.Observe(100.1);  // overflow
  hist.Observe(1e9);    // overflow

  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.count, 8u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(HistogramTest, MeanAndQuantile) {
  Histogram hist(LatencyBucketsUs());
  for (int i = 0; i < 100; ++i) hist.Observe(100.0);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Mean(), 100.0);
  // All mass in one bucket; the quantile is clamped to [min, max].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.95), 100.0);

  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.95), 0.0);
}

TEST(HistogramTest, SnapshotConsistentUnderConcurrentObserves) {
  // Invariant: in any snapshot taken mid-flight, the bucket sum is >= the
  // count (count is bumped last with release ordering), and both only
  // grow.
  MetricsRegistry registry;
  Histogram* hist = registry.GetLatencyHistogram("test.lat");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([hist, &stop, t] {
      double v = 1.0 + t;
      // do-while: at least one observation even if the snapshot loop
      // below finishes before this thread gets scheduled.
      do {
        hist->Observe(v);
        v = v > 1e6 ? 1.0 : v * 1.7;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    HistogramSnapshot snap = hist->Snapshot();
    uint64_t bucket_sum = 0;
    for (uint64_t b : snap.buckets) bucket_sum += b;
    EXPECT_GE(bucket_sum, snap.count);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  stop.store(true);
  for (auto& t : writers) t.join();

  HistogramSnapshot final_snap = hist->Snapshot();
  uint64_t bucket_sum = 0;
  for (uint64_t b : final_snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, final_snap.count);  // quiescent: exact agreement
  EXPECT_GT(final_snap.count, 0u);
}

TEST(SnapshotTest, MergeAddsCountersGaugesAndBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("test.shared")->Add(10);
  b.GetCounter("test.shared")->Add(32);
  b.GetCounter("test.only_b")->Add(7);
  a.GetGauge("test.depth")->Set(3);
  b.GetGauge("test.depth")->Set(4);
  a.GetLatencyHistogram("test.lat")->Observe(5.0);
  b.GetLatencyHistogram("test.lat")->Observe(500.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("test.shared"), 42u);
  EXPECT_EQ(merged.counters.at("test.only_b"), 7u);
  EXPECT_EQ(merged.gauges.at("test.depth"), 7);
  const HistogramSnapshot& lat = merged.histograms.at("test.lat");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_DOUBLE_EQ(lat.sum, 505.0);
  EXPECT_DOUBLE_EQ(lat.min, 5.0);
  EXPECT_DOUBLE_EQ(lat.max, 500.0);
}

TEST(SnapshotTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("mw.committed")->Add(1234);
  registry.GetCounter("mw.aborts")->Increment();
  registry.GetGauge("mw.queue_depth")->Set(-5);
  Histogram* lat = registry.GetLatencyHistogram("mw.commit.stage.apply_us");
  lat->Observe(0.75);
  lat->Observe(33.3);
  lat->Observe(1e7);  // overflow bucket
  registry.GetHistogram("storage.version_chain_len", LengthBuckets())
      ->Observe(12.0);

  MetricsSnapshot original = registry.Snapshot();
  const std::string json = original.ToJson();

  auto parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), original);

  // Round-tripping the re-serialization too (fixed point).
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(SnapshotTest, EmptyJsonRoundTrip) {
  MetricsSnapshot empty;
  auto parsed = MetricsSnapshot::FromJson(empty.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), empty);
}

TEST(SnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"counters\":").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("").ok());
  // Trailing data after a complete document.
  const std::string doc = "{\"counters\":{\"mw.c\":1}}";
  ASSERT_TRUE(MetricsSnapshot::FromJson(doc).ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson(doc + "}").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson(doc + " trailing garbage").ok());
  // A counter is an unsigned integer: no sign, fraction or exponent.
  for (const char* v : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    EXPECT_FALSE(MetricsSnapshot::FromJson(
                     std::string("{\"counters\":{\"mw.c\":") + v + "}}")
                     .ok())
        << v;
  }
}

template <typename S>
concept Parses = requires(S&& s) { json::Parse(std::forward<S>(s)); };

TEST(JsonTest, ParseRefusesATemporaryString) {
  // A parsed Value views its text, so the text must outlive it: a
  // temporary std::string does not compile, everything else parses.
  static_assert(!Parses<std::string>);
  static_assert(Parses<std::string&>);
  static_assert(Parses<const std::string&>);
  static_assert(Parses<std::string_view>);
  static_assert(Parses<const char*>);
  const std::string text = R"({"n": 18446744073709551615})";
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  uint64_t n = 0;
  ASSERT_TRUE(parsed.value().Find("n")->AsU64(&n));
  EXPECT_EQ(n, UINT64_MAX);
}

TEST(SnapshotTest, PrometheusTextContainsSeries) {
  MetricsRegistry registry;
  registry.GetCounter("mw.committed")->Add(5);
  registry.GetLatencyHistogram("gcs.multicast_us")->Observe(10.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("mw_committed 5"), std::string::npos);
  EXPECT_NE(text.find("gcs_multicast_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(TraceTest, RecordsEveryStageOnce) {
  TxnTrace trace;
  trace.SetId("t1/42");
  for (int i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    trace.Begin(stage);
    trace.End(stage);
    EXPECT_EQ(trace.Count(stage), 1u) << StageName(stage);
    EXPECT_FALSE(trace.Running(stage));
  }

  MetricsRegistry registry;
  StageHistograms hists = StageHistograms::FromRegistry(&registry);
  trace.Flush(hists);
  for (int i = 0; i < kNumStages; ++i) {
    EXPECT_EQ(hists.stage[i]->Count(), 1u)
        << StageName(static_cast<Stage>(i));
  }
}

TEST(TraceTest, EndWithoutBeginIsIgnored) {
  TxnTrace trace;
  trace.End(Stage::kApply);
  EXPECT_EQ(trace.Count(Stage::kApply), 0u);
  EXPECT_EQ(trace.DurationNs(Stage::kApply), 0u);
}

// --- percentile extraction from histogram buckets ----------------------

TEST(HistogramTest, SummaryPercentilesOrderedAndBounded) {
  Histogram hist(LatencyBucketsUs());
  for (int i = 1; i <= 1000; ++i) hist.Observe(static_cast<double>(i));
  const auto p = hist.Snapshot().SummaryPercentiles();
  EXPECT_EQ(p.count, 1000u);
  EXPECT_NEAR(p.mean, 500.5, 0.01);
  // Bucket interpolation is approximate, but the order and the [min,
  // max] clamp are guaranteed.
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
  EXPECT_GE(p.p50, 1.0);
  EXPECT_LE(p.p99, 1000.0);
}

TEST(SnapshotTest, PercentilesByNameZeroWhenAbsent) {
  MetricsRegistry registry;
  registry.GetLatencyHistogram("test.lat")->Observe(42.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Percentiles("test.lat").count, 1u);
  const auto missing = snap.Percentiles("test.no_such");
  EXPECT_EQ(missing.count, 0u);
  EXPECT_DOUBLE_EQ(missing.p99, 0.0);
}

// --- metric-name lint (CI satellite: component.noun_unit) --------------

TEST(MetricNameLintTest, AcceptsConventionalNames) {
  EXPECT_TRUE(IsValidMetricName("mw.committed"));
  EXPECT_TRUE(IsValidMetricName("mw.commit.stage.apply_us"));
  EXPECT_TRUE(IsValidMetricName("gcs.tcp.connect_retries"));
  EXPECT_TRUE(IsValidMetricName("storage.version_chain_len"));
  EXPECT_TRUE(IsValidMetricName("mw.clock.offset_estimate_ns"));
  // The partial-replication and recovery families introduced by the
  // later PRs must pass the same lint as the originals.
  EXPECT_TRUE(IsValidMetricName("mw.partial.writesets_skipped"));
  EXPECT_TRUE(IsValidMetricName("mw.partial.held_partitions"));
  EXPECT_TRUE(IsValidMetricName("mw.recovery.chunks_sent"));
  EXPECT_TRUE(IsValidMetricName("mw.recovery.donor_failovers"));
  EXPECT_TRUE(IsValidMetricName("mw.lock.tocommit.wait_us"));
}

TEST(MetricNameLintTest, RejectsMalformedNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("x"));            // single segment
  EXPECT_FALSE(IsValidMetricName("committed"));    // single segment
  EXPECT_FALSE(IsValidMetricName("Mw.foo"));       // uppercase
  EXPECT_FALSE(IsValidMetricName("mw.Foo"));       // uppercase
  EXPECT_FALSE(IsValidMetricName("mw."));          // trailing empty segment
  EXPECT_FALSE(IsValidMetricName(".mw"));          // leading empty segment
  EXPECT_FALSE(IsValidMetricName("mw..foo"));      // empty middle segment
  EXPECT_FALSE(IsValidMetricName("mw.9foo"));      // digit-leading segment
  EXPECT_FALSE(IsValidMetricName("mw._foo"));      // underscore-leading
  EXPECT_FALSE(IsValidMetricName("mw.foo-bar"));   // bad character
  EXPECT_FALSE(IsValidMetricName("mw foo.bar"));   // space
  // Stricter underscore rules: no trailing underscore, no runs.
  EXPECT_FALSE(IsValidMetricName("mw.foo_"));          // trailing
  EXPECT_FALSE(IsValidMetricName("mw.partial.foo_"));  // trailing, nested
  EXPECT_FALSE(IsValidMetricName("mw.foo__bar"));      // double underscore
  EXPECT_FALSE(IsValidMetricName("mw.recovery.a__b")); // double, nested
}

// --- sampling profiler + lock contention accounting --------------------

TEST(ProfilerTest, SamplerSeesAnnotatedSection) {
  // Section annotations always land on the global profiler (they must
  // be reachable from any thread without plumbing a handle), so that is
  // the instance under test.
  Profiler& profiler = Profiler::Global();
  profiler.ResetCounts();
  profiler.StartSampling(std::chrono::microseconds(200));
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    Profiler::Section section("test.profiled_section");
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Wait until the sampler has both ticked and caught the section.
  for (int i = 0; i < 200; ++i) {
    const auto snap = profiler.GetSnapshot();
    if (snap.sections.count("test.profiled_section") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  worker.join();
  profiler.StopSampling();

  const auto snap = profiler.GetSnapshot();
  EXPECT_FALSE(snap.sampling);
  EXPECT_EQ(snap.interval_us, 200u);
  EXPECT_GT(snap.ticks, 0u);
  ASSERT_EQ(snap.sections.count("test.profiled_section"), 1u);
  EXPECT_GT(snap.sections.at("test.profiled_section"), 0u);

  const std::string json = profiler.SnapshotJson();
  EXPECT_NE(json.find("\"test.profiled_section\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks\""), std::string::npos);

  profiler.ResetCounts();
  EXPECT_TRUE(profiler.GetSnapshot().sections.empty());
}

TEST(ProfilerTest, SectionsNestAndRestore) {
  Profiler& profiler = Profiler::Global();
  {
    Profiler::Section outer("test.outer");
    { Profiler::Section inner("test.inner"); }
    // Destructor of inner restored the outer annotation; nothing to
    // assert directly without the sampler, but this must not crash and
    // must be re-entrant.
    Profiler::Section again("test.inner");
  }
  (void)profiler;
}

TEST(LockStatsTest, AcquireProfiledCountsUncontendedAndContended) {
  MetricsRegistry registry;
  const LockStats stats = LockStats::FromRegistry(&registry, "test.lock");
  std::mutex mu;

  // Uncontended: acquires ticks, contended does not.
  { auto lock = AcquireProfiled(mu, stats); }
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.lock.acquires"), 1u);
  EXPECT_EQ(snap.counters.count("test.lock.contended") != 0
                ? snap.counters.at("test.lock.contended")
                : 0u,
            0u);

  // Contended: a second thread blocks on a held mutex.
  {
    std::unique_lock<std::mutex> holder(mu);
    std::thread contender([&] { auto lock = AcquireProfiled(mu, stats); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    holder.unlock();
    contender.join();
  }
  snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.lock.acquires"), 2u);
  EXPECT_EQ(snap.counters.at("test.lock.contended"), 1u);
  EXPECT_GE(snap.Percentiles("test.lock.wait_us").count, 1u);
}

TEST(LockStatsTest, NullRegistryIsSafe) {
  const LockStats stats = LockStats::FromRegistry(nullptr, "test.lock");
  std::mutex mu;
  auto lock = AcquireProfiled(mu, stats);  // all-null handles: no-op
  EXPECT_TRUE(lock.owns_lock());
}

// --- flight recorder ---------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsInOrder) {
  FlightRecorder rec(64);
  rec.Record(FlightEventType::kViewChange, 1, 7, 3, "installed");
  rec.Record(FlightEventType::kValidation, 2, 41, 0, "accounts/[5]");
  EXPECT_EQ(rec.TotalRecorded(), 2u);

  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, FlightEventType::kViewChange);
  EXPECT_EQ(events[0].replica, 1u);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 3u);
  EXPECT_EQ(events[0].detail, "installed");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].type, FlightEventType::kValidation);
  EXPECT_EQ(events[1].detail, "accounts/[5]");

  const std::string text = rec.DumpText();
  EXPECT_NE(text.find("view_change"), std::string::npos);
  EXPECT_NE(text.find("validation_abort"), std::string::npos);
  EXPECT_NE(text.find("accounts/[5]"), std::string::npos);
}

TEST(FlightRecorderTest, DetailIsTruncatedNotCorrupted) {
  FlightRecorder rec(64);
  const std::string long_detail(200, 'k');
  rec.Record(FlightEventType::kInvariant, 0, 1, 2, long_detail);
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].detail.size(), FlightRecorder::kDetailBytes);
  EXPECT_EQ(events[0].detail,
            long_detail.substr(0, events[0].detail.size()));
}

TEST(FlightRecorderTest, WraparoundUnderConcurrentWriters) {
  // The ring is much smaller than the event volume: every slot is
  // overwritten dozens of times from 4 threads at once. The dump must
  // still return only fully-published, untorn events (TSan-checked).
  FlightRecorder rec(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Record(FlightEventType::kQueueHighWater,
                   static_cast<uint32_t>(t), i, i * 2, "mw.tocommit");
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rec.TotalRecorded(), kThreads * kPerThread);
  const auto events = rec.Dump();
  EXPECT_LE(events.size(), rec.capacity());
  EXPECT_GT(events.size(), 0u);
  uint64_t prev_seq = 0;
  bool first = true;
  for (const auto& e : events) {
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);  // oldest first, strictly
    }
    prev_seq = e.seq;
    first = false;
    // Field consistency proves the slot was not torn.
    EXPECT_EQ(e.type, FlightEventType::kQueueHighWater);
    EXPECT_LT(e.replica, static_cast<uint32_t>(kThreads));
    EXPECT_EQ(e.b, e.a * 2);
    EXPECT_EQ(e.detail, "mw.tocommit");
    // Survivors are from the most recent window of claims.
    EXPECT_GE(e.seq, kThreads * kPerThread - rec.capacity());
  }
}

TEST(FlightRecorderTest, DumpWhileWritingSkipsTornSlots) {
  FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&rec, &stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        rec.Record(FlightEventType::kFailpoint, 9, i, i + 1, "fp.test");
        ++i;
      }
    });
  }
  for (int round = 0; round < 100; ++round) {
    for (const auto& e : rec.Dump()) {
      EXPECT_EQ(e.type, FlightEventType::kFailpoint);
      EXPECT_EQ(e.replica, 9u);
      EXPECT_EQ(e.b, e.a + 1);
      EXPECT_EQ(e.detail, "fp.test");
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(FlightRecorderTest, GlobalRecorderAppearsInDumpAll) {
  FlightRecorder::Global().Record(FlightEventType::kInvariant, 0, 11, 22,
                                  "obs_metrics_test marker");
  const std::string all = FlightRecorder::DumpAllText();
  EXPECT_NE(all.find("obs_metrics_test marker"), std::string::npos);
}

void NapMs() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

/// CPU time the calling thread has used, in ns.
uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

TEST(ThreadCpuTest, SumsCpuByRole) {
  constexpr uint64_t kMs = 1'000'000;
  std::atomic<bool> burned{false};
  std::atomic<bool> done{false};
  std::thread burner([&] {
    while (ThreadCpuNs() < 60 * kMs) {
    }
    burned.store(true);
    while (!done.load()) NapMs();
  });
  NameThread(burner, "burn/0");
  std::thread idler([&] {
    while (!done.load()) NapMs();
  });
  NameThread(idler, "idle/0");
  while (!burned.load()) NapMs();

  // Both readings while the threads still run: an exited thread's time
  // is gone from /proc/self/task.
  const std::map<std::string, RoleCpu> roles = ReadThreadCpuByRole();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  done.store(true);
  burner.join();
  idler.join();

  ASSERT_EQ(roles.count("burn"), 1u);
  EXPECT_EQ(roles.at("burn").threads, 1);
  EXPECT_GE(roles.at("burn").cpu_ns, 30 * kMs);  // 10 ms ticks
  ASSERT_EQ(roles.count("idle"), 1u);
  EXPECT_LT(roles.at("idle").cpu_ns, 20 * kMs);
  EXPECT_GT(roles.at("idle").ctx_switches, 0u);  // it naps

  uint64_t sum_ns = 0;
  int threads = 0;
  for (const auto& [role, cpu] : roles) {
    sum_ns += cpu.cpu_ns;
    threads += cpu.threads;
  }
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
  };
  const uint64_t process_ns = ns(usage.ru_utime) + ns(usage.ru_stime);
  EXPECT_LE(sum_ns, process_ns + 10 * kMs * static_cast<uint64_t>(threads));
}

}  // namespace
}  // namespace sirep::obs
