// Unit tests for the common utilities: Status/Result, Prng/Zipf,
// SampleStats, and the synchronization primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/sync.h"

namespace sirep {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Conflict("tuple X");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_EQ(st.message(), "tuple X");
  EXPECT_EQ(st.ToString(), "Conflict: tuple X");
}

TEST(StatusTest, TransactionFailureClassification) {
  EXPECT_TRUE(Status::Aborted("x").IsTransactionFailure());
  EXPECT_TRUE(Status::Conflict("x").IsTransactionFailure());
  EXPECT_TRUE(Status::Deadlock("x").IsTransactionFailure());
  EXPECT_TRUE(Status::TransactionLost("x").IsTransactionFailure());
  EXPECT_FALSE(Status::NotFound("x").IsTransactionFailure());
  EXPECT_FALSE(Status::OK().IsTransactionFailure());
  EXPECT_FALSE(Status::Unavailable("x").IsTransactionFailure());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::NotFound("gone"); };
  auto wrapper = [&]() -> Status {
    SIREP_RETURN_IF_ERROR(fails());
    return Status::Internal("not reached");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(PrngTest, DeterministicForSameSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(PrngTest, UniformInRange) {
  Prng prng(9);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = prng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = prng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng prng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = prng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(PrngTest, ExponentialHasRequestedMean) {
  Prng prng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += prng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Prng prng(3);
  ZipfGenerator zipf(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(prng)];
  // Rank 0 should be sampled far more often than rank 50.
  EXPECT_GT(counts[0], counts[50] * 5);
  // Everything within range.
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Prng prng(4);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(prng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 0.1);
}

TEST(SampleStatsTest, MergeCombines) {
  SampleStats a, b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(3.0);
  b.Add(4.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.5);
}

TEST(WorkQueueTest, FifoOrder) {
  WorkQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(WorkQueueTest, CloseDrainsThenEnds) {
  WorkQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(WorkQueueTest, BlockingPopWakesOnPush) {
  WorkQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(99);
  });
  auto v = q.Pop();
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 99);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Semaphore sem(2);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      sem.Acquire();
      const int now = concurrent.fetch_add(1) + 1;
      int expected = max_seen.load();
      while (now > expected &&
             !max_seen.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
      sem.Release();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_seen.load(), 2);
}

TEST(SemaphoreTest, TryAcquire) {
  Semaphore sem(1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(CountDownLatchTest, ReleasesAtZero) {
  CountDownLatch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(CountDownLatchTest, WaitForTimesOut) {
  CountDownLatch latch(1);
  EXPECT_FALSE(latch.WaitFor(std::chrono::milliseconds(10)));
  latch.CountDown();
  EXPECT_TRUE(latch.WaitFor(std::chrono::milliseconds(10)));
}

}  // namespace
}  // namespace sirep
