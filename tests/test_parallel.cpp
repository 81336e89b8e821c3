// Tests for the thread pool, parallel_for, and the deterministic trial
// runner (scheduling independence is the key property).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"

namespace gp = geochoice::parallel;

TEST(ThreadPool, RunsAllTasks) {
  gp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  gp::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  gp::ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.submit([i] {
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  gp::ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait();
  // One worker: tasks run in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  gp::ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  gp::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  gp::parallel_for(pool, 0, hits.size(),
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  gp::ThreadPool pool(2);
  int runs = 0;
  gp::parallel_for(pool, 5, 5, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  std::atomic<int> one{0};
  gp::parallel_for(pool, 7, 8, [&one](std::size_t i) {
    EXPECT_EQ(i, 7u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelFor, TransientPoolOverload) {
  std::atomic<std::size_t> sum{0};
  gp::parallel_for(0, 100, [&sum](std::size_t i) { sum.fetch_add(i); }, 2);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  auto fn = [](std::uint64_t trial, geochoice::rng::DefaultEngine& gen) {
    // Consume a trial-dependent amount of randomness to stress ordering.
    std::uint64_t acc = trial;
    for (std::uint64_t i = 0; i <= trial % 7; ++i) acc ^= gen();
    return acc;
  };
  const auto r1 = gp::run_trials(64, 42, fn, 1);
  const auto r4 = gp::run_trials(64, 42, fn, 4);
  const auto r8 = gp::run_trials(64, 42, fn, 8);
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(r1, r8);
}

TEST(TrialRunner, DifferentSeedsDiffer) {
  auto fn = [](std::uint64_t, geochoice::rng::DefaultEngine& gen) {
    return gen();
  };
  const auto a = gp::run_trials(8, 1, fn, 2);
  const auto b = gp::run_trials(8, 2, fn, 2);
  EXPECT_NE(a, b);
}

TEST(TrialRunner, TrialsAreIndependentStreams) {
  auto fn = [](std::uint64_t, geochoice::rng::DefaultEngine& gen) {
    return gen();
  };
  const auto r = gp::run_trials(100, 7, fn, 2);
  // All first draws distinct (collision probability ~ 1e-16).
  std::vector<std::uint64_t> sorted = r;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}
