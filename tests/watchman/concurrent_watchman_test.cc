// Concurrency tests of the Watchman facade: single-flight deduplication
// of identical missed queries, races between concurrent execution, hits
// and relation invalidation on a sharded cache, and exact reference
// accounting under those races. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "watchman/watchman.h"

namespace watchman {
namespace {

/// Deterministic payload for a query text, so every thread can verify
/// the bytes it was served.
std::string PayloadFor(const std::string& text) {
  return "payload(" + text + ")";
}

TEST(ConcurrentWatchmanTest, SingleFlightDedupsConcurrentIdenticalMisses) {
  std::atomic<int> executions{0};
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.num_shards = 8;
  Watchman wm(std::move(opts), [&executions](const std::string& text)
                  -> StatusOr<Watchman::ExecutionResult> {
    executions.fetch_add(1);
    // Keep the flight open long enough for all threads to pile in.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Watchman::ExecutionResult{PayloadFor(text), 500, {}};
  });

  constexpr int kThreads = 8;
  std::barrier start(kThreads);
  std::atomic<int> wrong_payloads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const std::string text = "select sum(profit) from lineitem";
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      auto result = wm.Execute(text);
      if (!result.ok()) {
        failures.fetch_add(1);
      } else if (*result != PayloadFor(text)) {
        wrong_payloads.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  EXPECT_EQ(executions.load(), 1);  // one warehouse execution for all 8
  EXPECT_TRUE(wm.IsCached(text));
  const CacheStats stats = wm.stats();
  EXPECT_EQ(stats.lookups, 8u);
  // Every deduplicated caller still counted one reference; all but the
  // first offer landed as hits on the admitted set.
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_TRUE(wm.cache().CheckInvariants().ok());
}

TEST(ConcurrentWatchmanTest, ExecutorErrorsPropagateToAllWaiters) {
  std::atomic<int> executions{0};
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.num_shards = 4;
  Watchman wm(std::move(opts), [&executions](const std::string&)
                  -> StatusOr<Watchman::ExecutionResult> {
    executions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Status::IOError("warehouse down");
  });
  constexpr int kThreads = 4;
  std::barrier start(kThreads);
  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      auto result = wm.Execute("select broken");
      if (!result.ok() && result.status().code() == StatusCode::kIOError) {
        io_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(io_errors.load(), kThreads);
  EXPECT_FALSE(wm.IsCached("select broken"));
}

TEST(ConcurrentWatchmanStressTest, ExecuteInvalidateRaces) {
  // A pool of queries over a few relations; worker threads execute
  // queries while an invalidator thread keeps dropping every set that
  // read relation r0. Every served payload must be the right bytes for
  // its text, and the cache must stay internally consistent throughout.
  constexpr int kWorkers = 6;
  constexpr int kOpsPerWorker = 1500;
  constexpr int kQuerySpace = 96;

  std::atomic<uint64_t> executions{0};
  Watchman::Options opts;
  opts.capacity_bytes = 96 << 10;  // small: forces constant replacement
  opts.num_shards = 8;
  Watchman wm(std::move(opts), [&executions](const std::string& text)
                  -> StatusOr<Watchman::ExecutionResult> {
    executions.fetch_add(1);
    Watchman::ExecutionResult result;
    result.payload = PayloadFor(text);
    // Pad to varied sizes so replacement stays busy.
    result.payload.resize(200 + (text.size() * 37) % 2000, '#');
    result.cost = 100 + text.size();
    result.relations = {"r" + std::to_string(text.size() % 4)};
    return result;
  });

  std::atomic<bool> stop{false};
  std::atomic<int> wrong_payloads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      uint64_t state = 0x9e3779b97f4a7c15ull * (w + 1);
      for (int i = 0; i < kOpsPerWorker; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::string text =
            "select q" + std::to_string((state >> 33) % kQuerySpace);
        auto result = wm.Execute(text);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (result->compare(0, PayloadFor(text).size(),
                                   PayloadFor(text)) != 0) {
          wrong_payloads.fetch_add(1);
        }
      }
    });
  }
  std::thread invalidator([&] {
    // Query texts are 9 or 10 bytes, so their reported relations are r1
    // and r2; r0 exercises the no-dependents path.
    while (!stop.load()) {
      wm.InvalidateRelation("r0");
      wm.InvalidateRelation("r1");
      wm.InvalidateRelation("r2");
      wm.Invalidate("select q1");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  EXPECT_TRUE(wm.cache().CheckInvariants().ok());
  const CacheStats stats = wm.stats();
  EXPECT_LE(stats.hits, stats.lookups);
  EXPECT_GE(stats.lookups, uint64_t{kWorkers} * kOpsPerWorker);
  EXPECT_LE(wm.used_bytes(), wm.capacity_bytes());
  // The cache must have been doing real work: hits happened, and the
  // invalidator actually dropped sets.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(wm.invalidations(), 0u);
  EXPECT_LT(executions.load(), uint64_t{kWorkers} * kOpsPerWorker);
}

TEST(ConcurrentWatchmanStressTest, EveryCallRecordsExactlyOneReference) {
  // The paper's accounting: one client call records exactly one
  // reference, because reference rates drive LNC-RA's profit and
  // admission. Threads mix the daemon's two-step GET-then-fill (probe
  // with GetCachedInto; on NotFound, an Execute whose executor stands in
  // for the client's fill), plain Executes and invalidations over a
  // small cache, so hits race admissions, evictions and erasures. Every
  // round the lookup count must equal the GET/EXECUTE calls exactly.
  constexpr int kRounds = 25;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  constexpr int kQuerySpace = 24;
  for (int round = 0; round < kRounds; ++round) {
    Watchman::Options opts;
    opts.capacity_bytes = 12 << 10;  // a third of the query space
    opts.num_shards = 4;
    Watchman wm(std::move(opts), [](const std::string& text)
                    -> StatusOr<Watchman::ExecutionResult> {
      Watchman::ExecutionResult result;
      result.payload = PayloadFor(text);
      result.payload.resize(300 + (text.size() * 53) % 900, '#');
      result.cost = 100 + text.size();
      result.relations = {"r" + std::to_string(text.back() % 3)};
      return result;
    });

    std::barrier start(kThreads);
    std::atomic<uint64_t> calls{0};
    std::atomic<int> wrong_payloads{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t state = 0x9e3779b97f4a7c15ull * (round * kThreads + t + 1);
        std::string payload;
        start.arrive_and_wait();
        for (int i = 0; i < kOpsPerThread; ++i) {
          state = state * 6364136223846793005ull + 1442695040888963407ull;
          const std::string text =
              "select q" + std::to_string((state >> 33) % kQuerySpace);
          const uint64_t op = (state >> 20) % 10;
          if (op == 0) {
            wm.Invalidate(text);
            continue;
          }
          if (op == 1) {
            wm.InvalidateRelation("r" + std::to_string(text.back() % 3));
            continue;
          }
          calls.fetch_add(1);
          if (op >= 4) {
            const Status got = wm.GetCachedInto(text, &payload);
            if (got.ok()) {
              if (payload.compare(0, PayloadFor(text).size(),
                                  PayloadFor(text)) != 0) {
                wrong_payloads.fetch_add(1);
              }
              continue;
            }
            if (got.code() != StatusCode::kNotFound) {
              failures.fetch_add(1);
              continue;
            }
          }
          auto result = wm.Execute(text);
          if (!result.ok()) {
            failures.fetch_add(1);
          } else if (result->compare(0, PayloadFor(text).size(),
                                     PayloadFor(text)) != 0) {
            wrong_payloads.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    ASSERT_EQ(failures.load(), 0) << "round " << round;
    ASSERT_EQ(wrong_payloads.load(), 0) << "round " << round;
    const CacheStats stats = wm.stats();
    ASSERT_EQ(stats.lookups, calls.load()) << "round " << round;
    ASSERT_GT(stats.hits, 0u) << "round " << round;
    ASSERT_GT(stats.evictions, 0u) << "round " << round;
    ASSERT_TRUE(wm.cache().CheckInvariants().ok()) << "round " << round;
  }
}

TEST(ConcurrentWatchmanTest, EmptyResultsNeverCachedUnderAnyPolicy) {
  // Zero-size retrieved sets must stay uncacheable for every policy the
  // factory can produce, or the facade would create phantom entries
  // that hit forever without a payload.
  for (const char* name : {"lru", "lfu", "gds", "lcs", "lnc-ra"}) {
    auto parsed = ParsePolicy(name);
    ASSERT_TRUE(parsed.ok()) << name;
    std::atomic<int> executions{0};
    Watchman::Options opts;
    opts.capacity_bytes = 1 << 20;
    opts.policy = *parsed;
    Watchman wm(std::move(opts), [&executions](const std::string&)
                    -> StatusOr<Watchman::ExecutionResult> {
      executions.fetch_add(1);
      return Watchman::ExecutionResult{"", 10, {}};
    });
    ASSERT_TRUE(wm.Execute("select nothing").ok()) << name;
    ASSERT_TRUE(wm.Execute("select nothing").ok()) << name;
    EXPECT_EQ(executions.load(), 2) << name;  // re-executed, never cached
    EXPECT_FALSE(wm.IsCached("select nothing")) << name;
    EXPECT_EQ(wm.stats().hits, 0u) << name;
    EXPECT_EQ(wm.cached_set_count(), 0u) << name;
  }
}

TEST(ConcurrentWatchmanTest, PolicyFactoryDrivesTheCache) {
  // The facade accepts any policy from the sim factory, not just LNC.
  for (const char* name : {"lru", "gds", "lfu", "lnc-ra"}) {
    auto parsed = ParsePolicy(name);
    ASSERT_TRUE(parsed.ok()) << name;
    Watchman::Options opts;
    opts.capacity_bytes = 1 << 20;
    opts.policy = *parsed;
    opts.num_shards = 2;
    Watchman wm(std::move(opts),
                [](const std::string& text)
                    -> StatusOr<Watchman::ExecutionResult> {
                  return Watchman::ExecutionResult{PayloadFor(text), 10, {}};
                });
    ASSERT_TRUE(wm.Execute("select a").ok());
    ASSERT_TRUE(wm.Execute("select a").ok());
    EXPECT_EQ(wm.stats().hits, 1u) << name;
    EXPECT_EQ(wm.policy_name().substr(0, 3),
              std::string(name).substr(0, 3));
  }
}

}  // namespace
}  // namespace watchman
