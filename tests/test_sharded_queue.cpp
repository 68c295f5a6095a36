// Contract tests of the Engine's job spine, the sharded lock-free MPMC
// queue (api/sharded_queue.hpp): bounded memory, blocking push/pop,
// close() + drain shutdown, owner-first/steal pops, and the close races
// (a producer or consumer woken by close() can neither strand nor invent
// an item).
#include "api/sharded_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace wavetune::api {
namespace {

using namespace std::chrono_literals;

// --- shape and bounds ---------------------------------------------------

TEST(ShardedQueue, RoundsShardsAndCapacityToPowersOfTwo) {
  ShardedQueue<int> q(10, 3);
  EXPECT_EQ(q.shard_count(), 4u);
  // Effective capacity is never below the request and is per-shard pow2.
  EXPECT_GE(q.capacity(), 10u);
  EXPECT_EQ(q.capacity() % q.shard_count(), 0u);

  ShardedQueue<int> zero(0, 0);
  EXPECT_EQ(zero.shard_count(), 1u);
  EXPECT_GE(zero.capacity(), 1u);
}

TEST(ShardedQueue, SingleCellShardsArePromotedToTwoCells) {
  // A 1-cell Vyukov ring cannot tell full from empty ("free for push
  // #p+1" and "holds item #p" share one sequence value on one cell), so
  // the constructor must floor per-shard capacity at 2. Regression for
  // the bug where capacity 2 across 4 shards produced 1-cell rings that
  // accepted unbounded pushes and hot-spun consumers.
  ShardedQueue<int> q(2, 4);
  EXPECT_EQ(q.capacity(), 8u);  // 4 shards x 2 cells
  int overflow = 99;
  std::size_t accepted = 0;
  while (accepted < 64) {
    int v = static_cast<int>(accepted);
    if (!q.try_push(v)) break;
    ++accepted;
  }
  EXPECT_EQ(accepted, q.capacity());
  EXPECT_FALSE(q.try_push(overflow));
  // Every accepted item pops back out exactly once.
  std::size_t popped = 0;
  while (q.try_pop(0)) ++popped;
  EXPECT_EQ(popped, accepted);
}

TEST(ShardedQueue, TryPushHonorsTheBoundAndLeavesRejectedItemsIntact) {
  ShardedQueue<std::string> q(4, 2);
  std::size_t accepted = 0;
  for (;;) {
    std::string v = "item-" + std::to_string(accepted);
    if (!q.try_push(v)) {
      // Rejected payload stays in the caller's hands, untouched.
      EXPECT_EQ(v, "item-" + std::to_string(accepted));
      break;
    }
    ++accepted;
  }
  EXPECT_EQ(accepted, q.capacity());
  EXPECT_EQ(q.size(), accepted);
  // Popping one slot re-opens exactly one push.
  EXPECT_TRUE(q.try_pop(0).has_value());
  std::string again = "again";
  EXPECT_TRUE(q.try_push(again));
  std::string full = "full";
  EXPECT_FALSE(q.try_push(full));
}

TEST(ShardedQueue, SingleShardQueueIsFifo) {
  ShardedQueue<int> q(8, 1);
  EXPECT_EQ(q.shard_count(), 1u);
  for (int i = 0; i < 8; ++i) {
    int v = i;
    ASSERT_TRUE(q.try_push(v));
  }
  for (int i = 0; i < 8; ++i) {
    const std::optional<int> v = q.try_pop(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop(0).has_value());
}

TEST(ShardedQueue, OwnShardPopsReturnTheProducersItemsInOrderWithoutSteals) {
  ShardedQueue<int> q(64, 4);
  const std::size_t own = q.producer_shard();
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(q.try_push(v));
  }
  // Capacity is ample, so nothing fell over to a neighbour shard: the
  // five items sit consecutively in this thread's shard, and a consumer
  // whose own shard it is drains them in order without stealing.
  EXPECT_EQ(q.stats().push_fallovers, 0u);
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> v = q.try_pop(own);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.stats().pop_steals, 0u);
  EXPECT_FALSE(q.try_pop(own).has_value());
}

TEST(ShardedQueue, ProducerShardIsStablePerThread) {
  ShardedQueue<int> q(16, 4);
  EXPECT_EQ(q.producer_shard(), q.producer_shard());
}

TEST(ShardedQueue, FullOwnShardFallsOverBeforeBlocking) {
  ShardedQueue<int> q(8, 4);  // 2 cells per shard
  std::size_t accepted = 0;
  while (accepted < 64) {
    int v = static_cast<int>(accepted);
    if (!q.try_push(v)) break;
    ++accepted;
  }
  // One thread filled all four shards: every push past its own 2-cell
  // shard had to fall over.
  EXPECT_EQ(accepted, 8u);
  EXPECT_GE(q.stats().push_fallovers, 6u);
  EXPECT_EQ(q.stats().push_blocks, 0u);  // try_push never sleeps
}

TEST(ShardedQueue, DepthGaugeTracksPushAndPop) {
  ShardedQueue<int> q(8, 2);
  EXPECT_EQ(q.size(), 0u);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(q.try_push(v));
  }
  EXPECT_EQ(q.size(), 3u);
  ASSERT_TRUE(q.try_pop(0).has_value());
  EXPECT_EQ(q.size(), 2u);
  while (q.try_pop(0)) {
  }
  EXPECT_EQ(q.size(), 0u);
  const ShardedQueueStats s = q.stats();
  EXPECT_EQ(s.pushes, 3u);
  EXPECT_EQ(s.pops, 3u);
}

// --- close / drain ------------------------------------------------------

TEST(ShardedQueue, CloseFailsNewPushesButDrainsAcceptedItems) {
  ShardedQueue<int> q(8, 2);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(q.try_push(v));
  }
  q.close();
  q.close();  // idempotent
  EXPECT_TRUE(q.closed());
  int rejected = 99;
  EXPECT_FALSE(q.try_push(rejected));
  EXPECT_FALSE(q.push(100));
  // The three accepted items still drain, then pop reports closed+empty.
  std::vector<int> drained;
  while (std::optional<int> v = q.pop(0)) drained.push_back(*v);
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(q.pop(0).has_value());  // stays closed+drained
}

TEST(ShardedQueue, CloseWakesBlockedConsumers) {
  ShardedQueue<int> q(8, 2);
  std::atomic<int> finished{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      EXPECT_FALSE(q.pop(0).has_value());
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(20ms);  // let them reach the blocking pop
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 3);
}

TEST(ShardedQueue, CloseWakesBlockedProducers) {
  ShardedQueue<int> q(4, 1);
  std::size_t accepted = 0;
  while (true) {
    int v = static_cast<int>(accepted);
    if (!q.try_push(v)) break;
    ++accepted;
  }
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      if (!q.push(-1)) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(20ms);  // let them block on the full queue
  q.close();
  for (auto& t : producers) t.join();
  // Both blocked producers returned false; nothing of theirs enqueued.
  EXPECT_EQ(rejected.load(), 2);
  EXPECT_EQ(q.size(), accepted);
}

TEST(ShardedQueue, BlockedPushResumesWhenAPopFreesASlot) {
  ShardedQueue<int> q(4, 1);
  while (true) {
    int v = 0;
    if (!q.try_push(v)) break;
  }
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(42));
    pushed.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load());  // still blocked: queue is full
  EXPECT_TRUE(q.try_pop(0).has_value());
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.stats().push_blocks, 1u);
  q.close();
}

TEST(ShardedQueue, BlockedPopResumesWhenAPushArrives) {
  ShardedQueue<int> q(8, 2);
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    if (const std::optional<int> v = q.pop(0)) got.store(*v);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(q.push(7));
  consumer.join();
  EXPECT_EQ(got.load(), 7);
  q.close();
}

// --- MPMC stress --------------------------------------------------------

TEST(ShardedQueueStress, EightProducersFourConsumersAccountForEveryToken) {
  constexpr int kProducers = 8;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  ShardedQueue<int> q(32, 4);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::mutex popped_mutex;
  std::vector<int> popped;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<int> mine;
      while (std::optional<int> v = q.pop(static_cast<std::size_t>(c))) mine.push_back(*v);
      std::lock_guard<std::mutex> lock(popped_mutex);
      popped.insert(popped.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  // Exactly-once delivery: every token appears exactly once.
  ASSERT_EQ(popped.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(popped.begin(), popped.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);

  const ShardedQueueStats s = q.stats();
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(s.pops, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ShardedQueueStress, RandomizedCloseUnderLoadNeverLosesOrDuplicatesItems) {
  // The shutdown contract under fire, 100 randomized iterations: some
  // pushes are rejected by the close (fine — the producer keeps the
  // payload and can fail it upward), but every ACCEPTED item must be
  // popped exactly once before pop() reports closed+drained.
  std::mt19937 rng(20260808u);
  for (int iter = 0; iter < 100; ++iter) {
    ShardedQueue<int> q(1u << (rng() % 4), 1u << (rng() % 3));
    const int producers = 2 + static_cast<int>(rng() % 3);
    const int consumers = 1 + static_cast<int>(rng() % 3);
    const int per_producer = 20 + static_cast<int>(rng() % 30);
    const auto close_after = std::chrono::microseconds(rng() % 400);

    std::atomic<std::uint64_t> accepted_sum{0};
    std::atomic<std::uint64_t> accepted_count{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < per_producer; ++i) {
          const int token = p * per_producer + i + 1;
          // Mix blocking and non-blocking pushes.
          bool ok;
          if (i % 3 == 0) {
            int v = token;
            ok = q.try_push(v);
          } else {
            ok = q.push(token);
          }
          if (ok) {
            accepted_sum.fetch_add(static_cast<std::uint64_t>(token));
            accepted_count.fetch_add(1);
          }
          if (q.closed()) break;
        }
      });
    }
    std::atomic<std::uint64_t> popped_sum{0};
    std::atomic<std::uint64_t> popped_count{0};
    std::vector<std::thread> consumer_threads;
    for (int c = 0; c < consumers; ++c) {
      consumer_threads.emplace_back([&, c] {
        while (std::optional<int> v = q.pop(static_cast<std::size_t>(c))) {
          popped_sum.fetch_add(static_cast<std::uint64_t>(*v));
          popped_count.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(close_after);
    q.close();
    for (auto& t : threads) t.join();
    for (auto& t : consumer_threads) t.join();

    EXPECT_EQ(popped_count.load(), accepted_count.load()) << "iteration " << iter;
    EXPECT_EQ(popped_sum.load(), accepted_sum.load()) << "iteration " << iter;
    EXPECT_FALSE(q.pop(0).has_value());
  }
}

}  // namespace
}  // namespace wavetune::api
