#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/runtime/cluster.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/runtime/wire.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::runtime {
namespace {

TEST(Comm, PointToPointValue) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 0) {
      rank.sendValue<std::uint64_t>(1, 5, 0xABCDu);
    } else {
      const Message message = rank.recv(0, 5);
      EXPECT_EQ(message.source, 0);
      EXPECT_EQ(message.tag, 5);
      EXPECT_EQ(message.value<std::uint64_t>(), 0xABCDu);
    }
  });
}

TEST(Comm, VectorPayloadRoundTrip) {
  Communicator::run(2, [](RankHandle& rank) {
    const std::vector<std::uint32_t> data{1, 2, 3, 4, 5};
    if (rank.rank() == 0) {
      rank.sendVector<std::uint32_t>(1, 0, data);
    } else {
      EXPECT_EQ(rank.recv().as<std::uint32_t>(), data);
    }
  });
}

TEST(Comm, EmptyPayloadDelivered) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 0) {
      rank.sendVector<std::uint32_t>(1, 9, {});
    } else {
      const Message message = rank.recv(0, 9);
      EXPECT_TRUE(message.payload.empty());
      EXPECT_TRUE(message.as<std::uint32_t>().empty());
    }
  });
}

TEST(Comm, FifoPerSourceAndTag) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 0) {
      for (std::uint64_t i = 0; i < 50; ++i) {
        rank.sendValue<std::uint64_t>(1, 3, i);
      }
    } else {
      for (std::uint64_t i = 0; i < 50; ++i) {
        EXPECT_EQ(rank.recv(0, 3).value<std::uint64_t>(), i);
      }
    }
  });
}

TEST(Comm, TagFilteringSkipsNonMatching) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 0) {
      rank.sendValue<int>(1, 1, 100);
      rank.sendValue<int>(1, 2, 200);
    } else {
      // Receive tag 2 first even though tag 1 arrived earlier.
      EXPECT_EQ(rank.recv(0, 2).value<int>(), 200);
      EXPECT_EQ(rank.recv(0, 1).value<int>(), 100);
    }
  });
}

TEST(Comm, WildcardSourceReceivesFromAnyone) {
  Communicator::run(3, [](RankHandle& rank) {
    if (rank.rank() != 0) {
      rank.sendValue<int>(0, 7, rank.rank());
    } else {
      std::set<int> sources;
      for (int i = 0; i < 2; ++i) {
        sources.insert(rank.recv(kAnySource, 7).value<int>());
      }
      EXPECT_EQ(sources, (std::set<int>{1, 2}));
    }
  });
}

TEST(Comm, TryRecvNonBlocking) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 1) {
      Message message;
      // Tag 43 is never sent: tryRecv must return false without blocking,
      // even while a tag-42 message may already be queued.
      EXPECT_FALSE(rank.tryRecv(message, 0, 43));
      EXPECT_EQ(rank.recv(0, 42).value<int>(), 1);
      rank.barrier();
      // After the barrier the tag-99 message is guaranteed queued.
      EXPECT_TRUE(rank.tryRecv(message, 0, 99));
      EXPECT_EQ(message.value<int>(), 2);
    } else {
      rank.sendValue<int>(1, 42, 1);
      rank.sendValue<int>(1, 99, 2);
      rank.barrier();
    }
  });
}

TEST(Comm, BarrierSynchronizesPhases) {
  std::atomic<int> phase{0};
  Communicator::run(4, [&phase](RankHandle& rank) {
    phase.fetch_add(1);
    rank.barrier();
    EXPECT_EQ(phase.load(), 4);
    rank.barrier();
    phase.fetch_sub(1);
    rank.barrier();
    EXPECT_EQ(phase.load(), 0);
  });
}

TEST(Comm, GatherCollectsAtRoot) {
  Communicator::run(3, [](RankHandle& rank) {
    const auto value = static_cast<std::uint32_t>(rank.rank() * 10);
    const auto bytes = std::as_bytes(std::span<const std::uint32_t>(&value, 1));
    const auto buffers = rank.gather(0, bytes);
    if (rank.rank() == 0) {
      ASSERT_EQ(buffers.size(), 3u);
      for (int source = 0; source < 3; ++source) {
        std::uint32_t got = 0;
        std::memcpy(&got, buffers[source].data(), sizeof(got));
        EXPECT_EQ(got, static_cast<std::uint32_t>(source * 10));
      }
    } else {
      EXPECT_TRUE(buffers.empty());
    }
  });
}

TEST(Comm, BroadcastDeliversRootBytes) {
  Communicator::run(4, [](RankHandle& rank) {
    std::uint64_t value = rank.rank() == 2 ? 777u : 0u;
    const auto out = rank.broadcast(
        2, std::as_bytes(std::span<const std::uint64_t>(&value, 1)));
    std::uint64_t got = 0;
    std::memcpy(&got, out.data(), sizeof(got));
    EXPECT_EQ(got, 777u);
  });
}

TEST(Comm, AllReduceSum) {
  Communicator::run(5, [](RankHandle& rank) {
    const auto result = rank.allReduceU64(
        static_cast<std::uint64_t>(rank.rank() + 1),
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(result, 15u);  // 1+2+3+4+5
  });
}

TEST(Comm, AllReduceMax) {
  Communicator::run(4, [](RankHandle& rank) {
    const auto result = rank.allReduceU64(
        static_cast<std::uint64_t>(rank.rank() * 7),
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
    EXPECT_EQ(result, 21u);
  });
}

TEST(Comm, AllReduceMin) {
  Communicator::run(4, [](RankHandle& rank) {
    // Rank 2 holds the minimum; every rank must agree on it.
    const std::uint64_t mine = rank.rank() == 2 ? 3u : 100u + rank.rank();
    EXPECT_EQ(rank.allReduceMinU64(mine), 3u);
  });
}

TEST(Comm, AllReduceMinSingleRank) {
  Communicator::run(1, [](RankHandle& rank) {
    EXPECT_EQ(rank.allReduceMinU64(42u), 42u);
  });
}

TEST(Comm, RingPassAccumulates) {
  // Token circles the ring twice, each rank adding its id.
  constexpr int kRanks = 6;
  Communicator::run(kRanks, [](RankHandle& rank) {
    const int next = (rank.rank() + 1) % kRanks;
    if (rank.rank() == 0) {
      rank.sendValue<std::uint64_t>(next, 0, 0);
      std::uint64_t token = 0;
      for (int lap = 0; lap < 2; ++lap) {
        token = rank.recv(kRanks - 1, 0).value<std::uint64_t>();
        if (lap == 0) {
          rank.sendValue<std::uint64_t>(next, 0, token);
        }
      }
      // Each lap adds 1+2+...+(kRanks-1) = 15.
      EXPECT_EQ(token, 30u);
    } else {
      for (int lap = 0; lap < 2; ++lap) {
        const auto token = rank.recv(rank.rank() - 1, 0).value<std::uint64_t>();
        rank.sendValue<std::uint64_t>(
            next, 0, token + static_cast<std::uint64_t>(rank.rank()));
      }
    }
  });
}

TEST(Comm, MessageStormAllDelivered) {
  // Every rank sends 200 messages to every other rank with mixed tags;
  // totals and per-(source, tag) FIFO order must survive.
  constexpr int kRanks = 4;
  constexpr int kPerPair = 200;
  Communicator::run(kRanks, [](RankHandle& rank) {
    util::Rng rng(static_cast<std::uint64_t>(rank.rank()) + 1);
    for (int dest = 0; dest < kRanks; ++dest) {
      if (dest == rank.rank()) {
        continue;
      }
      for (std::uint32_t i = 0; i < kPerPair; ++i) {
        const int tag = static_cast<int>(rng.uniformBelow(3));
        rank.sendValue<std::uint32_t>(dest, tag, (tag << 16) | i);
      }
    }
    // Receive everything addressed to us; per (source, tag) payload
    // sequence indices must arrive increasing.
    std::map<std::pair<int, int>, std::uint32_t> lastIndex;
    for (int i = 0; i < (kRanks - 1) * kPerPair; ++i) {
      const Message message = rank.recv();
      const auto value = message.value<std::uint32_t>();
      EXPECT_EQ(static_cast<int>(value >> 16), message.tag);
      const auto key = std::make_pair(message.source, message.tag);
      const std::uint32_t index = value & 0xFFFF;
      const auto it = lastIndex.find(key);
      if (it != lastIndex.end()) {
        EXPECT_GT(index, it->second) << "FIFO violated for source "
                                     << message.source << " tag "
                                     << message.tag;
      }
      lastIndex[key] = index;
    }
    Message leftover;
    rank.barrier();
    EXPECT_FALSE(rank.tryRecv(leftover));
  });
}

TEST(Comm, ExceptionPropagatesFromAnyRank) {
  EXPECT_THROW(Communicator::run(3,
                                 [](RankHandle& rank) {
                                   if (rank.rank() == 1) {
                                     throw std::runtime_error("rank failure");
                                   }
                                   // Other ranks block; abort must wake them.
                                   rank.recv(1, 99);
                                 }),
               std::runtime_error);
}

TEST(Comm, InvalidDestinationRejected) {
  Communicator::run(2, [](RankHandle& rank) {
    if (rank.rank() == 0) {
      EXPECT_THROW(rank.sendValue<int>(5, 0, 1), std::invalid_argument);
    }
  });
}

TEST(RankTeam, ServicesPersistAcrossRounds) {
  constexpr int kStopTag = 1;
  constexpr int kWorkTag = 2;
  // Echo service: doubles each value until told to stop. Unlike
  // Communicator::run, the same service threads serve every round.
  RankTeam team(4, [](RankHandle& rank) {
    Message message;
    while (true) {
      if (rank.tryRecv(message, 0, kStopTag)) {
        return;
      }
      if (rank.tryRecv(message, 0, kWorkTag)) {
        rank.sendValue<std::uint64_t>(0, kWorkTag,
                                      message.value<std::uint64_t>() * 2);
      } else {
        std::this_thread::yield();
      }
    }
  });
  RankHandle& root = team.root();
  for (std::uint64_t round = 0; round < 5; ++round) {
    for (int dest = 1; dest < team.size(); ++dest) {
      root.sendValue<std::uint64_t>(dest, kWorkTag, round * 10 + dest);
    }
    std::uint64_t sum = 0;
    for (int source = 1; source < team.size(); ++source) {
      sum += root.recv(kAnySource, kWorkTag).value<std::uint64_t>();
    }
    EXPECT_EQ(sum, (round * 10 + 1 + round * 10 + 2 + round * 10 + 3) * 2);
  }
  for (int dest = 1; dest < team.size(); ++dest) {
    root.sendValue<int>(dest, kStopTag, 0);
  }
  // Destructor joins the (now returning) services.
}

TEST(RankTeam, ServiceExceptionSurfacesAtRoot) {
  RankTeam team(3, [](RankHandle& rank) {
    if (rank.rank() == 1) {
      throw std::runtime_error("service failure");
    }
    rank.recv(0, 7);  // blocks until the failure aborts the communicator
  });
  // The abort wakes the root's recv; the recorded service error explains it.
  EXPECT_THROW(team.root().recv(1, 7), std::runtime_error);
  EXPECT_THROW(team.rethrowServiceError(), std::runtime_error);
  EXPECT_NE(team.serviceError(), nullptr);
}

TEST(RankTeam, DestructorAbortsBlockedServices) {
  // Services parked in recv with no stop protocol: the destructor's abort
  // must wake and join them without hanging.
  RankTeam team(3, [](RankHandle& rank) { rank.recv(0, 9); });
  EXPECT_EQ(team.size(), 3);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.waitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SubmitTaskReturnsResults) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submitTask([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitTaskMoveOnlyResult) {
  ThreadPool pool(2);
  auto future = pool.submitTask(
      [] { return std::make_unique<int>(42); });
  EXPECT_EQ(*future.get(), 42);
}

TEST(ThreadPool, SubmitTaskExceptionSurfacesInFuture) {
  ThreadPool pool(2);
  auto future = pool.submitTask(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The future captured the exception; waitIdle must stay clean and the
  // pool usable.
  pool.waitIdle();
  EXPECT_EQ(pool.submitTask([] { return 7; }).get(), 7);
}

TEST(ThreadPool, FireAndForgetExceptionSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.waitIdle(), std::logic_error);
  // First exception wins and is consumed; the pool keeps working.
  pool.waitIdle();
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, WorkerSurvivesThrowingTasksAmongGoodOnes) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 3) {
      pool.submit([] { throw std::runtime_error("sporadic"); });
    } else {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 180);  // every non-throwing task still ran
}

TEST(ThreadPool, ConcurrentProducersHammer) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int producer = 0; producer < 6; ++producer) {
    producers.emplace_back([&pool, &counter] {
      for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 25; ++i) {
          pool.submit([&counter] { counter.fetch_add(1); });
        }
        pool.waitIdle();  // waiting while others submit must be safe
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 6 * 20 * 25);
}

TEST(ThreadPool, ConcurrentProducersMixedFutures) {
  ThreadPool pool(3);
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> total{0};
  for (int producer = 0; producer < 4; ++producer) {
    producers.emplace_back([&pool, &total, producer] {
      std::uint64_t sum = 0;
      std::vector<std::future<int>> futures;
      for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submitTask([producer, i] {
          return producer * 1000 + i;
        }));
      }
      for (auto& future : futures) {
        sum += static_cast<std::uint64_t>(future.get());
      }
      total.fetch_add(sum);
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  // sum over producers p of (100*1000p + 0+1+...+99)
  std::uint64_t expected = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {
    expected += 100 * 1000 * p + 99 * 100 / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelFor, ComputesEveryIndexOnce) {
  std::vector<std::atomic<int>> touched(1000);
  parallelFor(1000, 4, [&touched](std::uint64_t i) {
    touched[i].fetch_add(1);
  });
  for (const auto& count : touched) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ParallelFor, WorkerIndexOwnsItsScratch) {
  // Plain (non-atomic) per-worker sums: TSan flags any index shared by two
  // threads at once.
  std::vector<std::uint64_t> sums(4, 0);
  std::vector<std::atomic<int>> touched(1000);
  parallelForWorkers(1000, 4, [&](unsigned worker, std::uint64_t i) {
    if (worker >= sums.size()) {
      ADD_FAILURE() << "worker index " << worker << " out of range";
      return;
    }
    sums[worker] += i;
    touched[i].fetch_add(1);
  });
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::uint64_t{0}),
            999u * 1000u / 2);
  for (const auto& count : touched) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ParallelFor, ZeroCountNoop) {
  parallelFor(0, 4, [](std::uint64_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(parallelFor(100, 4,
                           [](std::uint64_t i) {
                             if (i == 50) {
                               throw std::logic_error("boom");
                             }
                           }),
               std::logic_error);
}

// ---- tree reduce ----------------------------------------------------------

TEST(TreeReduce, FoldsEverythingIntoFront) {
  // Sum with a non-invertible trace of which elements were merged: the
  // result must contain every input exactly once regardless of tree shape.
  for (const std::size_t count : {1u, 2u, 3u, 5u, 7u, 8u, 13u, 16u, 17u}) {
    std::vector<std::uint64_t> items(count);
    for (std::size_t i = 0; i < count; ++i) {
      items[i] = std::uint64_t{1} << i;  // distinct bits
    }
    const TreeReduceStats stats = treeReduce(
        items, 4, [](std::uint64_t& into, std::uint64_t& from) {
          into |= from;
          from = 0;
        });
    EXPECT_EQ(items.front(), (std::uint64_t{1} << count) - 1)
        << "count=" << count;
    EXPECT_EQ(stats.merges, count - 1) << "count=" << count;
    unsigned expectedDepth = 0;
    for (std::size_t span = 1; span < count; span *= 2) {
      ++expectedDepth;
    }
    EXPECT_EQ(stats.depth, expectedDepth) << "count=" << count;
  }
}

TEST(TreeReduce, OddWorkerCountsAndSingleItem) {
  for (const unsigned workers : {1u, 3u, 5u, 7u}) {
    std::vector<std::uint64_t> items{3, 5, 7, 11, 13};
    treeReduce(items, workers,
               [](std::uint64_t& into, std::uint64_t& from) { into += from; });
    EXPECT_EQ(items.front(), 39u) << "workers=" << workers;
  }
  std::vector<std::uint64_t> single{42};
  const TreeReduceStats stats = treeReduce(
      single, 4, [](std::uint64_t&, std::uint64_t&) { FAIL() << "no merge"; });
  EXPECT_EQ(single.front(), 42u);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.merges, 0u);
}

TEST(TreeReduce, EmptyItemsNoop) {
  std::vector<int> items;
  const TreeReduceStats stats =
      treeReduce(items, 4, [](int&, int&) { FAIL() << "no merge"; });
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.merges, 0u);
}

// ---- partitioner ----------------------------------------------------------

std::vector<std::uint64_t> randomWeights(std::uint64_t seed, std::size_t count,
                                         std::uint64_t maxWeight) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> weights(count);
  for (auto& weight : weights) {
    weight = 1 + rng.uniformBelow(maxWeight);
  }
  return weights;
}

void expectValidPartition(const Partition& partition, std::size_t items,
                          std::span<const std::uint64_t> weights) {
  std::vector<int> seen(items, 0);
  for (std::size_t bin = 0; bin < partition.assignment.size(); ++bin) {
    std::uint64_t load = 0;
    for (std::size_t item : partition.assignment[bin]) {
      ASSERT_LT(item, items);
      ++seen[item];
      load += weights[item];
    }
    EXPECT_EQ(load, partition.loads[bin]);
  }
  for (std::size_t item = 0; item < items; ++item) {
    EXPECT_EQ(seen[item], 1) << "item " << item << " assigned wrong number";
  }
}

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(PartitionProperty, AllStrategiesAssignEachItemOnce) {
  const auto [seed, bins] = GetParam();
  const auto weights = randomWeights(seed, 200, 1000);
  for (const Partition& partition :
       {partitionGreedyLpt(weights, bins), partitionRoundRobin(weights, bins),
        partitionContiguous(weights, bins)}) {
    expectValidPartition(partition, weights.size(), weights);
    EXPECT_EQ(partition.totalLoad(),
              std::accumulate(weights.begin(), weights.end(), 0ull));
  }
}

TEST_P(PartitionProperty, LptNeverWorseThanNaive) {
  const auto [seed, bins] = GetParam();
  const auto weights = randomWeights(seed, 200, 1000);
  const auto lpt = partitionGreedyLpt(weights, bins).makespan();
  EXPECT_LE(lpt, partitionRoundRobin(weights, bins).makespan());
  EXPECT_LE(lpt, partitionContiguous(weights, bins).makespan());
}

TEST_P(PartitionProperty, LptWithinApproximationBound) {
  const auto [seed, bins] = GetParam();
  const auto weights = randomWeights(seed, 200, 1000);
  const Partition lpt = partitionGreedyLpt(weights, bins);
  // Lower bounds on OPT: mean load and max single item.
  const double meanLoad = static_cast<double>(lpt.totalLoad()) /
                          static_cast<double>(bins);
  const double maxItem = static_cast<double>(
      *std::max_element(weights.begin(), weights.end()));
  const double optLowerBound = std::max(meanLoad, maxItem);
  EXPECT_LE(static_cast<double>(lpt.makespan()),
            (4.0 / 3.0) * optLowerBound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBins, PartitionProperty,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{7}, std::size_t{16})));

TEST(Partition, SkewedWeightsShowImbalanceContrast) {
  // One huge item plus many small ones: the paper's pathological case of a
  // single place with tens of thousands of collocated persons.
  std::vector<std::uint64_t> weights(64, 10);
  weights.push_back(10000);
  const Partition contiguous = partitionContiguous(weights, 8);
  const Partition lpt = partitionGreedyLpt(weights, 8);
  EXPECT_LT(lpt.imbalance(), contiguous.imbalance());
}

TEST(Partition, EmptyItemsYieldEmptyBins) {
  const Partition partition = partitionGreedyLpt({}, 4);
  EXPECT_EQ(partition.makespan(), 0u);
  EXPECT_DOUBLE_EQ(partition.imbalance(), 1.0);
}

TEST(Partition, RejectsZeroBins) {
  EXPECT_THROW(partitionGreedyLpt({}, 0), std::invalid_argument);
}

// ---- cluster ---------------------------------------------------------------

TEST(Cluster, ApplyDynamicCoversAllItems) {
  Cluster cluster(4);
  std::vector<std::atomic<int>> touched(500);
  cluster.applyDynamic(500, [&touched](std::size_t item, unsigned) {
    touched[item].fetch_add(1);
  });
  for (const auto& count : touched) {
    EXPECT_EQ(count.load(), 1);
  }
  EXPECT_EQ(cluster.workerBusySeconds().size(), 4u);
}

TEST(Cluster, ApplyPartitionedHonorsAssignment) {
  Cluster cluster(3);
  const std::vector<std::uint64_t> weights(30, 1);
  const Partition partition = partitionRoundRobin(weights, 3);
  std::vector<std::atomic<unsigned>> workerOf(30);
  cluster.applyPartitioned(partition, [&](std::size_t item, unsigned worker) {
    workerOf[item].store(worker + 1);
  });
  for (std::size_t item = 0; item < 30; ++item) {
    EXPECT_EQ(workerOf[item].load() - 1, item % 3);
  }
}

TEST(Cluster, PartitionBinCountMustMatchWorkers) {
  Cluster cluster(2);
  const std::vector<std::uint64_t> weights{1, 2, 3};
  const Partition partition = partitionRoundRobin(weights, 3);
  EXPECT_THROW(cluster.applyPartitioned(partition, [](std::size_t, unsigned) {}),
               std::invalid_argument);
}

TEST(Cluster, ExceptionPropagates) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.applyDynamic(10,
                                    [](std::size_t item, unsigned) {
                                      if (item == 3) {
                                        throw std::runtime_error("task failed");
                                      }
                                    }),
               std::runtime_error);
}

TEST(Cluster, BusyImbalanceIsAtLeastOne) {
  Cluster cluster(2);
  cluster.applyDynamic(100, [](std::size_t, unsigned) {
    double sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sink += i;
    }
    volatile double keep = sink;
    (void)keep;
  });
  EXPECT_GE(cluster.busyImbalance(), 1.0);
}

}  // namespace
}  // namespace chisimnet::runtime

// ---- wire frames, liveness primitives and the mp stage-parameter codec
// (the pieces of the TCP transport that need no socket) ----

namespace chisimnet::net {
namespace {

using runtime::wire::Frame;
using runtime::wire::FrameKind;
using runtime::wire::FrameReader;
using runtime::wire::ReadFn;

/// ReadFn over an in-memory byte stream that returns at most `chunk`
/// bytes per call — the short reads a stream socket is allowed to give.
ReadFn chunkedReadFn(std::vector<std::byte> data, std::size_t chunk) {
  auto pos = std::make_shared<std::size_t>(0);
  auto bytes = std::make_shared<std::vector<std::byte>>(std::move(data));
  return [pos, bytes, chunk](std::byte* out, std::size_t capacity) {
    if (*pos >= bytes->size()) {
      return std::size_t{0};
    }
    const std::size_t n =
        std::min({chunk, capacity, bytes->size() - *pos});
    std::memcpy(out, bytes->data() + *pos, n);
    *pos += n;
    return n;
  };
}

template <typename T>
void appendScalar(std::vector<std::byte>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// Hand-forged header for invalid-input cases encodeFrame cannot produce.
std::vector<std::byte> forgeHeader(std::uint32_t magic, std::uint32_t kind,
                                   std::int32_t tag, std::uint64_t length) {
  std::vector<std::byte> out;
  appendScalar(out, magic);
  appendScalar(out, kind);
  appendScalar(out, tag);
  appendScalar(out, length);
  return out;
}

TEST(WireFrameTest, FramesSurviveArbitrarySplitReads) {
  // Zero-length, one-byte, and a payload far larger than any read chunk,
  // back to back in one stream.
  Frame empty{FrameKind::kData, 7, {}};
  Frame tiny{FrameKind::kPong, -3, {std::byte{0xAB}}};
  Frame big{FrameKind::kData, 42, {}};
  big.payload.resize(1 << 20);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::byte>(i * 31 + 5);
  }
  std::vector<std::byte> stream;
  for (const Frame* frame : {&empty, &tiny, &big}) {
    const auto encoded = runtime::wire::encodeFrame(*frame);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }

  // Chunk sizes that split the header, the payload, and their boundary.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{19}, std::size_t{4096}}) {
    FrameReader reader(chunkedReadFn(stream, chunk));
    for (const Frame* want : {&empty, &tiny, &big}) {
      const auto got = reader.next();
      ASSERT_TRUE(got.has_value()) << "chunk " << chunk;
      EXPECT_EQ(got->kind, want->kind) << "chunk " << chunk;
      EXPECT_EQ(got->tag, want->tag) << "chunk " << chunk;
      EXPECT_EQ(got->payload, want->payload) << "chunk " << chunk;
    }
    // Clean EOF exactly at a frame boundary: nullopt, not a throw.
    EXPECT_FALSE(reader.next().has_value()) << "chunk " << chunk;
  }
}

TEST(WireFrameTest, EofTearingAHeaderThrows) {
  const auto encoded =
      runtime::wire::encodeFrame(Frame{FrameKind::kPing, 0, {}});
  for (const std::size_t keep : {std::size_t{1}, std::size_t{8},
                                 runtime::wire::kFrameHeaderBytes - 1}) {
    std::vector<std::byte> torn(encoded.begin(),
                                encoded.begin() + static_cast<long>(keep));
    FrameReader reader(chunkedReadFn(torn, 3));
    EXPECT_THROW(reader.next(), std::exception) << "kept " << keep;
  }
}

TEST(WireFrameTest, EofTearingAPayloadThrows) {
  Frame frame{FrameKind::kData, 5, std::vector<std::byte>(64, std::byte{9})};
  auto encoded = runtime::wire::encodeFrame(frame);
  encoded.resize(encoded.size() - 10);  // header intact, payload short
  FrameReader reader(chunkedReadFn(encoded, 7));
  EXPECT_THROW(reader.next(), std::exception);
}

TEST(WireFrameTest, BadMagicAndUnknownKindAreRejected) {
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(0xDEADBEEFu, 1, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(runtime::wire::kFrameMagic, 99, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
}

TEST(WireFrameTest, OversizedLengthIsRejectedBeforeAllocation) {
  // A hostile length header one past the cap must throw from the header
  // check itself; were it used to size a buffer first, this would be a
  // 1 GiB+ allocation.
  const auto header = forgeHeader(runtime::wire::kFrameMagic, 1, 0,
                                  runtime::kMaxPayloadBytes + 1);
  FrameReader reader(chunkedReadFn(header, 5));
  try {
    reader.next();
    FAIL() << "oversized length must not be accepted";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("payload"), std::string::npos);
  }
}

// ---- liveness primitives ----

TEST(HeartbeatTest, BookTracksSilencePerPeer) {
  runtime::HeartbeatBook book(3);
  EXPECT_EQ(book.peerCount(), 3);
  // Freshly constructed peers are not instantly overdue.
  EXPECT_FALSE(book.overdue(0, std::chrono::milliseconds(250)));
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(book.overdue(1, std::chrono::milliseconds(5)));
  book.beat(1);
  EXPECT_FALSE(book.overdue(1, std::chrono::milliseconds(5)));
  // Beating one peer leaves the others' clocks alone.
  EXPECT_TRUE(book.overdue(2, std::chrono::milliseconds(5)));
  EXPECT_LT(book.age(1), book.age(2));
}

TEST(HeartbeatTest, PeriodicTaskTicksUntilStopped) {
  std::atomic<int> ticks{0};
  {
    runtime::PeriodicTask task(std::chrono::milliseconds(10),
                               [&ticks] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    task.stop();
    const int atStop = ticks.load();
    EXPECT_GE(atStop, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(ticks.load(), atStop);  // no ticks after stop
    task.stop();                      // idempotent
  }
  // Destructor after stop must not hang or double-join.
}

// ---- mp protocol codecs ----

TEST(MpProtocolTest, StageParamsRoundTripThroughHelloPayload) {
  mp::StageParams params;
  params.windowStart = 17;
  params.windowEnd = 193;
  params.method = sparse::AdjacencyMethod::kSpGemm;
  const auto bytes = mp::encodeStageParams(params);
  const mp::StageParams back = mp::decodeStageParams(bytes);
  EXPECT_EQ(back.windowStart, params.windowStart);
  EXPECT_EQ(back.windowEnd, params.windowEnd);
  EXPECT_EQ(back.method, params.method);

  // Truncated and oversized payloads are both malformed.
  std::vector<std::byte> shortBytes(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(mp::decodeStageParams(shortBytes), std::exception);
  std::vector<std::byte> longBytes(bytes);
  longBytes.push_back(std::byte{0});
  EXPECT_THROW(mp::decodeStageParams(longBytes), std::exception);
}

}  // namespace
}  // namespace chisimnet::net
