/**
 * @file
 * PinnedWorkers: every task runs exactly once on its shard's owning
 * worker, in submission order per worker, and dispatch()/wait()
 * return only after the last task finished with its writes visible —
 * including when the caller parked (tasks slower than its short spin)
 * and when workers outnumber shards. The TSan CI job race-checks the
 * same tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "shard/shard_workers.h"

namespace talus {
namespace {

struct alignas(64) Slot
{
    uint64_t runs = 0;
    uint64_t lastSeq = 0;
    std::thread::id thread;
};

/**
 * Runs @p rounds dispatches of one task per shard (task.count carries
 * a sequence number) and checks each shard saw every task once, in
 * order, always on the same thread.
 */
void
checkDispatches(uint32_t threads, uint32_t shards, uint32_t rounds,
                std::chrono::microseconds task_time)
{
    std::vector<Slot> slots(shards);
    PinnedWorkers workers(threads, shards, [&](const ShardTask& t) {
        Slot& s = slots[t.shard];
        if (s.runs == 0)
            s.thread = std::this_thread::get_id();
        EXPECT_EQ(s.thread, std::this_thread::get_id());
        EXPECT_EQ(t.count, s.lastSeq + 1);
        s.lastSeq = t.count;
        if (task_time.count() > 0)
            std::this_thread::sleep_for(task_time);
        s.runs++;
    });
    std::vector<ShardTask> tasks(shards);
    for (uint32_t r = 1; r <= rounds; ++r) {
        for (uint32_t s = 0; s < shards; ++s)
            tasks[s] = ShardTask{s, ShardOp::Access, nullptr, r, 0};
        workers.dispatch(tasks.data(), shards);
        // Returned only after every task of this round finished.
        for (uint32_t s = 0; s < shards; ++s)
            ASSERT_EQ(slots[s].runs, r) << "shard " << s;
    }
}

TEST(PinnedWorkers, ManyShortDispatchesCompleteInOrder)
{
    // Tasks far shorter than the caller's spin: the last decrement
    // races the caller's park on almost every round.
    checkDispatches(3, 8, 5'000, std::chrono::microseconds(0));
}

TEST(PinnedWorkers, SlowTasksWakeAParkedCaller)
{
    checkDispatches(2, 4, 50, std::chrono::microseconds(200));
}

TEST(PinnedWorkers, MoreWorkersThanShards)
{
    checkDispatches(6, 4, 500, std::chrono::microseconds(0));
}

TEST(PinnedWorkers, StartsNoWorkerThatOwnsNoShard)
{
    const auto noop = [](const ShardTask&) {};
    EXPECT_EQ(PinnedWorkers(6, 4, noop).threadCount(), 4u);
    EXPECT_EQ(PinnedWorkers(3, 8, noop).threadCount(), 3u);
    EXPECT_EQ(PinnedWorkers(0, 4, noop).threadCount(), 0u);
}

TEST(PinnedWorkers, EachWorkerRunsItsTasksInSubmissionOrder)
{
    // 10 shards on 3 workers (4/3/3 shards each), every shard fed in a
    // shuffled order and some fed twice in one dispatch: each worker
    // must run exactly its own tasks, once each, in array order.
    constexpr uint32_t kThreads = 3;
    constexpr uint32_t kShards = 10;
    struct alignas(64) Log
    {
        std::vector<uint64_t> ids;
        std::thread::id thread;
    };
    std::vector<Log> logs(kThreads);
    PinnedWorkers workers(kThreads, kShards, [&](const ShardTask& t) {
        Log& log = logs[t.shard % kThreads];
        if (log.thread == std::thread::id())
            log.thread = std::this_thread::get_id();
        EXPECT_EQ(log.thread, std::this_thread::get_id());
        log.ids.push_back(t.count);
    });
    std::mt19937_64 rng(2801);
    std::vector<ShardTask> tasks;
    uint64_t next_id = 0;
    for (int round = 0; round < 300; ++round) {
        std::vector<uint32_t> order(kShards);
        std::iota(order.begin(), order.end(), 0u);
        for (uint32_t twice = 0; twice < 3; ++twice)
            order.push_back(static_cast<uint32_t>(rng() % kShards));
        std::shuffle(order.begin(), order.end(), rng);
        tasks.clear();
        std::vector<std::vector<uint64_t>> expected(kThreads);
        for (uint32_t shard : order) {
            tasks.push_back(
                ShardTask{shard, ShardOp::Access, nullptr, next_id, 0});
            expected[workers.ownerOf(shard)].push_back(next_id++);
        }
        for (Log& log : logs)
            log.ids.clear();
        workers.dispatch(tasks.data(), static_cast<uint32_t>(tasks.size()));
        for (uint32_t w = 0; w < kThreads; ++w)
            ASSERT_EQ(logs[w].ids, expected[w])
                << "worker " << w << ", round " << round;
    }
}

TEST(PinnedWorkers, InlineModeRunsOnCallerThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<uint32_t> order;
    PinnedWorkers workers(0, 3, [&](const ShardTask& t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(t.shard);
    });
    const ShardTask tasks[] = {{2}, {0}, {1}};
    workers.dispatch(tasks, 3);
    EXPECT_EQ(order, (std::vector<uint32_t>{2, 0, 1}));
}

TEST(PinnedWorkers, WaitAfterAsyncDispatchSeesEveryTask)
{
    std::atomic<uint64_t> done{0};
    PinnedWorkers workers(2, 2, [&](const ShardTask&) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1, std::memory_order_relaxed);
    });
    const ShardTask tasks[] = {{0}, {1}};
    for (int r = 1; r <= 20; ++r) {
        workers.dispatchAsync(tasks, 2);
        workers.wait();
        EXPECT_EQ(done.load(std::memory_order_relaxed),
                  static_cast<uint64_t>(2 * r));
    }
}

TEST(PinnedWorkers, DestructionWithParkedWorkersIsClean)
{
    for (int i = 0; i < 20; ++i) {
        PinnedWorkers workers(4, 4, [](const ShardTask&) {});
        if (i % 2 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

} // namespace
} // namespace talus
