#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace moelight {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop)
{
    ThreadPool pool(2);
    std::atomic<int> n{0};
    pool.parallelFor(0, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 0);
}

TEST(ThreadPool, SingleIndexRuns)
{
    ThreadPool pool(3);
    std::atomic<int> n{0};
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++n;
    });
    EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, SequentialReuse)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(64, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 64u * 63u / 2u);
    }
}

TEST(ThreadPool, PropagatesException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [&](std::size_t i) {
                                      if (i == 7)
                                          fatal("bad index");
                                  }),
                 FatalError);
    // Pool still usable afterwards.
    std::atomic<int> n{0};
    pool.parallelFor(8, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, WorksWithSingleThread)
{
    // One worker plus the calling thread: two threads may run the
    // body, so the shared vector needs the lock.
    ThreadPool pool(1);
    std::vector<int> order;
    std::mutex mu;
    pool.parallelFor(8, [&](std::size_t i) {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order.size(), 8u);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ThreadPoolChunked, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    // Uneven grains, including grain > n, grain == n, and grain 0
    // (treated as 1).
    for (std::size_t grain : {0u, 1u, 3u, 7u, 64u, 999u, 1000u, 5000u}) {
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelForChunked(
            1000, grain,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i)
                    ++hits[i];
            });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "grain " << grain;
    }
}

TEST(ThreadPoolChunked, ChunksRespectGrainAndOrderWithinChunk)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallelForChunked(
        103, 10,
        [&](std::size_t begin, std::size_t end, std::size_t) {
            std::lock_guard<std::mutex> lk(mu);
            chunks.emplace_back(begin, end);
        });
    EXPECT_EQ(chunks.size(), 11u);  // ceil(103/10)
    for (auto [b, e] : chunks) {
        EXPECT_EQ(b % 10, 0u);
        EXPECT_LE(e - b, 10u);
        EXPECT_TRUE(e - b == 10 || e == 103u);
    }
}

TEST(ThreadPoolChunked, WorkerSlotsAreStableAndInRange)
{
    ThreadPool pool(4);
    // Per-slot counters: a slot must never be used by two threads at
    // once; hammer a shared per-slot scratch and check no tearing.
    std::size_t slots = pool.maxParallelism();
    EXPECT_EQ(slots, 5u);
    std::vector<std::vector<int>> scratch(slots);
    for (auto &s : scratch)
        s.assign(64, 0);
    std::atomic<bool> bad{false};
    std::vector<std::atomic<int>> in_use(slots);
    pool.parallelForChunked(
        2000, 3,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
            if (worker >= slots) {
                bad = true;
                return;
            }
            if (in_use[worker].fetch_add(1) != 0)
                bad = true;  // two threads in the same slot
            for (std::size_t i = begin; i < end; ++i)
                scratch[worker][i % 64] += 1;
            in_use[worker].fetch_sub(1);
        });
    EXPECT_FALSE(bad.load());
    long total = 0;
    for (const auto &s : scratch)
        for (int v : s)
            total += v;
    EXPECT_EQ(total, 2000);
}

TEST(ThreadPoolChunked, PropagatesExceptionAndStaysUsable)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallelForChunked(
            100, 7,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i)
                    if (i == 55)
                        fatal("bad chunk");
            }),
        FatalError);
    std::atomic<int> n{0};
    pool.parallelForChunked(
        64, 5, [&](std::size_t begin, std::size_t end, std::size_t) {
            n += static_cast<int>(end - begin);
        });
    EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPoolChunked, StragglerWorkersOutliveNothing)
{
    // Far more workers than chunks, many rounds back-to-back: a
    // worker that wakes late enters the batch with every chunk
    // already claimed and must still be drained before the dispatch
    // returns (the batch lives on the caller's stack). This is the
    // use-after-scope shape; under TSan/ASan it would fail loudly.
    ThreadPool pool(4);
    for (int round = 0; round < 500; ++round) {
        std::atomic<int> n{0};
        pool.parallelForChunked(
            1 + round % 2, 1,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                n += static_cast<int>(end - begin);
            });
        EXPECT_EQ(n.load(), 1 + round % 2);
    }
}

TEST(ThreadPoolChunked, StressAlternatingShapes)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::size_t n = 1 + static_cast<std::size_t>(round) * 13 % 97;
        std::size_t grain = 1 + static_cast<std::size_t>(round) % 9;
        std::atomic<std::size_t> sum{0};
        pool.parallelForChunked(
            n, grain,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                std::size_t local = 0;
                for (std::size_t i = begin; i < end; ++i)
                    local += i;
                sum += local;
            });
        EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    }
}

} // namespace
} // namespace moelight
