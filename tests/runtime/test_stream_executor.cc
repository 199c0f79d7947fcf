#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/status.hh"
#include "runtime/stream_executor.hh"

namespace moelight {
namespace {

TEST(StreamExecutor, RunsSubmittedTask)
{
    StreamExecutor ex;
    std::atomic<int> counter{0};
    auto ev = ex.submit(ResourceKind::Gpu, {}, [&] { ++counter; });
    ev->wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(StreamExecutor, FifoWithinQueue)
{
    StreamExecutor ex;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        ex.submit(ResourceKind::Cpu, {}, [&order, i] {
            order.push_back(i);
        });
    ex.sync();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(StreamExecutor, CrossQueueDependency)
{
    StreamExecutor ex;
    std::atomic<int> stage{0};
    auto a = ex.submit(ResourceKind::HtoD, {}, [&] {
        int expected = 0;
        stage.compare_exchange_strong(expected, 1);
    });
    auto b = ex.submit(ResourceKind::Gpu, {a}, [&] {
        int expected = 1;
        EXPECT_TRUE(stage.compare_exchange_strong(expected, 2));
    });
    b->wait();
    EXPECT_EQ(stage.load(), 2);
}

TEST(StreamExecutor, DiamondAcrossFourQueues)
{
    StreamExecutor ex;
    std::atomic<int> sum{0};
    auto a = ex.submit(ResourceKind::Gpu, {}, [&] { sum += 1; });
    auto b = ex.submit(ResourceKind::Cpu, {a}, [&] { sum += 10; });
    auto c = ex.submit(ResourceKind::DtoH, {a}, [&] { sum += 100; });
    auto d =
        ex.submit(ResourceKind::HtoD, {b, c}, [&] { sum += 1000; });
    d->wait();
    EXPECT_EQ(sum.load(), 1111);
}

TEST(StreamExecutor, SyncRethrowsTaskError)
{
    StreamExecutor ex;
    ex.submit(ResourceKind::Gpu, {}, [] {
        fatal("boom");
    });
    EXPECT_THROW(ex.sync(), FatalError);
    // Error cleared; executor still usable.
    std::atomic<bool> ran{false};
    ex.submit(ResourceKind::Gpu, {}, [&] { ran = true; });
    EXPECT_NO_THROW(ex.sync());
    EXPECT_TRUE(ran.load());
}

TEST(StreamExecutor, FailedTaskStillSignalsDependents)
{
    StreamExecutor ex;
    auto bad = ex.submit(ResourceKind::Cpu, {}, [] { fatal("x"); });
    std::atomic<bool> ran{false};
    auto next = ex.submit(ResourceKind::Gpu, {bad}, [&] { ran = true; });
    next->wait();  // must not deadlock
    EXPECT_TRUE(ran.load());
    EXPECT_THROW(ex.sync(), FatalError);
}

TEST(StreamExecutor, EventReadyNonBlocking)
{
    StreamExecutor ex;
    auto gate = std::make_shared<TaskEvent>();
    auto ev = ex.submit(ResourceKind::Gpu, {gate}, [] {});
    EXPECT_FALSE(ev->ready());
    gate->signal();
    ev->wait();
    EXPECT_TRUE(ev->ready());
}

TEST(StreamExecutor, FirstOfSeveralErrorsWins)
{
    StreamExecutor ex;
    // Same queue, so the failure order is the FIFO order: sync()
    // must report the first task's error, not the latest.
    auto first = ex.submit(ResourceKind::Cpu, {}, [] { fatal("first"); });
    ex.submit(ResourceKind::Cpu, {first}, [] { fatal("second"); });
    try {
        ex.sync();
        FAIL() << "sync should rethrow";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("first"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(ex.sync());  // cleared
}

TEST(StreamExecutor, ErrorOnOneQueueSurfacesAtSharedSync)
{
    StreamExecutor ex;
    std::atomic<int> ok{0};
    ex.submit(ResourceKind::DtoH, {}, [] { fatal("dtoh died"); });
    for (int i = 0; i < 8; ++i)
        ex.submit(ResourceKind::Gpu, {}, [&] { ++ok; });
    try {
        ex.sync();
        FAIL() << "sync should rethrow the DtoH failure";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("dtoh died"),
                  std::string::npos);
    }
    // Healthy tasks on the other queues still ran to completion.
    EXPECT_EQ(ok.load(), 8);
}

TEST(StreamExecutor, InjectedTaskFaultFlowsThroughSync)
{
    StreamExecutor ex;
    std::atomic<int> ran{0};
    {
        // Third executor task dies via the exec.task site — the same
        // capture path a real task exception takes.
        ScopedFault fault("exec.task", 3);
        EventPtr last;
        for (int i = 0; i < 6; ++i)
            last = ex.submit(ResourceKind::Gpu, {}, [&] { ++ran; });
        // sync()'s fence tasks on the idle queues pass the same check
        // site; drain the Gpu queue first so they cannot take the 3rd
        // check. A failed task still signals, so this cannot hang.
        last->wait();
        try {
            ex.sync();
            FAIL() << "injected fault should surface at sync";
        } catch (const EngineError &e) {
            EXPECT_EQ(e.code(), ErrorCode::FaultInjected);
            EXPECT_EQ(e.site(), "exec.task");
        }
        EXPECT_EQ(fault.hits(), 1u);
    }
    // The faulted task's body never ran; the other five did (sync's
    // own fence tasks ran after the injector had already disarmed).
    EXPECT_EQ(ran.load(), 5);
    std::atomic<bool> again{false};
    ex.submit(ResourceKind::Cpu, {}, [&] { again = true; });
    EXPECT_NO_THROW(ex.sync());
    EXPECT_TRUE(again.load());
}

TEST(StreamExecutor, AlsoSignalFiresOnSuccessAndError)
{
    // The engine shares TaskEvents between producer and consumer
    // tasks (weight readiness). Publishing them from inside the task
    // body is unsafe — a body that dies before its signal (any
    // throw, or an exec.task fault injected before the body starts)
    // would leave dependents waiting forever. The alsoSignal
    // parameter is the executor-backed alternative: signaled by the
    // worker on every path, error included, while the error itself
    // still reaches sync().
    StreamExecutor ex;
    auto okReady = std::make_shared<TaskEvent>();
    ex.submit(ResourceKind::HtoD, {}, [] {}, {okReady});
    okReady->wait();

    auto badReady = std::make_shared<TaskEvent>();
    ex.submit(ResourceKind::HtoD, {}, [] { fatal("load failed"); },
              {badReady});
    std::atomic<bool> ran{false};
    auto dep =
        ex.submit(ResourceKind::Gpu, {badReady}, [&] { ran = true; });
    dep->wait();  // must not deadlock
    EXPECT_TRUE(ran.load());
    EXPECT_THROW(ex.sync(), FatalError);
}

TEST(StreamExecutor, AlsoSignalFiresWhenTaskBodyNeverRuns)
{
    // An injected exec.task fault kills the task before its first
    // statement — the hard case that makes in-body signaling a
    // deadlock. alsoSignal must still fire.
    StreamExecutor ex;
    auto ready = std::make_shared<TaskEvent>();
    std::atomic<bool> bodyRan{false};
    {
        ScopedFault fault("exec.task", 1);
        ex.submit(ResourceKind::HtoD, {}, [&] { bodyRan = true; },
                  {ready});
        std::atomic<bool> depRan{false};
        auto dep = ex.submit(ResourceKind::Gpu, {ready},
                             [&] { depRan = true; });
        dep->wait();  // must not deadlock
        EXPECT_TRUE(depRan.load());
        EXPECT_FALSE(bodyRan.load());
        EXPECT_THROW(ex.sync(), EngineError);
        EXPECT_EQ(fault.hits(), 1u);
    }
}

TEST(StreamExecutor, ManyTasksDrainOnDestruction)
{
    std::atomic<int> n{0};
    {
        StreamExecutor ex;
        for (int i = 0; i < 200; ++i)
            ex.submit(static_cast<ResourceKind>(i % 4), {},
                      [&] { ++n; });
        ex.sync();
    }
    EXPECT_EQ(n.load(), 200);
}

} // namespace
} // namespace moelight
