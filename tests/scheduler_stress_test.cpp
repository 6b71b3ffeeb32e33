/**
 * @file
 * Stress and determinism tests for the work-stealing scheduler.
 *
 * The stress tests hammer the pool with many external producers,
 * random-size task bursts, and cancellation storms, asserting the
 * conservation law the completion accounting promises: every
 * submitted task runs exactly once (as executed or as cancelled),
 * and waitIdle() never returns while work remains. The determinism
 * test pins that the speculation engine's committed output — which
 * depends only on the serialized commit lane, not on which worker
 * ran which task — is unchanged under stealing. The co-location test
 * pins a pool's two workers to one CPU, then lifts the mask: the idle
 * worker must block rather than spin its sibling's wakes away.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_executor.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace stats;
using threading::PoolTask;
using threading::ThreadPool;

TEST(SchedulerStress, ManyProducersLoseNoTasks)
{
    ThreadPool pool(4);
    constexpr int kProducers = 8;
    constexpr int kBurstsPerProducer = 40;
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> submitted{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            std::mt19937 rng(static_cast<unsigned>(p) * 7919u + 1);
            std::uniform_int_distribution<int> burst(1, 32);
            for (int b = 0; b < kBurstsPerProducer; ++b) {
                const int count = burst(rng);
                if (b % 2 == 0) {
                    for (int i = 0; i < count; ++i)
                        pool.submit([&ran] {
                            ran.fetch_add(1, std::memory_order_relaxed);
                        });
                } else {
                    std::vector<PoolTask> batch;
                    batch.reserve(static_cast<std::size_t>(count));
                    for (int i = 0; i < count; ++i) {
                        PoolTask task;
                        task.run = [&ran](bool) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                        };
                        batch.push_back(std::move(task));
                    }
                    pool.submitBatch(std::move(batch));
                }
                submitted.fetch_add(
                    static_cast<std::uint64_t>(count),
                    std::memory_order_relaxed);
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    pool.waitIdle();

    EXPECT_EQ(ran.load(), submitted.load());
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.submitted, submitted.load());
    EXPECT_EQ(stats.executed, submitted.load());
}

TEST(SchedulerStress, CancellationStormConservesTasks)
{
    // Flip cancel flags concurrently with execution: every task must
    // still complete exactly once, either run or observed-cancelled.
    ThreadPool pool(4);
    constexpr int kTasks = 2000;
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> cancelled{0};

    std::vector<threading::CancelFlag> flags;
    flags.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i)
        flags.push_back(std::make_shared<std::atomic<bool>>(false));

    std::thread storm([&flags] {
        std::mt19937 rng(12345);
        std::uniform_int_distribution<int> pick(0, kTasks - 1);
        for (int i = 0; i < kTasks; ++i)
            flags[static_cast<std::size_t>(pick(rng))]->store(true);
    });

    for (int i = 0; i < kTasks; ++i) {
        PoolTask task;
        task.cancel = flags[static_cast<std::size_t>(i)];
        task.run = [&ran, &cancelled](bool was_cancelled) {
            (was_cancelled ? cancelled : ran)
                .fetch_add(1, std::memory_order_relaxed);
        };
        pool.submit(std::move(task));
    }
    storm.join();
    pool.waitIdle();

    EXPECT_EQ(ran.load() + cancelled.load(),
              static_cast<std::uint64_t>(kTasks));
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.cancelled, cancelled.load());
}

TEST(SchedulerStress, DrainNeverReturnsEarly)
{
    // Each task leaves a visible mark before it counts as done; if
    // waitIdle ever returned with work outstanding, the counts at
    // the check would disagree.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> done{0};
    std::mt19937 rng(99);
    std::uniform_int_distribution<int> burst(1, 64);
    std::uint64_t expected = 0;
    for (int round = 0; round < 50; ++round) {
        const int count = burst(rng);
        for (int i = 0; i < count; ++i)
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        expected += static_cast<std::uint64_t>(count);
        pool.waitIdle();
        ASSERT_EQ(done.load(), expected) << "round " << round;
    }
}

TEST(SchedulerStress, WorkerSpawnedTasksAreStolen)
{
    // One worker floods its own deque (worker-thread submits go to
    // the submitter's deque), then keeps its worker busy: while it
    // sleeps, only thieves can make progress on the backlog, so the
    // steal counter must move.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> ran{0};
    pool.submit([&pool, &ran] {
        for (int i = 0; i < 2000; ++i)
            pool.submit([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        while (pool.stats().stolen == 0 && ran.load() < 2000)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 2000u);
    EXPECT_GT(pool.stats().stolen, 0u);
}

// ---------------------------------------------------------------------
// Engine determinism under stealing (same toy dependence as
// spec_engine_test: state = 10 * last input, outputs record the prior
// state, so any mis-chaining is visible in the committed stream).

struct ToyState
{
    long long v = 0;
};

struct ToyOutput
{
    long long observedPriorState;
    int input;
};

using Engine = sdi::SpecEngine<int, ToyState, ToyOutput>;

Engine::ComputeFn
toyCompute()
{
    return [](const int &input, ToyState &state,
              const sdi::ComputeContext &) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        state.v = static_cast<long long>(input) * 10;
        return {std::move(out), exec::Work{0.0001, 0.0}};
    };
}

Engine::MatchFn
exactMatcher()
{
    return [](const ToyState &spec,
              const std::vector<ToyState> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i) {
            if (originals[i].v == spec.v)
                return static_cast<int>(i);
        }
        return -1;
    };
}

TEST(SchedulerDeterminism, EngineOutputUnchangedUnderStealing)
{
    const int n = 60;
    std::vector<int> inputs;
    for (int i = 1; i <= n; ++i)
        inputs.push_back(i);

    // Sequential reference.
    std::vector<ToyOutput> want;
    {
        ToyState state;
        for (int input : inputs) {
            want.push_back({state.v, input});
            state.v = static_cast<long long>(input) * 10;
        }
    }

    // Oversubscribed executor maximizes interleavings and steals.
    for (int repeat = 0; repeat < 5; ++repeat) {
        exec::ThreadExecutor ex(8);
        sdi::SpecConfig config;
        config.groupSize = 5;
        config.auxWindow = 1;
        config.sdThreads = 8;
        Engine engine(ex, inputs, ToyState{}, toyCompute(), toyCompute(),
                      exactMatcher(), config);
        engine.start();
        engine.join();

        ASSERT_EQ(engine.outputs().size(), inputs.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(engine.outputs()[i]->observedPriorState,
                      want[i].observedPriorState)
                << "repeat " << repeat << " position " << i;
            ASSERT_EQ(engine.outputs()[i]->input, want[i].input);
        }
        // Every group committed: the engine's bookkeeping (mutated
        // only in the commit lane) saw no squash or abort.
        EXPECT_EQ(engine.stats().aborts, 0);
        EXPECT_EQ(engine.stats().squashedGroups, 0);
        EXPECT_EQ(engine.stats().validations,
                  engine.stats().groups - 1);
    }
}

// ---------------------------------------------------------------------
// Co-location. When both workers of a pool share one CPU, the idle one
// must block (park) instead of spinning on: a spin phase that yields
// the CPU to its busy sibling lasts whole time slices, keeps the
// spinner counted in `_spinners` and so mutes every wake the sibling's
// submissions send. No pool thread then ever blocks while a run is
// live, and the kernel never gets a wake-up at which to move the
// sibling to an idle CPU once one is allowed.

/** Toy dependence with ~0.5 us of mixing per input. */
Engine::ComputeFn
busyCompute()
{
    return [](const int &input, ToyState &state,
              const sdi::ComputeContext &) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        std::uint64_t x = static_cast<std::uint64_t>(input);
        for (int r = 0; r < 400; ++r) {
            x ^= x >> 31;
            x *= 0x94d049bb133111ebULL;
            x += static_cast<std::uint64_t>(r);
        }
        asm volatile("" : : "r"(x)); // Keep the mixing loop.
        state.v = static_cast<long long>(input) * 10;
        return {std::move(out), exec::Work{0.0, 0.0}};
    };
}

/** Set every thread of this process (and only those) to `mask`. */
void
setProcessAffinity(const cpu_set_t &mask)
{
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        const auto tid = static_cast<pid_t>(
            std::stol(entry.path().filename().string()));
        (void)::sched_setaffinity(tid, sizeof mask, &mask);
    }
}

TEST(SchedulerColocation, IdleWorkerParksWhileSharingACpuAndBothWork)
{
    cpu_set_t allowed;
    ASSERT_EQ(::sched_getaffinity(0, sizeof allowed, &allowed), 0);
    if (CPU_COUNT(&allowed) < 2)
        GTEST_SKIP() << "needs at least 2 allowed CPUs";
    int first = 0;
    while (!CPU_ISSET(first, &allowed))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);

    std::vector<int> inputs;
    for (int i = 1; i <= 4096; ++i)
        inputs.push_back(i);
    sdi::SpecConfig config;
    config.groupSize = 64;
    config.auxWindow = 1;
    config.sdThreads = 2;

    // The workers inherit this thread's one-CPU mask.
    ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
    ThreadPool pool(2);
    exec::ThreadExecutor ex(pool);
    const auto runOnce = [&] {
        Engine engine(ex, inputs, ToyState{}, busyCompute(),
                      busyCompute(), exactMatcher(), config);
        engine.start();
        engine.join();
        ASSERT_EQ(engine.outputs().size(), inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
            ASSERT_EQ(engine.outputs()[i]->input, inputs[i]);
    };
    const std::uint64_t parks_before = pool.stats().parks;
    for (int run = 0; run < 5; ++run)
        runOnce();
    const std::uint64_t pinned_parks = pool.stats().parks - parks_before;

    setProcessAffinity(allowed);
    constexpr int kReleasedRuns = 20;
    int lopsided = 0;
    std::uint64_t ran[2] = {0, 0};
    for (int run = 0; run < kReleasedRuns; ++run) {
        const std::vector<std::uint64_t> before =
            pool.stats().executedPerWorker;
        runOnce();
        const std::vector<std::uint64_t> after =
            pool.stats().executedPerWorker;
        ASSERT_EQ(after.size(), 2u);
        const std::uint64_t a = after[0] - before[0];
        const std::uint64_t b = after[1] - before[1];
        ran[0] += a;
        ran[1] += b;
        // A pair still sharing one CPU leaves one worker nearly all
        // of a run's tasks; a spread pair splits them far more evenly.
        if (std::min(a, b) * 10 < a + b)
            ++lopsided;
    }
    std::cout << "parks while sharing a CPU: " << pinned_parks
              << "; released runs with a worker under 10% of the tasks: "
              << lopsided << " of " << kReleasedRuns << "\n";
    ::testing::Test::RecordProperty("lopsidedReleasedRuns", lopsided);

    EXPECT_GT(pinned_parks, 0u)
        << "the idle worker never blocked while it shared a CPU with "
           "its busy sibling, so every wake was muted";
    EXPECT_GT(ran[0], 0u);
    EXPECT_GT(ran[1], 0u);
}

} // namespace
