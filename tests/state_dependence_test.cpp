/**
 * @file
 * Tests of the public StateDependence facade — the paper-faithful
 * Figure 9 API on real threads, including the paper-style
 * doesSpecStateMatchAny state method.
 */

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "sdi/state_dependence.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace stats;

struct Input
{
    int id;
};

struct Output
{
    long long value;
};

struct CounterState
{
    long long lastInput = -1;

    bool
    doesSpecStateMatchAny(const std::set<const CounterState *> &set) const
    {
        for (const CounterState *other : set) {
            if (other->lastInput == lastInput)
                return true;
        }
        return false;
    }
};

/** Deterministic short-memory compute: state = last input. */
Output *
computeOutput(Input *input, CounterState *state)
{
    auto *output = new Output{state->lastInput};
    state->lastInput = input->id;
    return output;
}

std::vector<Input>
makeInputs(int n)
{
    std::vector<Input> inputs;
    for (int i = 0; i < n; ++i)
        inputs.push_back({i});
    return inputs;
}

TEST(StateDependenceFacade, Figure9FlowWithoutAuxiliary)
{
    // No auxiliary code installed: the dependence is satisfied
    // conventionally (the paper's baseline), outputs still correct.
    auto storage = makeInputs(12);
    std::vector<Input *> inputs;
    for (auto &input : storage)
        inputs.push_back(&input);
    CounterState initial;

    sdi::StateDependence<Input, CounterState, Output> dep(
        &inputs, &initial, computeOutput);
    dep.start();
    dep.join();

    ASSERT_EQ(dep.outputs().size(), 12u);
    EXPECT_EQ(dep.outputs()[0]->value, -1);
    for (int i = 1; i < 12; ++i)
        EXPECT_EQ(dep.outputs()[static_cast<std::size_t>(i)]->value,
                  i - 1);
    EXPECT_EQ(dep.stats().auxTasks, 0);
}

TEST(StateDependenceFacade, SpeculatesWithAuxiliaryAndStateMethod)
{
    auto storage = makeInputs(40);
    std::vector<Input *> inputs;
    for (auto &input : storage)
        inputs.push_back(&input);
    CounterState initial;

    sdi::StateDependence<Input, CounterState, Output> dep(
        &inputs, &initial, computeOutput);
    dep.setAuxiliaryCode(computeOutput);
    dep.useStateMatchMethod(); // Paper-style doesSpecStateMatchAny.

    sdi::SpecConfig config;
    config.groupSize = 8;
    config.auxWindow = 1; // One input reconstructs the state exactly.
    dep.setConfig(config);
    dep.setThreads(4);

    dep.start();
    // Workers fill the outputs while the run is live: none show yet.
    EXPECT_EQ(dep.outputs().size(), 0u);
    dep.join();

    ASSERT_EQ(dep.outputs().size(), 40u);
    for (int i = 1; i < 40; ++i)
        EXPECT_EQ(dep.outputs()[static_cast<std::size_t>(i)]->value,
                  i - 1);
    // Iteration yields the same Output pointers, in input order.
    std::size_t position = 0;
    for (const Output *output : dep.outputs())
        EXPECT_EQ(output, dep.outputs()[position++]);
    EXPECT_EQ(position, 40u);
    EXPECT_GT(dep.stats().validations, 0);
    EXPECT_EQ(dep.stats().aborts, 0);
}

TEST(StateDependenceFacade, CustomMatcherAndConfigKnobs)
{
    auto storage = makeInputs(30);
    std::vector<Input *> inputs;
    for (auto &input : storage)
        inputs.push_back(&input);
    CounterState initial;

    sdi::StateDependence<Input, CounterState, Output> dep(
        &inputs, &initial, computeOutput);
    dep.setAuxiliaryCode(computeOutput);
    dep.setMatcher(sdi::neverMatch<CounterState>());

    sdi::SpecConfig config;
    config.groupSize = 5;
    config.maxReexecutions = 1;
    dep.setConfig(config);
    dep.setThreads(3);

    dep.start();
    dep.join();

    // Speculation aborted; output correctness is unaffected.
    ASSERT_EQ(dep.outputs().size(), 30u);
    for (int i = 1; i < 30; ++i)
        EXPECT_EQ(dep.outputs()[static_cast<std::size_t>(i)]->value,
                  i - 1);
    EXPECT_EQ(dep.stats().aborts, 1);
}

TEST(StateDependenceFacade, RejectsNullArguments)
{
    std::vector<Input *> inputs;
    CounterState state;
    using Dep = sdi::StateDependence<Input, CounterState, Output>;
    EXPECT_DEATH(Dep(nullptr, &state, computeOutput), "null");
    EXPECT_DEATH(Dep(&inputs, nullptr, computeOutput), "null");
    EXPECT_DEATH(Dep(&inputs, &state, nullptr), "null");
}

TEST(StateDependenceFacade, JoinBeforeStartPanics)
{
    auto storage = makeInputs(2);
    std::vector<Input *> inputs{&storage[0], &storage[1]};
    CounterState state;
    sdi::StateDependence<Input, CounterState, Output> dep(
        &inputs, &state, computeOutput);
    EXPECT_DEATH(dep.join(), "join before start");
}

/**
 * One speculative run of `n` inputs on `threads` shared-pool threads;
 * true when every output equals the sequential one (input i sees the
 * state left by input i - 1).
 */
bool
runMatchesSequential(int n, int threads)
{
    auto storage = makeInputs(n);
    std::vector<Input *> inputs;
    for (auto &input : storage)
        inputs.push_back(&input);
    CounterState initial;
    sdi::StateDependence<Input, CounterState, Output> dep(
        &inputs, &initial, computeOutput);
    dep.setAuxiliaryCode(computeOutput);
    dep.useStateMatchMethod();
    sdi::SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    dep.setConfig(config);
    dep.setThreads(threads);
    dep.start();
    dep.join();
    bool ok = dep.outputs().size() == static_cast<std::size_t>(n) &&
              dep.outputs()[0]->value == -1;
    for (int i = 1; ok && i < n; ++i)
        ok = dep.outputs()[static_cast<std::size_t>(i)]->value == i - 1;
    return ok;
}

TEST(StateDependenceFacade, BackToBackRunsCreateThePoolOnce)
{
    // Paper section 3.4: one pool shared with all state dependences.
    // The first run at a thread count may create its pool; the next
    // 49 must reuse it.
    const std::size_t before = threading::ThreadPool::sharedPoolsCreated();
    ASSERT_TRUE(runMatchesSequential(40, 3));
    const std::size_t created = threading::ThreadPool::sharedPoolsCreated();
    EXPECT_LE(created - before, 1u);
    for (int run = 1; run < 50; ++run)
        ASSERT_TRUE(runMatchesSequential(40, 3)) << "run " << run;
    EXPECT_EQ(threading::ThreadPool::sharedPoolsCreated(), created);
}

TEST(StateDependenceFacade, ConcurrentJoinsOnOnePoolAreExact)
{
    // Two callers run dependences on the same shared pool at once;
    // each join waits for its own run only, and both are exact.
    for (int round = 0; round < 20; ++round) {
        bool a = false;
        bool b = false;
        std::thread first([&a] { a = runMatchesSequential(200, 2); });
        std::thread second([&b] { b = runMatchesSequential(120, 2); });
        first.join();
        second.join();
        ASSERT_TRUE(a) << "round " << round;
        ASSERT_TRUE(b) << "round " << round;
    }
}

TEST(StateDependenceFacadeDeathTest, JoinFromAWorkerOfItsPoolPanics)
{
    // A join on one of the pool's own workers would hold a worker the
    // run may need; it must fail loudly instead of deadlocking. (On
    // a two-worker pool the other worker could finish the run, so
    // without the check this statement would not die.)
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            threading::ThreadPool &pool = threading::ThreadPool::shared(2);
            pool.submit([] { runMatchesSequential(16, 2); });
            pool.waitIdle();
        },
        "called from a worker of the pool it waits on");
}

} // namespace
