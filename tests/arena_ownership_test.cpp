/**
 * @file
 * TaskArena's debug-build ownership check (src/threading/arena.hpp):
 * two mutations that overlap must panic where they overlap.
 *
 * The check is compiled into debug builds only; in NDEBUG builds
 * the death test skips, and a Debug build runs it.
 */

#include <cstdint>
#include <latch>
#include <thread>

#include <gtest/gtest.h>

#include "threading/arena.hpp"

namespace {

using stats::threading::TaskArena;

struct Record
{
    std::uint64_t payload[4] = {};
};

TEST(TaskArenaOwnership, SerializedMutationIsAccepted)
{
    // Mutations from two threads, one after the other: no overlap.
    TaskArena arena;
    Record *first = nullptr;
    std::thread([&] { first = arena.create<Record>(); }).join();
    std::thread([&] { arena.destroy(first); }).join();
    arena.destroy(arena.create<Record>());
    arena.drainEpoch();
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(TaskArenaOwnershipDeathTest, OverlappingMutatorsPanic)
{
    if (!TaskArena::kOwnershipChecked)
        GTEST_SKIP() << "the check is compiled into debug builds only";
    // The first mutator stops inside create() (in the refill hook,
    // which runs mid-allocation); the second mutator then enters
    // create() on another thread and must die there. Without the
    // check the second create would return, the first would be let
    // go, and the statement would not die with this message.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            TaskArena arena;
            std::latch inside(1);
            std::latch never(1);
            arena.setRefillHook([&](std::size_t, bool) {
                inside.count_down();
                never.wait();
            });
            std::thread first([&] { arena.create<Record>(); });
            inside.wait();
            arena.create<Record>();
            never.count_down();
            first.join();
        },
        "TaskArena: concurrent mutation");
}

} // namespace
