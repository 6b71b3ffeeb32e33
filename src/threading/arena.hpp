/**
 * @file
 * Epoch-reclaimed bump-pointer arena for scheduler task records.
 *
 * The speculation engine used to allocate four `std::shared_ptr`
 * bundles per window task (outputs, final state, checkpoint, work
 * counter) — five heap round trips plus control blocks on the hot
 * path the paper needs to be nearly free. A `TaskArena` replaces the
 * lot with one bump-pointer allocation per task:
 *
 *  - `create<T>()` carves a record out of the current block (a plain
 *    pointer bump in steady state; a block refill only every
 *    `blockBytes` of traffic);
 *  - `destroy()` runs the record's destructor but returns no memory —
 *    a destroyed slot is never handed out again in the same epoch, so
 *    a stale pointer can be detected instead of silently recycled;
 *  - `drainEpoch()` rewinds every block at a quiescent point (the
 *    engine calls it from `join()`, after the executor's `drain()`),
 *    after which the next epoch reuses the same memory. Blocks are
 *    retained across epochs, so a steady-state engine run performs
 *    zero heap allocations after warm-up.
 *
 * Thread-safety contract: all mutation (`create`, `destroy`,
 * `allocate`, `drainEpoch`) must be externally serialized. The engine
 * satisfies this for free — records are created and destroyed only
 * inside executor completion callbacks, which the commit lane
 * serializes with acquire/release ordering (docs/INTERNALS.md §4).
 * `stats()` may be read from any thread that is ordered after the
 * mutations it wants to observe (e.g. after `drain()`).
 *
 * Debug builds (no NDEBUG) check the contract: each mutation holds
 * an atomic "mutator active" flag, and a second mutation that finds
 * it set panics at the call site ("TaskArena: concurrent mutation"),
 * instead of the breach surfacing later as a corrupted live count.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace stats::threading {

/** Bump-pointer allocator with epoch reclamation (see file comment). */
class TaskArena
{
  public:
    /** Monotonic allocator counters (live resets as records die). */
    struct Stats
    {
        std::uint64_t allocations = 0; ///< Records handed out, ever.
        std::uint64_t bytes = 0;       ///< Bytes handed out, ever.
        std::uint64_t refills = 0;     ///< Block acquisitions (heap or reuse).
        std::uint64_t blockAllocs = 0; ///< Blocks taken from the heap.
        std::uint64_t live = 0;        ///< Records created minus destroyed.
        std::uint64_t epoch = 0;       ///< drainEpoch() calls so far.
    };

    /** True when this build checks the serialized-mutation contract. */
#ifdef NDEBUG
    static constexpr bool kOwnershipChecked = false;
#else
    static constexpr bool kOwnershipChecked = true;
#endif

    /** `blockBytes` is the granularity of refills (floor 4 KiB). */
    explicit TaskArena(std::size_t blockBytes = 64 * 1024);

    TaskArena(const TaskArena &) = delete;
    TaskArena &operator=(const TaskArena &) = delete;
    ~TaskArena();

    /**
     * Carve `bytes` aligned to `align` out of the current block.
     * Requests larger than the block size get a dedicated block.
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        MutationScope scope(*this);
        return allocateUnchecked(bytes, align);
    }

    /** Construct a record in arena storage. */
    template <class T, class... Args>
    T *
    create(Args &&...args)
    {
        MutationScope scope(*this);
        void *slot = allocateUnchecked(sizeof(T), alignof(T));
        ++_stats.live;
        return ::new (slot) T(std::forward<Args>(args)...);
    }

    /**
     * Run the record's destructor. The memory is *not* reusable until
     * the next drainEpoch(): the bump pointer never moves backwards
     * inside an epoch.
     */
    template <class T>
    void
    destroy(T *record)
    {
        if (!record)
            return;
        MutationScope scope(*this);
        record->~T();
        --_stats.live;
    }

    /**
     * Rewind all blocks for reuse; the epoch counter advances. Must
     * only be called at a quiescent point with no live records —
     * calling it with records outstanding panics, because the next
     * epoch would hand their storage to someone else.
     */
    void drainEpoch();

    Stats stats() const { return _stats; }

    /**
     * Optional refill observer, fired whenever a new or recycled
     * block becomes current (argument: block size in bytes, and
     * whether it came from the heap). The engine uses it to emit
     * ArenaRefill trace events stamped with executor time.
     */
    void
    setRefillHook(std::function<void(std::size_t, bool heap)> hook)
    {
        _refillHook = std::move(hook);
    }

  private:
    /**
     * Holds the "mutator active" flag for one mutation (checked
     * builds only; compiles to nothing otherwise). Relaxed on
     * purpose: the flag detects overlap but must not order two
     * mutators, or it would hide an unordered pair from TSan.
     */
    class MutationScope
    {
      public:
        explicit MutationScope(TaskArena &arena) : _arena(arena)
        {
            if constexpr (kOwnershipChecked)
                if (_arena._mutating.exchange(
                        true, std::memory_order_relaxed))
                    panicConcurrentMutation();
        }
        ~MutationScope()
        {
            if constexpr (kOwnershipChecked)
                _arena._mutating.store(false, std::memory_order_relaxed);
        }
        MutationScope(const MutationScope &) = delete;
        MutationScope &operator=(const MutationScope &) = delete;

      private:
        TaskArena &_arena;
    };

    [[noreturn]] static void panicConcurrentMutation();

    void *allocateUnchecked(std::size_t bytes, std::size_t align);

    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    /** Make block `index` current, allocating it if needed. */
    void refill(std::size_t index, std::size_t minBytes);

    std::vector<Block> _blocks;
    std::size_t _current = 0; ///< Index of the block being bumped.
    std::size_t _blockBytes;
    Stats _stats;
    std::function<void(std::size_t, bool)> _refillHook;
    std::atomic<bool> _mutating{false};
};

} // namespace stats::threading
