/**
 * @file
 * Chase–Lev work-stealing deque.
 *
 * One owner thread pushes at the *bottom*; any number of thief
 * threads steal from the *top* (FIFO) with a single CAS. The owner
 * takes from the top as well (`take()`, one CAS and no fence), so
 * every consumer sees the deque oldest-first; Chase and Lev's LIFO
 * owner pop is not provided (the scheduler runs a worker's own tasks
 * in submission order, docs/INTERNALS.md §4). The memory orderings follow Lê, Pop, Cohen
 * & Zappa Nardelli, "Correct and Efficient Work-Stealing for Weak
 * Memory Models" (PPoPP'13), the C11 formalization of Chase & Lev's
 * original algorithm.
 *
 * The deque stores raw `T*` pointers (ownership is the scheduler's
 * problem): slots must be trivially overwritable while a concurrent
 * steal may still be reading them, which rules out storing non-trivial
 * values inline. The buffer grows geometrically on overflow; retired
 * buffers are kept alive until destruction so a racing steal can
 * never read freed memory.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace stats::threading {

/** Single-owner, multi-thief deque of `T*` (see file comment). */
template <class T>
class WorkStealDeque
{
  public:
    /** `capacity` is rounded up to a power of two (floor 8). */
    explicit WorkStealDeque(std::size_t capacity = 256)
    {
        std::size_t size = 8;
        while (size < capacity)
            size <<= 1;
        auto initial = std::make_unique<Buffer>(size);
        _buffer.store(initial.get(), std::memory_order_relaxed);
        _buffers.push_back(std::move(initial));
    }

    WorkStealDeque(const WorkStealDeque &) = delete;
    WorkStealDeque &operator=(const WorkStealDeque &) = delete;

    /** Owner only: push one item at the bottom; grows when full. */
    void
    push(T *item)
    {
        const std::int64_t b = _bottom.load(std::memory_order_relaxed);
        const std::int64_t t = _top.load(std::memory_order_acquire);
        Buffer *buffer = _buffer.load(std::memory_order_relaxed);
        if (b - t > static_cast<std::int64_t>(buffer->mask)) {
            buffer = grow(buffer, t, b);
        }
        // Lê et al. publish with a release fence and relaxed stores;
        // the release slot store is equivalent here (and visible to
        // ThreadSanitizer, which does not model fences): it carries
        // the happens-before edge from the item's construction to the
        // thief's acquire load in steal().
        buffer->slot(b).store(item, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_release);
        _bottom.store(b + 1, std::memory_order_relaxed);
    }

    /** Any thread: steal the oldest item, or nullptr (empty or lost). */
    T *
    steal()
    {
        std::int64_t t = _top.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::int64_t b = _bottom.load(std::memory_order_acquire);
        if (t >= b)
            return nullptr; // Empty.
        Buffer *buffer = _buffer.load(std::memory_order_acquire);
        // Acquire pairs with push()'s release slot store (see there).
        T *item = buffer->slot(t).load(std::memory_order_acquire);
        if (!_top.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
            return nullptr; // Lost the race; caller may retry elsewhere.
        }
        return item;
    }

    /**
     * Owner only: take the oldest item, or nullptr once the deque is
     * empty. Cheaper than steal(): the owner is the only writer of
     * bottom and bottom never shrinks (there is no pop), so its
     * relaxed read is exact and needs no fence against the thieves.
     * The item was pushed by this same thread, so reading its slot
     * needs no acquire either. Only the CAS on top remains; it
     * arbitrates each item against racing thieves (top only grows, so
     * there is no ABA). A lost CAS means a thief took that item and
     * reloads the current top, so retry while anything remains.
     */
    T *
    take()
    {
        const std::int64_t b = _bottom.load(std::memory_order_relaxed);
        std::int64_t t = _top.load(std::memory_order_relaxed);
        Buffer *buffer = _buffer.load(std::memory_order_relaxed);
        while (t < b) {
            T *item = buffer->slot(t).load(std::memory_order_relaxed);
            if (_top.compare_exchange_weak(t, t + 1,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed))
                return item;
        }
        return nullptr;
    }

    /**
     * Racy size estimate (never negative). Exact only for the owner
     * between operations; used for wake heuristics and queue-depth
     * trace snapshots.
     */
    std::size_t
    sizeApprox() const
    {
        const std::int64_t b = _bottom.load(std::memory_order_relaxed);
        const std::int64_t t = _top.load(std::memory_order_relaxed);
        return b > t ? static_cast<std::size_t>(b - t) : 0;
    }

  private:
    struct Buffer
    {
        explicit Buffer(std::size_t size)
            : mask(size - 1),
              slots(std::make_unique<std::atomic<T *>[]>(size))
        {
        }

        std::atomic<T *> &
        slot(std::int64_t index)
        {
            return slots[static_cast<std::size_t>(index) & mask];
        }

        std::size_t mask;
        std::unique_ptr<std::atomic<T *>[]> slots;
    };

    /** Owner only: double the buffer, copying the live window. */
    Buffer *
    grow(Buffer *old, std::int64_t top, std::int64_t bottom)
    {
        auto grown = std::make_unique<Buffer>(2 * (old->mask + 1));
        for (std::int64_t i = top; i < bottom; ++i) {
            grown->slot(i).store(
                old->slot(i).load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        Buffer *result = grown.get();
        _buffer.store(result, std::memory_order_release);
        // The old buffer stays allocated (thieves may still read it);
        // it is reclaimed when the deque is destroyed.
        _buffers.push_back(std::move(grown));
        return result;
    }

    std::atomic<std::int64_t> _top{0};
    std::atomic<std::int64_t> _bottom{0};
    std::atomic<Buffer *> _buffer{nullptr};
    std::vector<std::unique_ptr<Buffer>> _buffers; // Owner only.
};

} // namespace stats::threading
