#include "threading/arena.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace stats::threading {

namespace {

constexpr std::size_t kMinBlockBytes = 4 * 1024;

std::uintptr_t
alignUp(std::uintptr_t value, std::size_t align)
{
    return (value + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
}

} // namespace

TaskArena::TaskArena(std::size_t blockBytes)
    : _blockBytes(std::max(blockBytes, kMinBlockBytes))
{
}

TaskArena::~TaskArena()
{
    if (_stats.live != 0) {
        // A leak here means some task record was never destroyed —
        // the engine's contract is that every onComplete path frees
        // its record. Loud beats silent.
        support::panic("TaskArena destroyed with ", _stats.live,
                       " live records");
    }
}

void
TaskArena::panicConcurrentMutation()
{
    support::panic("TaskArena: concurrent mutation — create/destroy/"
                   "allocate/drainEpoch overlapped on two threads; "
                   "arena mutation must be externally serialized "
                   "(threading/arena.hpp)");
}

void *
TaskArena::allocateUnchecked(std::size_t bytes, std::size_t align)
{
    if (bytes == 0)
        bytes = 1;
    // Refills reserve padding headroom: a block base from
    // `new unsigned char[]` is only aligned to the default new
    // alignment, so a stricter `align` may cost up to align-1 bytes.
    const std::size_t need = bytes + align - 1;
    if (_blocks.empty() || _current >= _blocks.size())
        refill(_blocks.size(), need);
    for (;;) {
        Block &block = _blocks[_current];
        // Align the address, not the offset: the base itself carries
        // no alignment guarantee beyond the default.
        const std::uintptr_t base =
            reinterpret_cast<std::uintptr_t>(block.data.get());
        const std::size_t offset =
            static_cast<std::size_t>(
                alignUp(base + block.used, align)) -
            static_cast<std::size_t>(base);
        if (offset + bytes <= block.size) {
            block.used = offset + bytes;
            ++_stats.allocations;
            _stats.bytes += bytes;
            return block.data.get() + offset;
        }
        // Current block exhausted: move to the next (recycled from a
        // previous epoch when available, fresh from the heap when not).
        refill(_current + 1, need);
    }
}

void
TaskArena::refill(std::size_t index, std::size_t minBytes)
{
    bool heap = false;
    if (index >= _blocks.size() || _blocks[index].size < minBytes) {
        Block block;
        block.size = std::max(_blockBytes, minBytes);
        // Uninitialized: records are placement-constructed, and
        // zero-filling a fresh block faults in every page of it on
        // the submitting thread (the engine's start() path).
        block.data.reset(new unsigned char[block.size]);
        heap = true;
        ++_stats.blockAllocs;
        if (index >= _blocks.size()) {
            _blocks.push_back(std::move(block));
            index = _blocks.size() - 1;
        } else {
            // An undersized recycled block is replaced, not leaked:
            // the replacement inherits its slot.
            _blocks[index] = std::move(block);
        }
    }
    _current = index;
    _blocks[_current].used = 0;
    ++_stats.refills;
    if (_refillHook)
        _refillHook(_blocks[_current].size, heap);
}

void
TaskArena::drainEpoch()
{
    MutationScope scope(*this);
    if (_stats.live != 0) {
        support::panic("TaskArena::drainEpoch with ", _stats.live,
                       " live records");
    }
    for (Block &block : _blocks)
        block.used = 0;
    _current = 0;
    ++_stats.epoch;
}

} // namespace stats::threading
