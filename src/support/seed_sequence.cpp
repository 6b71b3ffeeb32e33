#include "support/seed_sequence.hpp"

#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace stats::support {

std::uint64_t
SeedSequence::derive(std::string_view stream) const
{
    std::uint64_t hash = fnv1a(stream, kFnvOffsetBasis ^ _root);
    // splitmix64 finalization: FNV alone is too linear for seeds that
    // feed xoshiro state expansion.
    return splitmix64(hash);
}

std::uint64_t
SeedSequence::derive(std::string_view stream, std::uint64_t index) const
{
    std::uint64_t hash = fnv1a(
        std::string_view(reinterpret_cast<const char *>(&index),
                         sizeof index),
        fnv1a(stream, kFnvOffsetBasis ^ _root));
    return splitmix64(hash);
}

} // namespace stats::support
