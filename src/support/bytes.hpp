/**
 * @file
 * The byte codec behind every binary format STATS writes: execution
 * plans (`STPL`), record logs (`STRL`), statsd frame bodies and the
 * served result blobs. Values are LEB128 varints; signed values are
 * zigzag-mapped first; strings are a varint length plus the bytes.
 *
 * Writers are free functions that append to a std::string. ByteReader
 * is the one decoding cursor. Its failures are sticky: after a read
 * fails, every later read fails too and returns zero or empty, so a
 * decoder checks ok() once per section rather than after each field.
 * No read goes past the end of the input, and count() rejects any
 * declared element count that the remaining bytes cannot hold, so an
 * untrusted count never sizes an allocation or a loop.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace stats::support {

/** Append a LEB128-encoded unsigned value. */
void putVarint(std::string &out, std::uint64_t value);

/** Append a signed value as the varint of its zigzag mapping. */
void putSigned(std::string &out, std::int64_t value);

/** Append a varint length followed by the bytes. */
void putString(std::string &out, std::string_view value);

/** Bounds-checked decoding cursor over a byte string it does not own. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : _bytes(bytes) {}

    /** False once any read has failed. */
    bool ok() const { return _ok; }
    /** True when no read failed and every byte was consumed. */
    bool atEnd() const { return _ok && _pos == _bytes.size(); }
    /** Offset of the next unread byte. */
    std::size_t pos() const { return _pos; }

    std::uint8_t byte();
    std::uint64_t varint();
    /** Read a zigzag-mapped varint (the inverse of putSigned). */
    std::int64_t signedVarint();
    std::string string();
    /** Consume `literal` (a magic or trailer); fail if it is absent. */
    bool expect(std::string_view literal);
    /**
     * Read a declared element count. Fails when the remaining bytes
     * cannot hold that many elements of at least `min_item_bytes`
     * each (which must be at least 1).
     */
    std::uint64_t count(std::size_t min_item_bytes);

  private:
    std::size_t remaining() const { return _bytes.size() - _pos; }

    std::string_view _bytes;
    std::size_t _pos = 0;
    bool _ok = true;
};

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a of `bytes`, continuing from `seed`. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = kFnvOffsetBasis);

} // namespace stats::support
