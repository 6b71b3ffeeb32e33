#include "support/bytes.hpp"

namespace stats::support {

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

void
putSigned(std::string &out, std::int64_t value)
{
    putVarint(out, (static_cast<std::uint64_t>(value) << 1) ^
                       static_cast<std::uint64_t>(value >> 63));
}

void
putString(std::string &out, std::string_view value)
{
    putVarint(out, value.size());
    out.append(value);
}

std::uint8_t
ByteReader::byte()
{
    if (!_ok || _pos >= _bytes.size()) {
        _ok = false;
        return 0;
    }
    return static_cast<std::uint8_t>(_bytes[_pos++]);
}

std::uint64_t
ByteReader::varint()
{
    std::uint64_t value = 0;
    for (int shift = 0; _ok && _pos < _bytes.size() && shift < 64;
         shift += 7) {
        const auto byte = static_cast<unsigned char>(_bytes[_pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return value;
    }
    _ok = false;
    return 0;
}

std::int64_t
ByteReader::signedVarint()
{
    const std::uint64_t raw = varint();
    return static_cast<std::int64_t>(raw >> 1) ^
           -static_cast<std::int64_t>(raw & 1);
}

std::string
ByteReader::string()
{
    const std::uint64_t size = varint();
    // Compare against what is left rather than `pos + size`, which
    // wraps for a huge declared size.
    if (!_ok || size > remaining()) {
        _ok = false;
        return {};
    }
    std::string value(_bytes.substr(_pos, size));
    _pos += size;
    return value;
}

bool
ByteReader::expect(std::string_view literal)
{
    if (!_ok || _bytes.substr(_pos, literal.size()) != literal) {
        _ok = false;
        return false;
    }
    _pos += literal.size();
    return true;
}

std::uint64_t
ByteReader::count(std::size_t min_item_bytes)
{
    const std::uint64_t n = varint();
    if (!_ok || n > remaining() / min_item_bytes) {
        _ok = false;
        return 0;
    }
    return n;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (const unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace stats::support
