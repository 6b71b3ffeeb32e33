/**
 * @file
 * Unit tests for the support library: PRVGs, statistics, JSON
 * writing, string utilities, and the byte codec.
 */

#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "support/bytes.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace {

using namespace stats::support;

TEST(Rng, SameSeedSameSequence)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Xoshiro256 rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Xoshiro256 rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, EntropySeedsDistinct)
{
    const auto a = entropySeed();
    const auto b = entropySeed();
    EXPECT_NE(a, b);
}

TEST(Rng, DeterministicSeedScope)
{
    std::uint64_t first, second;
    {
        ScopedDeterministicSeeds scope(123);
        first = entropySeed();
    }
    {
        ScopedDeterministicSeeds scope(123);
        second = entropySeed();
    }
    EXPECT_EQ(first, second);
}

TEST(Statistics, RunningStatMatchesClosedForm)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(Statistics, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({8.0}), 8.0, 1e-12);
}

TEST(Statistics, MedianEvenOdd)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Statistics, MeasureToConfidenceStopsEarlyOnStableSamples)
{
    int calls = 0;
    const double result = measureToConfidence([&] {
        ++calls;
        return 10.0;
    });
    EXPECT_DOUBLE_EQ(result, 10.0);
    EXPECT_EQ(calls, 3); // minRuns with zero variance.
}

TEST(Json, ObjectWithNestedArray)
{
    std::ostringstream out;
    {
        JsonWriter json(out, /* pretty */ false);
        json.beginObject()
            .field("name", "fig12")
            .key("series")
            .beginArray()
            .value(1.0)
            .value(2.5)
            .endArray()
            .field("ok", true)
            .endObject();
    }
    EXPECT_EQ(out.str(), "{\"name\":\"fig12\",\"series\":[1,2.5],"
                         "\"ok\":true}\n");
}

TEST(Json, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringUtils, SplitAndTrim)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, SplitWhitespace)
{
    const auto words = splitWhitespace("  foo\tbar \n baz ");
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[0], "foo");
    EXPECT_EQ(words[2], "baz");
}

TEST(StringUtils, PrefixSuffixJoin)
{
    EXPECT_TRUE(startsWith("tradeoff TO_x", "tradeoff"));
    EXPECT_FALSE(startsWith("x", "xyz"));
    EXPECT_TRUE(endsWith("file.cpp", ".cpp"));
    EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
}

TEST(StringUtils, CountLines)
{
    EXPECT_EQ(countLines(""), 0u);
    EXPECT_EQ(countLines("one"), 1u);
    EXPECT_EQ(countLines("one\ntwo\n"), 2u);
    EXPECT_EQ(countLines("one\ntwo\nthree"), 3u);
}

TEST(Table, AlignsColumns)
{
    TextTable table({"bench", "speedup"});
    table.addRow({"swaptions", "24.00"});
    table.addRow("bodytrack", {12.345}, 2);
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("swaptions"), std::string::npos);
    EXPECT_NE(text.find("12.35"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

// =====================================================================
// Byte codec (support/bytes.hpp)
// =====================================================================

TEST(Varint, RoundTripsBoundaryValues)
{
    const std::uint64_t values[] = {
        0,   1,   127,        128,        16383, 16384,
        ~0ULL >> 1, ~0ULL, 0x8000000000000000ULL, 42};
    for (std::uint64_t value : values) {
        std::string buffer;
        putVarint(buffer, value);
        ByteReader reader(buffer);
        EXPECT_EQ(reader.varint(), value);
        EXPECT_TRUE(reader.atEnd());
    }
}

TEST(Varint, DetectsTruncation)
{
    std::string buffer;
    putVarint(buffer, 1ULL << 40);
    buffer.resize(buffer.size() - 1); // Drop the terminating byte.
    ByteReader reader(buffer);
    EXPECT_EQ(reader.varint(), 0u);
    EXPECT_FALSE(reader.ok());
}

TEST(Zigzag, RoundTripsSignedValues)
{
    const std::int64_t values[] = {0, -1, 1, -2, 2, 1LL << 62,
                                   -(1LL << 62), INT64_MIN, INT64_MAX};
    for (std::int64_t value : values) {
        std::string buffer;
        putSigned(buffer, value);
        ByteReader reader(buffer);
        EXPECT_EQ(reader.signedVarint(), value);
        EXPECT_TRUE(reader.atEnd());
    }
    // Small magnitudes stay small (the point of the mapping): -3 maps
    // to 5, a one-byte varint.
    std::string buffer;
    putSigned(buffer, -3);
    EXPECT_EQ(buffer, std::string(1, '\x05'));
}

TEST(ByteReader, StringsAndLiteralsRoundTrip)
{
    std::string buffer = "MAGC";
    putString(buffer, "");
    putString(buffer, std::string("a\0b", 3));
    buffer.push_back('\x7f');
    ByteReader reader(buffer);
    EXPECT_TRUE(reader.expect("MAGC"));
    EXPECT_EQ(reader.string(), "");
    EXPECT_EQ(reader.string(), std::string("a\0b", 3));
    EXPECT_EQ(reader.byte(), 0x7f);
    EXPECT_TRUE(reader.atEnd());

    ByteReader wrong(buffer);
    EXPECT_FALSE(wrong.expect("MAGX"));
    EXPECT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.pos(), 0u);
}

TEST(ByteReader, FailuresAreSticky)
{
    std::string buffer;
    putVarint(buffer, 300);
    putString(buffer, "tail");
    ByteReader reader(buffer);
    EXPECT_FALSE(reader.expect("nope"));
    // Every later read fails, even one the bytes could satisfy, and
    // the cursor does not move.
    EXPECT_EQ(reader.varint(), 0u);
    EXPECT_EQ(reader.string(), "");
    EXPECT_EQ(reader.byte(), 0u);
    EXPECT_EQ(reader.signedVarint(), 0);
    EXPECT_EQ(reader.count(1), 0u);
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.atEnd());
    EXPECT_EQ(reader.pos(), 0u);

    // Running off the end also sticks.
    ByteReader tail(std::string_view(buffer).substr(0, 2));
    EXPECT_EQ(tail.varint(), 300u);
    EXPECT_EQ(tail.byte(), 0u);
    EXPECT_FALSE(tail.ok());
}

TEST(ByteReader, CountIsBoundedByTheRemainingBytes)
{
    // Four bytes follow the count: room for four 1-byte items or two
    // 2-byte items, never more.
    const auto declaring = [](std::uint64_t declared) {
        std::string buffer;
        putVarint(buffer, declared);
        return buffer + "wxyz";
    };
    const std::string four = declaring(4);
    ByteReader ones(four);
    EXPECT_EQ(ones.count(1), 4u);
    EXPECT_TRUE(ones.ok());
    ByteReader twos(four);
    EXPECT_EQ(twos.count(2), 0u);
    EXPECT_FALSE(twos.ok());
    const std::string two = declaring(2);
    ByteReader pairs(two);
    EXPECT_EQ(pairs.count(2), 2u);
    EXPECT_TRUE(pairs.ok());
    // A count near 2^64 is rejected, never used to size anything.
    for (const std::uint64_t huge : {1ULL << 40, 1ULL << 62, ~0ULL}) {
        const std::string bytes = declaring(huge);
        ByteReader reader(bytes);
        EXPECT_EQ(reader.count(1), 0u) << huge;
        EXPECT_FALSE(reader.ok()) << huge;
    }
}

TEST(ByteReader, HugeStringLengthFailsWithoutWrapping)
{
    // `pos + length` would wrap to a small value for these lengths;
    // the reader compares against the remaining bytes instead.
    for (const std::uint64_t length :
         {~0ULL, ~0ULL - 1, 1ULL << 63, 5ULL}) {
        std::string buffer;
        putVarint(buffer, length);
        buffer += "abcd";
        ByteReader reader(buffer);
        EXPECT_EQ(reader.string(), "") << length;
        EXPECT_FALSE(reader.ok()) << length;
    }
}

TEST(Fnv1a, MatchesTheReferenceVectorsAndChains)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
    // A seed continues a previous hash.
    EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

} // namespace
