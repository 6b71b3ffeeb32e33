/**
 * @file
 * Protocol fuzz micro-tier (ctest label: fuzz): every decoder on the
 * serving wire path — the body codecs in protocol.cpp, the framing
 * layer, both ExecutionPlan decoders, and the RecordLog decoders that
 * read served replay logs — fed systematically
 * truncated and randomly bit-flipped inputs. The contract under test
 * is *clean rejection*: a decoder returns false/nullopt or a value
 * whose enums are in range; it never crashes, over-reads (the
 * sanitizer jobs run this tier), or accepts trailing garbage.
 *
 * Deterministic: one fixed root seed via support::SeedSequence, so a
 * failure reproduces bit-for-bit.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "replay/record_log.hpp"
#include "serving/execution_plan.hpp"
#include "serving/protocol.hpp"
#include "serving/server.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace {

using namespace stats;
using serving::AdmissionVerdict;
using serving::ExecutionPlan;
using serving::JobKind;
using serving::RejectReason;
using serving::RequestState;
using serving::RequestStatus;

constexpr std::uint64_t kRootSeed = 0xf022ed5e21ULL;
constexpr int kFlipsPerInput = 300;

/** A fully-populated status, so every codec field is non-trivial. */
RequestStatus
sampleStatus()
{
    RequestStatus status;
    status.state = RequestState::Done;
    status.tenant = "alpha";
    status.result.ok = true;
    status.result.error = "";
    status.result.resultBlob = std::string("\x01\x02\x7f\xff", 4);
    status.result.finalState = -123456789;
    status.result.invocations = 12;
    status.result.batchedLanes = 4;
    return status;
}

ExecutionPlan
samplePlan()
{
    ExecutionPlan plan;
    plan.kind = JobKind::IrSequential;
    plan.tenant = "fuzz";
    plan.moduleText = "module \"m\"\n";
    plan.rootSeed = 42;
    plan.inputs = 8;
    plan.batchLanes = 2;
    plan.noCache = true;
    return plan;
}

/** A log with metadata, payloads and negative fields. */
replay::RecordLog
sampleLog()
{
    replay::RecordLog log;
    log.rootSeed = 77;
    log.setMeta("tenant", "fuzz");
    log.setMeta("mode", "par");
    replay::Record begin;
    begin.kind = replay::RecordKind::RunBegin;
    begin.payload = replay::encodeConfig({1, 4, 1, 1, 0, 8, 1, 32});
    log.records.push_back(begin);
    replay::Record squash;
    squash.kind = replay::RecordKind::Squash;
    squash.epoch = 1;
    squash.group = 2;
    squash.a = -2;
    log.records.push_back(squash);
    replay::Record end;
    end.kind = replay::RecordKind::RunEnd;
    end.epoch = 2;
    end.payload = replay::encodeStats({7, 2, 1, 1, 3, 40});
    log.records.push_back(end);
    return log;
}

/** In-range check for whatever a lenient decode let through. */
void
expectSaneStatus(const RequestStatus &status)
{
    EXPECT_LE(static_cast<int>(status.state), 5);
    EXPECT_GE(status.result.batchedLanes, 0);
}

/**
 * Drive one `(bytes) -> accepted?` decoder through every truncation
 * and kFlipsPerInput random single-bit corruptions of `valid`.
 * `decode` must already assert whatever "sane on accept" means.
 */
void
fuzzDecoder(const std::string &name, const std::string &valid,
            const std::function<bool(const std::string &)> &decode)
{
    SCOPED_TRACE(name + " (root seed 0xf022ed5e21)");
    ASSERT_TRUE(decode(valid)) << name << ": valid input rejected";

    // Every strict prefix must be rejected: all codecs here either
    // run out of fields or fail the trailing-bytes check.
    for (std::size_t cut = 0; cut < valid.size(); ++cut)
        EXPECT_FALSE(decode(valid.substr(0, cut)))
            << name << ": accepted truncation at " << cut;

    // And appended garbage must be rejected too (pos == size check).
    EXPECT_FALSE(decode(valid + '\0'))
        << name << ": accepted one trailing byte";

    support::Xoshiro256 rng(
        support::SeedSequence(kRootSeed).derive(name));
    for (int flip = 0; flip < kFlipsPerInput; ++flip) {
        std::string mutated = valid;
        const auto byte = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(valid.size()) - 1));
        mutated[byte] ^= static_cast<char>(
            1 << rng.uniformInt(0, 7));
        // Either verdict is fine — the flip may be benign — but the
        // call must return (no crash/over-read) and, on accept, the
        // decode lambda's own sanity checks must have held.
        (void)decode(mutated);
    }
}

// ======================================================= Body codecs

TEST(ProtocolFuzzTest, SubmitRejectedBodySurvivesCorruption)
{
    AdmissionVerdict verdict;
    verdict.reason = RejectReason::QuotaExceeded;
    verdict.detail = "over rate";
    verdict.retryAfterSeconds = 1.25;
    fuzzDecoder("decodeSubmitRejected",
                serving::encodeSubmitRejected(verdict),
                [](const std::string &bytes) {
                    AdmissionVerdict out;
                    if (!serving::decodeSubmitRejected(bytes, out))
                        return false;
                    EXPECT_LT(static_cast<int>(out.reason),
                              serving::kRejectReasonCount);
                    return true;
                });
}

TEST(ProtocolFuzzTest, ResultBodySurvivesCorruption)
{
    fuzzDecoder("decodeResult",
                serving::encodeResult(sampleStatus()),
                [](const std::string &bytes) {
                    RequestStatus out;
                    if (!serving::decodeResult(bytes, out))
                        return false;
                    expectSaneStatus(out);
                    return true;
                });
}

TEST(ProtocolFuzzTest, StatusBodySurvivesCorruption)
{
    fuzzDecoder("decodeStatus",
                serving::encodeStatus(sampleStatus()),
                [](const std::string &bytes) {
                    RequestState state = RequestState::Unknown;
                    std::string tenant;
                    if (!serving::decodeStatus(bytes, state, tenant))
                        return false;
                    EXPECT_LE(static_cast<int>(state), 5);
                    return true;
                });
}

TEST(ProtocolFuzzTest, RequestIdBodySurvivesCorruption)
{
    // decodeRequestId accepts any whole varint, so only truncations
    // and trailing bytes are rejectable; flips must merely not crash.
    const std::string valid = serving::encodeRequestId(0x12345678u);
    const auto decode = [](const std::string &bytes) {
        std::uint64_t id = 0;
        return serving::decodeRequestId(bytes, id);
    };
    ASSERT_TRUE(decode(valid));
    for (std::size_t cut = 0; cut < valid.size(); ++cut)
        EXPECT_FALSE(decode(valid.substr(0, cut)));
    EXPECT_FALSE(decode(valid + '\0'));
}

// ============================================================ Frames

TEST(ProtocolFuzzTest, TruncatedFramesNeverDecode)
{
    serving::Frame frame;
    frame.type = serving::MsgType::SubmitReq;
    frame.body = samplePlan().saveToString();
    const std::string wire = serving::encodeFrame(frame);

    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], wire.data(), cut),
                  static_cast<ssize_t>(cut));
        ::close(fds[1]); // EOF mid-frame.
        EXPECT_FALSE(serving::readFrame(fds[0]).has_value())
            << "accepted a frame truncated at " << cut;
        ::close(fds[0]);
    }
}

TEST(ProtocolFuzzTest, OversizedAndCorruptFrameHeadersAreRejected)
{
    serving::Frame frame;
    frame.type = serving::MsgType::StatusReq;
    frame.body = serving::encodeRequestId(7);
    const std::string wire = serving::encodeFrame(frame);

    // A declared length beyond kMaxFrameBytes must be refused before
    // any allocation-sized read; length zero cannot carry the type.
    for (const std::uint32_t bad :
         {serving::kMaxFrameBytes + 1, 0xffffffffu, 0u}) {
        std::string mutated = wire;
        for (int i = 0; i < 4; ++i)
            mutated[static_cast<std::size_t>(i)] =
                static_cast<char>((bad >> (8 * i)) & 0xff);
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], mutated.data(), mutated.size()),
                  static_cast<ssize_t>(mutated.size()));
        ::close(fds[1]);
        EXPECT_FALSE(serving::readFrame(fds[0]).has_value())
            << "accepted declared length " << bad;
        ::close(fds[0]);
    }

    // Random header flips: reject or deliver exactly one frame.
    support::Xoshiro256 rng(
        support::SeedSequence(kRootSeed).derive("frame-header"));
    for (int flip = 0; flip < kFlipsPerInput; ++flip) {
        std::string mutated = wire;
        const auto byte = static_cast<std::size_t>(
            rng.uniformInt(0, 4)); // Header + type byte only.
        mutated[byte] ^= static_cast<char>(
            1 << rng.uniformInt(0, 7));
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], mutated.data(), mutated.size()),
                  static_cast<ssize_t>(mutated.size()));
        ::close(fds[1]);
        (void)serving::readFrame(fds[0]);
        ::close(fds[0]);
    }
}

// ==================================================== Plan decoders

TEST(ProtocolFuzzTest, BinaryPlanDecoderSurvivesCorruption)
{
    fuzzDecoder("ExecutionPlan::load",
                samplePlan().saveToString(),
                [](const std::string &bytes) {
                    std::string error;
                    const auto plan =
                        ExecutionPlan::load(bytes, error);
                    if (!plan) {
                        EXPECT_FALSE(error.empty());
                        return false;
                    }
                    EXPECT_LE(static_cast<int>(plan->kind), 2);
                    return true;
                });
}

// ================================================ Record-log decoders

TEST(ProtocolFuzzTest, RecordLogDecoderSurvivesCorruption)
{
    fuzzDecoder("RecordLog::load", sampleLog().saveToString(),
                [](const std::string &bytes) {
                    std::istringstream in(bytes);
                    std::string error;
                    const auto log = replay::RecordLog::load(in, error);
                    if (!log) {
                        EXPECT_FALSE(error.empty());
                        return false;
                    }
                    for (const auto &record : log->records)
                        EXPECT_LT(static_cast<int>(record.kind),
                                  replay::kRecordKindCount);
                    return true;
                });
}

TEST(ProtocolFuzzTest, ReplaceMetaInBytesSurvivesCorruption)
{
    // The in-place edit parses only the header, so on its own it
    // accepts a truncated tail. The property checked instead: it never
    // crashes, and on every input that load() accepts it succeeds
    // exactly when the key is present and equals load + setMeta + save.
    fuzzDecoder(
        "RecordLog::replaceMetaInBytes", sampleLog().saveToString(),
        [](const std::string &bytes) {
            std::string edited = bytes;
            std::string error;
            const bool replaced = replay::RecordLog::replaceMetaInBytes(
                edited, "mode", "seq", error);
            if (!replaced) {
                EXPECT_FALSE(error.empty());
            }
            std::istringstream in(bytes);
            auto log = replay::RecordLog::load(in, error);
            if (!log)
                return false;
            const bool has_key = std::any_of(
                log->metadata.begin(), log->metadata.end(),
                [](const auto &entry) { return entry.first == "mode"; });
            EXPECT_EQ(replaced, has_key);
            if (!replaced)
                return false;
            log->setMeta("mode", "seq");
            EXPECT_EQ(edited, log->saveToString());
            return true;
        });
}

TEST(ProtocolFuzzTest, TextPlanDecoderSurvivesCorruption)
{
    // The text form tolerates some flips (e.g. inside a digit run),
    // so this checks no-crash plus error reporting on rejection —
    // truncation behavior is value-dependent and not asserted.
    const std::string valid = samplePlan().toText();
    std::string error;
    ASSERT_TRUE(ExecutionPlan::fromText(valid, error)) << error;

    support::Xoshiro256 rng(
        support::SeedSequence(kRootSeed).derive("plan-text"));
    for (int flip = 0; flip < kFlipsPerInput; ++flip) {
        std::string mutated = valid;
        const auto byte = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(valid.size()) - 1));
        mutated[byte] ^= static_cast<char>(
            1 << rng.uniformInt(0, 7));
        std::string flip_error;
        const auto plan = ExecutionPlan::fromText(mutated, flip_error);
        if (!plan)
            EXPECT_FALSE(flip_error.empty())
                << "rejection without a diagnostic at byte " << byte;
    }

    // Random truncation at a line boundary must parse or reject
    // cleanly, never crash.
    for (int cut = 0; cut < 64; ++cut) {
        const auto at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(valid.size())));
        std::string cut_error;
        (void)ExecutionPlan::fromText(valid.substr(0, at), cut_error);
    }
}

} // namespace
