#include "serving/protocol.hpp"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "support/bytes.hpp"

namespace stats::serving {

namespace {

bool
readAll(int fd, void *buffer, std::size_t bytes)
{
    auto *cursor = static_cast<char *>(buffer);
    while (bytes > 0) {
        const ssize_t n = ::read(fd, cursor, bytes);
        if (n == 0)
            return false; // EOF.
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        cursor += n;
        bytes -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeAll(int fd, const void *buffer, std::size_t bytes)
{
    const auto *cursor = static_cast<const char *>(buffer);
    while (bytes > 0) {
        const ssize_t n = ::write(fd, cursor, bytes);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        cursor += n;
        bytes -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string
encodeFrame(const Frame &frame)
{
    const std::uint32_t length =
        static_cast<std::uint32_t>(frame.body.size() + 1);
    std::string wire;
    wire.reserve(4 + length);
    for (int shift = 0; shift < 32; shift += 8)
        wire.push_back(
            static_cast<char>((length >> shift) & 0xff));
    wire.push_back(static_cast<char>(frame.type));
    wire += frame.body;
    return wire;
}

std::optional<Frame>
readFrame(int fd)
{
    unsigned char header[4];
    if (!readAll(fd, header, sizeof header))
        return std::nullopt;
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    if (length < 1 || length > kMaxFrameBytes)
        return std::nullopt;

    Frame frame;
    unsigned char type = 0;
    if (!readAll(fd, &type, 1))
        return std::nullopt;
    frame.type = static_cast<MsgType>(type);
    frame.body.resize(length - 1);
    if (length > 1 && !readAll(fd, frame.body.data(), length - 1))
        return std::nullopt;
    return frame;
}

bool
writeFrame(int fd, const Frame &frame)
{
    const std::string wire = encodeFrame(frame);
    return writeAll(fd, wire.data(), wire.size());
}

std::string
encodeSubmitRejected(const AdmissionVerdict &verdict)
{
    std::string body;
    support::putVarint(body, static_cast<std::uint64_t>(verdict.reason));
    support::putVarint(body, static_cast<std::uint64_t>(
                                 verdict.retryAfterSeconds * 1000.0));
    support::putString(body, verdict.detail);
    return body;
}

bool
decodeSubmitRejected(const std::string &body,
                     AdmissionVerdict &verdict)
{
    support::ByteReader in(body);
    const std::uint64_t reason = in.varint();
    const std::uint64_t retry_ms = in.varint();
    verdict.detail = in.string();
    if (!in.atEnd() ||
        reason >= static_cast<std::uint64_t>(kRejectReasonCount))
        return false;
    verdict.reason = static_cast<RejectReason>(reason);
    verdict.retryAfterSeconds =
        static_cast<double>(retry_ms) / 1000.0;
    return true;
}

std::string
encodeResult(const RequestStatus &status)
{
    std::string body;
    support::putVarint(body, static_cast<std::uint64_t>(status.state));
    support::putVarint(body, status.result.ok ? 1 : 0);
    support::putString(body, status.result.error);
    support::putString(body, status.result.resultBlob);
    support::putSigned(body, status.result.finalState);
    support::putVarint(
        body, static_cast<std::uint64_t>(status.result.invocations));
    support::putVarint(
        body, static_cast<std::uint64_t>(status.result.batchedLanes));
    return body;
}

bool
decodeResult(const std::string &body, RequestStatus &status)
{
    support::ByteReader in(body);
    const std::uint64_t state = in.varint();
    const std::uint64_t ok = in.varint();
    status.result.error = in.string();
    status.result.resultBlob = in.string();
    const std::int64_t final_state = in.signedVarint();
    const std::uint64_t invocations = in.varint();
    const std::uint64_t lanes = in.varint();
    if (!in.atEnd() || state > 5)
        return false;
    status.state = static_cast<RequestState>(state);
    status.result.ok = ok != 0;
    status.result.finalState = final_state;
    status.result.invocations =
        static_cast<std::int64_t>(invocations);
    status.result.batchedLanes = static_cast<int>(lanes);
    return true;
}

std::string
encodeRequestId(std::uint64_t request_id)
{
    std::string body;
    support::putVarint(body, request_id);
    return body;
}

bool
decodeRequestId(const std::string &body, std::uint64_t &request_id)
{
    support::ByteReader in(body);
    request_id = in.varint();
    return in.atEnd();
}

std::string
encodeStatus(const RequestStatus &status)
{
    std::string body;
    support::putVarint(body, static_cast<std::uint64_t>(status.state));
    support::putString(body, status.tenant);
    return body;
}

bool
decodeStatus(const std::string &body, RequestState &state,
             std::string &tenant)
{
    support::ByteReader in(body);
    const std::uint64_t raw = in.varint();
    tenant = in.string();
    if (!in.atEnd() || raw > 5)
        return false;
    state = static_cast<RequestState>(raw);
    return true;
}

} // namespace stats::serving
