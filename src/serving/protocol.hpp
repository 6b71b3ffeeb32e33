/**
 * @file
 * The statsd wire protocol (docs/SERVING.md §6): length-prefixed
 * binary frames over a unix-domain stream socket.
 *
 * Frame layout:
 *
 *     u32-le payload length (type byte + body)
 *     u8     MsgType
 *     bytes  body (message-specific, coded with support/bytes.hpp:
 *            LEB128 varints, zigzag signed values, length-prefixed
 *            strings)
 *
 * Request/response pairing is strict: each request frame yields
 * exactly one response frame on the same connection, in order. An
 * undecodable or unexpected frame yields ErrorResp and the
 * connection stays usable.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serving/admission.hpp"
#include "serving/server.hpp"

namespace stats::serving {

/** Protocol revision; a mismatch rejects the frame. */
inline constexpr std::uint8_t kProtocolVersion = 1;

enum class MsgType : std::uint8_t
{
    // Requests (client -> daemon).
    SubmitReq,      ///< body: plan binary bytes (ExecutionPlan::save).
    StatusReq,      ///< body: varint request id.
    ResultReq,      ///< body: varint request id.
    ReplayFetchReq, ///< body: varint request id.
    DrainReq,       ///< body: empty.

    // Responses (daemon -> client).
    SubmitOk,       ///< body: varint request id.
    SubmitRejected, ///< body: varint reason + varint retry-after ms
                    ///<       + string detail.
    StatusResp,     ///< body: varint RequestState + string tenant.
    ResultResp,     ///< body: varint RequestState + varint ok
                    ///<       + string error + string resultBlob
                    ///<       + varint zigzag finalState
                    ///<       + varint invocations + varint lanes.
    ReplayFetchResp,///< body: the RecordLog bytes (empty = none).
    DrainResp,      ///< body: varint requests completed.
    ErrorResp,      ///< body: string message.
};

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::ErrorResp;
    std::string body;
};

/** Encode a frame into its on-wire bytes. */
std::string encodeFrame(const Frame &frame);

/**
 * Blocking frame I/O on a connected stream socket. readFrame returns
 * nullopt on EOF or a malformed/oversized frame; writeFrame returns
 * false when the peer went away.
 */
std::optional<Frame> readFrame(int fd);
bool writeFrame(int fd, const Frame &frame);

/** Bound on a frame payload (plans and logs are small). */
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

// ------------------------------------------------ body codecs
// (shared by daemon and client; tests exercise round trips)

std::string encodeSubmitRejected(const AdmissionVerdict &verdict);
bool decodeSubmitRejected(const std::string &body,
                          AdmissionVerdict &verdict);

std::string encodeResult(const RequestStatus &status);
bool decodeResult(const std::string &body, RequestStatus &status);

/** One varint: a request id, or the DrainResp completed count. */
std::string encodeRequestId(std::uint64_t request_id);
bool decodeRequestId(const std::string &body,
                     std::uint64_t &request_id);

std::string encodeStatus(const RequestStatus &status);
bool decodeStatus(const std::string &body, RequestState &state,
                  std::string &tenant);

} // namespace stats::serving
