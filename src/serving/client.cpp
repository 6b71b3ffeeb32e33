#include "serving/client.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace stats::serving {

Client::Client(const std::string &socket_path, std::string &error)
{
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(address.sun_path)) {
        error = "bad socket path '" + socket_path + "'";
        return;
    }
    std::strncpy(address.sun_path, socket_path.c_str(),
                 sizeof(address.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&address),
                  sizeof(address)) != 0) {
        error = "connect('" + socket_path +
                "'): " + std::strerror(errno);
        ::close(fd);
        return;
    }
    _fd = fd;
}

Client::~Client()
{
    if (_fd >= 0)
        ::close(_fd);
}

std::optional<Frame>
Client::roundTrip(const Frame &request, std::string &error)
{
    if (_fd < 0) {
        error = "not connected";
        return std::nullopt;
    }
    if (!writeFrame(_fd, request)) {
        error = "connection lost while sending";
        return std::nullopt;
    }
    auto reply = readFrame(_fd);
    if (!reply) {
        error = "connection lost while waiting for the reply";
        return std::nullopt;
    }
    if (reply->type == MsgType::ErrorResp) {
        error = "daemon error: " + reply->body;
        return std::nullopt;
    }
    return reply;
}

std::optional<std::uint64_t>
Client::submit(const std::string &plan_bytes,
               AdmissionVerdict &verdict, std::string &error)
{
    Frame request;
    request.type = MsgType::SubmitReq;
    request.body = plan_bytes;
    const auto reply = roundTrip(request, error);
    if (!reply)
        return std::nullopt;
    if (reply->type == MsgType::SubmitRejected) {
        if (!decodeSubmitRejected(reply->body, verdict))
            error = "malformed rejection response";
        return std::nullopt;
    }
    std::uint64_t request_id = 0;
    if (reply->type != MsgType::SubmitOk ||
        !decodeRequestId(reply->body, request_id)) {
        error = "malformed submit response";
        return std::nullopt;
    }
    return request_id;
}

std::optional<RequestState>
Client::status(std::uint64_t request_id, std::string &tenant,
               std::string &error)
{
    Frame request;
    request.type = MsgType::StatusReq;
    request.body = encodeRequestId(request_id);
    const auto reply = roundTrip(request, error);
    if (!reply)
        return std::nullopt;
    RequestState state = RequestState::Unknown;
    if (reply->type != MsgType::StatusResp ||
        !decodeStatus(reply->body, state, tenant)) {
        error = "malformed status response";
        return std::nullopt;
    }
    return state;
}

std::optional<RequestStatus>
Client::result(std::uint64_t request_id, std::string &error)
{
    Frame request;
    request.type = MsgType::ResultReq;
    request.body = encodeRequestId(request_id);
    const auto reply = roundTrip(request, error);
    if (!reply)
        return std::nullopt;
    RequestStatus status;
    if (reply->type != MsgType::ResultResp ||
        !decodeResult(reply->body, status)) {
        error = "malformed result response";
        return std::nullopt;
    }
    return status;
}

std::optional<std::string>
Client::replayFetch(std::uint64_t request_id, std::string &error)
{
    Frame request;
    request.type = MsgType::ReplayFetchReq;
    request.body = encodeRequestId(request_id);
    const auto reply = roundTrip(request, error);
    if (!reply)
        return std::nullopt;
    if (reply->type != MsgType::ReplayFetchResp) {
        error = "malformed replay-fetch response";
        return std::nullopt;
    }
    return reply->body;
}

std::optional<std::uint64_t>
Client::drain(std::string &error)
{
    Frame request;
    request.type = MsgType::DrainReq;
    const auto reply = roundTrip(request, error);
    if (!reply)
        return std::nullopt;
    std::uint64_t completed = 0;
    if (reply->type != MsgType::DrainResp ||
        !decodeRequestId(reply->body, completed)) {
        error = "malformed drain response";
        return std::nullopt;
    }
    return completed;
}

} // namespace stats::serving
