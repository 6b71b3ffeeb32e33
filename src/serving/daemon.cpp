#include "serving/daemon.hpp"

#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serving/protocol.hpp"
#include "support/log.hpp"

namespace stats::serving {

Daemon::Daemon(std::string socket_path, Server::Options options)
    : _socketPath(std::move(socket_path)),
      _server(std::make_unique<Server>(std::move(options)))
{
    if (_socketPath.empty())
        support::panic("statsd: empty socket path");

    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (_socketPath.size() >= sizeof(address.sun_path))
        support::panic("statsd: socket path too long: ",
                       _socketPath);
    std::strncpy(address.sun_path, _socketPath.c_str(),
                 sizeof(address.sun_path) - 1);

    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
        support::panic("statsd: socket(): ", std::strerror(errno));
    ::unlink(_socketPath.c_str()); // Replace a stale socket file.
    if (::bind(listen_fd,
               reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) != 0)
        support::panic("statsd: bind('", _socketPath,
                       "'): ", std::strerror(errno));
    if (::listen(listen_fd, 64) != 0)
        support::panic("statsd: listen(): ", std::strerror(errno));
    _listenFd.store(listen_fd);
}

Daemon::~Daemon()
{
    stop();
    {
        // Connection threads are detached; wait for every one to
        // retire before the Server (which they call into) goes away.
        std::unique_lock<std::mutex> lock(_workersMutex);
        _workersIdle.wait(lock,
                          [this] { return _activeWorkers == 0; });
    }
    ::unlink(_socketPath.c_str());
}

void
Daemon::stop()
{
    if (_stopping.exchange(true))
        return;
    const int fd = _listenFd.exchange(-1);
    if (fd >= 0) {
        // Unblock accept().
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

void
Daemon::serveForever()
{
    while (!_stopping.load(std::memory_order_relaxed)) {
        const int listen_fd = _listenFd.load();
        if (listen_fd < 0)
            break;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // Listener closed (stop()) or fatal.
        }
        {
            std::lock_guard<std::mutex> lock(_workersMutex);
            ++_activeWorkers;
        }
        try {
            std::thread([this, fd] {
                handleConnection(fd);
                // notify under the lock: the destructor may destroy
                // the condition variable as soon as the count hits 0.
                std::lock_guard<std::mutex> lock(_workersMutex);
                --_activeWorkers;
                _workersIdle.notify_all();
            }).detach();
        } catch (...) {
            ::close(fd);
            std::lock_guard<std::mutex> lock(_workersMutex);
            --_activeWorkers;
            _workersIdle.notify_all();
        }
    }
}

Frame
Daemon::handleFrame(const Frame &frame, bool &drain_requested)
{
    Frame reply;
    switch (frame.type) {
      case MsgType::SubmitReq: {
        const SubmitOutcome outcome =
            _server->submit(frame.body);
        if (outcome.admitted()) {
            reply.type = MsgType::SubmitOk;
            reply.body = encodeRequestId(outcome.requestId);
        } else {
            reply.type = MsgType::SubmitRejected;
            reply.body = encodeSubmitRejected(outcome.verdict);
        }
        break;
      }
      case MsgType::StatusReq: {
        std::uint64_t request_id = 0;
        if (!decodeRequestId(frame.body, request_id)) {
            reply.type = MsgType::ErrorResp;
            reply.body = "malformed status request";
            break;
        }
        reply.type = MsgType::StatusResp;
        reply.body = encodeStatus(_server->status(request_id));
        break;
      }
      case MsgType::ResultReq: {
        std::uint64_t request_id = 0;
        if (!decodeRequestId(frame.body, request_id)) {
            reply.type = MsgType::ErrorResp;
            reply.body = "malformed result request";
            break;
        }
        reply.type = MsgType::ResultResp;
        reply.body = encodeResult(_server->status(request_id));
        break;
      }
      case MsgType::ReplayFetchReq: {
        std::uint64_t request_id = 0;
        if (!decodeRequestId(frame.body, request_id)) {
            reply.type = MsgType::ErrorResp;
            reply.body = "malformed replay-fetch request";
            break;
        }
        reply.type = MsgType::ReplayFetchResp;
        reply.body = _server->replayLog(request_id);
        break;
      }
      case MsgType::DrainReq: {
        const std::uint64_t completed = _server->drain();
        reply.type = MsgType::DrainResp;
        reply.body = encodeRequestId(completed);
        drain_requested = true;
        break;
      }
      default:
        reply.type = MsgType::ErrorResp;
        reply.body = "unexpected message type";
        break;
    }
    return reply;
}

void
Daemon::handleConnection(int fd)
{
    while (auto frame = readFrame(fd)) {
        Frame reply;
        bool drain_requested = false;
        try {
            reply = handleFrame(*frame, drain_requested);
        } catch (const std::exception &failure) {
            // Untrusted bytes must never take the daemon down: any
            // exception a request leaks becomes an error reply.
            reply.type = MsgType::ErrorResp;
            reply.body =
                std::string("internal error: ") + failure.what();
        } catch (...) {
            reply.type = MsgType::ErrorResp;
            reply.body = "internal error";
        }
        if (!writeFrame(fd, reply))
            break;
        if (drain_requested) {
            stop();
            break;
        }
    }
    ::close(fd);
}

} // namespace stats::serving
