/**
 * @file
 * Service client implementation.
 */

#include "service/client.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/report.hh"

namespace ap
{
namespace service
{

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ServiceClient::connectUnix(const std::string &path, std::string *err)
{
    close();
    ::signal(SIGPIPE, SIG_IGN);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (err)
            *err = "socket: " + std::string(std::strerror(errno));
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long";
        close();
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (err)
            *err = "connect " + path + ": " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
ServiceClient::connectTcp(int port, std::string *err)
{
    close();
    ::signal(SIGPIPE, SIG_IGN);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (err)
            *err = "socket: " + std::string(std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (err)
            *err = "connect port " + std::to_string(port) + ": " +
                   std::strerror(errno);
        close();
        return false;
    }
    setNoDelay(fd_);
    return true;
}

BatchOutcome
ServiceClient::runBatch(const std::vector<ExperimentSpec> &specs,
                        const FrameFn &on_frame)
{
    BatchOutcome out;
    if (fd_ < 0) {
        out.error = "not connected";
        return out;
    }
    if (!writeFrame(fd_, FrameType::BatchRequest, encodeBatch(specs))) {
        out.error = "send failed";
        return out;
    }
    for (;;) {
        Frame frame;
        ReadStatus rs = readFrame(fd_, frame);
        if (rs != ReadStatus::Ok) {
            out.error = rs == ReadStatus::Eof ? "server closed"
                                              : "broken stream";
            return out;
        }
        std::string json(frame.payload.begin(), frame.payload.end());
        if (on_frame)
            on_frame(frame.type, json);
        switch (frame.type) {
          case FrameType::RunFrame:
            ++out.cells;
            break;
          case FrameType::Error:
            // Cell-scoped errors carry a "cell" key and are followed
            // by BatchEnd; a batch rejection has none and is the final
            // answer.
            if (json.find("\"cell\":") == std::string::npos) {
                out.error = json;
                return out;
            }
            ++out.errors;
            break;
          case FrameType::BatchEnd: {
            out.ok = true;
            std::size_t pos = json.find("\"batch\": ");
            if (pos != std::string::npos)
                out.batch = std::strtoull(json.c_str() + pos + 9,
                                          nullptr, 10);
            return out;
          }
          default:
            break;
        }
    }
}

bool
ServiceClient::roundTrip(FrameType type,
                         const std::vector<std::uint8_t> &payload,
                         Frame &response)
{
    if (fd_ < 0 || !writeFrame(fd_, type, payload))
        return false;
    return readFrame(fd_, response) == ReadStatus::Ok;
}

bool
ServiceClient::sendShutdown()
{
    return fd_ >= 0 &&
           writeFrame(fd_, FrameType::Shutdown, nullptr, 0);
}

namespace
{

std::int64_t
intField(const std::string &json, const std::string &key)
{
    std::string needle = "\"" + key + "\": ";
    std::size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return -1;
    return static_cast<std::int64_t>(
        std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10));
}

} // namespace

std::string
runObjectOfFrame(const std::string &frame_json)
{
    // The run object is the last member of the envelope: everything
    // from after '"run": ' to the envelope's closing brace.
    std::size_t pos = frame_json.find("\"run\": ");
    if (pos == std::string::npos || frame_json.empty() ||
        frame_json.back() != '}')
        return {};
    return frame_json.substr(pos + 7,
                             frame_json.size() - (pos + 7) - 1);
}

std::int64_t
cellOfFrame(const std::string &frame_json)
{
    return intField(frame_json, "cell");
}

std::int64_t
workerOfFrame(const std::string &frame_json)
{
    return intField(frame_json, "worker");
}

std::string
assembleRunsJson(const std::vector<std::string> &run_objects,
                 unsigned jobs)
{
    std::ostringstream os;
    os << "{\"schema\": \"ap-runs-v1\", \"host\": ";
    writeHostMetaJson(os, currentHostMeta(jobs));
    os << ", \"runs\": [";
    for (std::size_t i = 0; i < run_objects.size(); ++i)
        os << (i ? ", " : "") << run_objects[i];
    os << "]}\n";
    return os.str();
}

} // namespace service
} // namespace ap
