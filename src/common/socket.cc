#include "common/socket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace rasengan {

namespace {

constexpr int kBacklog = 64;

bool
validPort(const std::string &port)
{
    return !port.empty() && port.size() <= 5 &&
           port.find_first_not_of("0123456789") == std::string::npos &&
           (port == "0" || port[0] != '0') && std::stoi(port) <= 65535;
}

/**
 * Resolve "HOST:PORT" (split at its last colon) and open a TCP socket
 * on the first address that takes it: bound and listening, or
 * connected.  -1 with @p why.
 */
int
openTcp(const std::string &target, bool listening, std::string *why)
{
    const size_t colon = target.rfind(':');
    const std::string host =
        colon == std::string::npos ? "" : target.substr(0, colon);
    const std::string port =
        colon == std::string::npos ? "" : target.substr(colon + 1);
    if (host.empty() || !validPort(port)) {
        *why = "expected HOST:PORT with PORT in 0-65535";
        return -1;
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV | (listening ? AI_PASSIVE : 0);
    addrinfo *res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
        *why = "cannot resolve \"" + host + "\": " + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr && fd < 0; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        int one = 1;
        const bool ok =
            fd >= 0 &&
            (listening
                 ? ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                                sizeof(one)) == 0 &&
                       ::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
                       ::listen(fd, kBacklog) == 0
                 : ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0);
        if (!ok) {
            *why = std::strerror(errno);
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
    }
    ::freeaddrinfo(res);
    return fd;
}

bool
listenUnix(const std::string &path, Listener *out, std::string *error)
{
    if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        *error = "unix socket path must be 1-" +
                 std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) +
                 " bytes";
        return false;
    }
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            *error = path + " exists and is not a socket";
            return false;
        }
        ::unlink(path.c_str()); // stale socket from a crashed daemon
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, kBacklog) != 0) {
        *error = std::strerror(errno);
        if (fd >= 0)
            ::close(fd);
        return false;
    }
    out->fd = fd;
    out->unixPath = path;
    return true;
}

} // namespace

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
listenOn(const std::string &spec, Listener *out, std::string *error)
{
    std::string why;
    bool ok = false;
    if (spec.rfind("unix:", 0) == 0) {
        ok = listenUnix(spec.substr(5), out, &why);
    } else if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        out->fd = openTcp(rest.find(':') == std::string::npos
                              ? "127.0.0.1:" + rest
                              : rest,
                          /*listening=*/true, &why);
        ok = out->fd >= 0;
        sockaddr_storage bound{};
        socklen_t len = sizeof(bound);
        if (ok &&
            ::getsockname(out->fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            out->port = ntohs(
                bound.ss_family == AF_INET6
                    ? reinterpret_cast<sockaddr_in6 &>(bound).sin6_port
                    : reinterpret_cast<sockaddr_in &>(bound).sin_port);
    } else {
        why = "expected unix:PATH or tcp:[HOST:]PORT";
    }
    if (!ok)
        *error = "cannot listen on \"" + spec + "\": " + why;
    return ok;
}

int
connectTcp(const std::string &target, std::string *error)
{
    std::string why;
    const int fd = openTcp(target, /*listening=*/false, &why);
    if (fd < 0)
        *error = "cannot connect to \"" + target + "\": " + why;
    return fd;
}

} // namespace rasengan
