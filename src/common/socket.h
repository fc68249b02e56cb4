/**
 * @file
 * Socket endpoints shared by the serving fronts: the daemon's --listen
 * spec, the cluster coordinator's worker listener and a remote worker's
 * --connect target all parse, resolve and bind here.
 */

#ifndef RASENGAN_COMMON_SOCKET_H
#define RASENGAN_COMMON_SOCKET_H

#include <string>

namespace rasengan {

/** Set O_NONBLOCK on @p fd; false when fcntl failed. */
bool setNonBlocking(int fd);

/** A bound, listening socket (see listenOn). */
struct Listener
{
    int fd = -1;
    int port = 0;         ///< bound TCP port (0 for unix sockets)
    std::string unixPath; ///< socket file to unlink at shutdown, or ""
};

/**
 * Bind and listen on @p spec:
 *
 *   unix:PATH      a unix stream socket.  An existing PATH is removed
 *                  first only when lstat says it is a socket (the
 *                  stale socket of a crashed daemon); any other file
 *                  is an error and stays untouched.
 *   tcp:PORT       127.0.0.1
 *   tcp:HOST:PORT  HOST as resolved by getaddrinfo; failure is an error
 *
 * PORT is decimal 0-65535 with no sign or leading zero; 0 (written
 * "0") binds an ephemeral port, reported in Listener::port.  Returns
 * false with @p error naming the spec.
 */
bool listenOn(const std::string &spec, Listener *out, std::string *error);

/** Connect a TCP stream to "HOST:PORT" (the same PORT grammar);
 *  -1 with @p error naming the target on failure. */
int connectTcp(const std::string &target, std::string *error);

} // namespace rasengan

#endif // RASENGAN_COMMON_SOCKET_H
