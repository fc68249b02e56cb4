#include "common/fileio.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace rasengan {

bool
writeAll(int fd, const char *data, size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

bool
replaceFileAtomically(const std::string &path, const std::string &contents,
                      std::string *error)
{
    const std::string tmp = path + ".tmp";
    std::string failed;
    int saved_errno = 0;
    auto note = [&](const std::string &step) {
        if (failed.empty()) {
            failed = step;
            saved_errno = errno;
        }
    };

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        note("cannot open " + tmp + " for write");
    } else {
        if (!writeAll(fd, contents.data(), contents.size()))
            note("cannot write " + tmp);
        else if (::fsync(fd) != 0)
            note("cannot fsync " + tmp);
        if (::close(fd) != 0)
            note("cannot close " + tmp);
        if (failed.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
            note("cannot rename " + tmp + " over " + path);
        if (!failed.empty())
            ::unlink(tmp.c_str());
    }
    if (failed.empty())
        return true;
    if (error != nullptr)
        *error = failed + ": " + std::strerror(saved_errno);
    return false;
}

bool
RecordLog::open(const std::string &path, bool sync, std::string *error)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        if (error != nullptr)
            *error = "cannot open " + path + " for append: " +
                     std::strerror(errno);
        return false;
    }
    sync_ = sync;
    torn_ = false;
    return true;
}

bool
RecordLog::append(const std::string &record)
{
    if (fd_ < 0)
        return false;
    std::string line = torn_ ? "\n" + record : record;
    line += '\n';
    const bool ok = writeAll(fd_, line.data(), line.size()) &&
                    (!sync_ || ::fdatasync(fd_) == 0);
    torn_ = !ok;
    return ok;
}

void
RecordLog::close()
{
    if (fd_ < 0)
        return;
    if (sync_)
        ::fdatasync(fd_);
    ::close(fd_);
    fd_ = -1;
}

} // namespace rasengan
