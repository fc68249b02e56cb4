/**
 * @file
 * Checked file writes shared by the persistence formats (the daemon's
 * job journal and the solver's segment checkpoint).
 */

#ifndef RASENGAN_COMMON_FILEIO_H
#define RASENGAN_COMMON_FILEIO_H

#include <cstddef>
#include <string>

namespace rasengan {

/**
 * Write all @p size bytes of @p data to @p fd, retrying short writes
 * and EINTR.  Returns false (errno set) on the first failed write.
 */
bool writeAll(int fd, const char *data, size_t size);

/**
 * Replace @p path with @p contents atomically: write a sibling temp
 * file (`path + ".tmp"`), check every write and the close, fsync it,
 * then rename it over @p path.  On any failure the original file is
 * left untouched, the temp file is removed, and the return is false
 * with @p error (when non-null) naming the failed step.
 */
bool replaceFileAtomically(const std::string &path,
                           const std::string &contents,
                           std::string *error);

} // namespace rasengan

#endif // RASENGAN_COMMON_FILEIO_H
