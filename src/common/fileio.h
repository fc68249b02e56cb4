/**
 * @file
 * Checked file writes shared by the persistence formats: the daemon's
 * job journal and results mirror (RecordLog appends) and the solver's
 * segment checkpoint and journal compaction (atomic replacement).
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

/**
 * Append-only line log: each append() writes one record and its
 * newline with checked writes, then (when opened with @p sync)
 * fdatasyncs it, so an acknowledged record survives power loss, not
 * just a SIGKILL.  A failed append may leave part of a record behind;
 * the next append then starts on a fresh line, so a torn record never
 * swallows the one after it.  Not thread-safe: callers serialize.
 */
class RecordLog
{
  public:
    RecordLog() = default;
    ~RecordLog() { close(); }
    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /** Open @p path for appending, creating it if absent.  False with
     *  @p error (when non-null) naming the path and cause. */
    bool open(const std::string &path, bool sync, std::string *error);

    bool isOpen() const { return fd_ >= 0; }

    /** Append @p record plus '\n'; false when a write (or the sync)
     *  failed. */
    bool append(const std::string &record);

    /** Sync and close (idempotent). */
    void close();

  private:
    int fd_ = -1;
    bool sync_ = false;
    bool torn_ = false; ///< the last append failed, maybe mid-record
};

} // namespace rasengan

#endif // RASENGAN_COMMON_FILEIO_H
