/**
 * @file
 * Always-on flight recorder: a bounded in-memory ring of recent
 * observability events -- closed spans, instant events, log lines, and
 * metric snapshots -- that survives until the moment a process dies and
 * can be dumped from an async-signal context.
 *
 * The journal answers "what were the last N things this process did?"
 * after a SIGKILL drill, a segfault, or an operator's SIGQUIT, where
 * the full trace buffer is either disabled (production) or lost with
 * the process.  Three properties drive the design:
 *
 *  1. Async-signal-safe dump.  Every entry is fully formatted as one
 *     JSON object at RECORD time into a fixed-size slot; dump() only
 *     walks the ring and write(2)s preformatted bytes (plus decimal
 *     counters rendered with a local integer formatter).  No malloc,
 *     no stdio, no locks in the signal path.
 *
 *  2. Lock-free recording.  A writer claims a slot with one fetch_add
 *     and publishes it with a seqlock (odd = being written); readers
 *     (dump, the daemon's /debug/flight) skip unstable slots instead
 *     of blocking.  Ring overflow OVERWRITES the oldest entry -- that
 *     is the point of a flight recorder -- and the overwritten count
 *     is reported as dropped, never an error.
 *
 *  3. Bounded cost.  Recording formats into a stack buffer and copies
 *     at most kSlotTextBytes; entries that do not fit are truncated
 *     (and counted), not rejected.  When the recorder is disabled the
 *     hooks are one relaxed load.
 */

#ifndef RASENGAN_OBS_FLIGHT_H
#define RASENGAN_OBS_FLIGHT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/clock.h"

namespace rasengan::obs::flight {

/** Formatted bytes one ring slot can hold (longer entries truncate). */
constexpr size_t kSlotTextBytes = 448;

/** Default ring capacity in entries (~224 KiB of slot text). */
constexpr size_t kDefaultEntries = 512;

namespace detail {

extern std::atomic<bool> flightOn;

} // namespace detail

/** One relaxed load; the gate every recording hook checks first. */
inline bool
enabled()
{
    return detail::flightOn.load(std::memory_order_relaxed);
}

/**
 * Allocate the ring (idempotent; the first capacity wins) and enable
 * recording.  @p entries is clamped to [16, 1<<16].  The ring is
 * leaked deliberately: signal handlers may fire during static
 * teardown.
 */
void configure(size_t entries = kDefaultEntries);

/** Stop recording; the ring contents stay dumpable. */
void disable();

/**
 * Apply a --flight spec:
 *   ""             -> no decision (the daemon turns it on at start)
 *   "0"|"off"      -> disabled
 *   "1"|"on"       -> enabled with default capacity
 *   decimal number -> enabled with that many ring entries
 *   anything with a '/' -> enabled, value is the dump path
 * Returns true when the recorder ended up enabled.
 */
bool configureFromSpec(const std::string &spec);

/** True once configure() or disable() ran: an explicit decision was
 *  made, so later default-on paths (the daemon) must not override it. */
bool explicitlyConfigured();

/**
 * Target for signal-triggered dumps.  Empty (the default) means
 * stderr.  The path is copied into static storage so the handler can
 * open(2) it without allocating.
 */
void setDumpPath(const std::string &path);

/** The configured dump path ("" = stderr). */
std::string dumpPath();

/**
 * Install the flight-dump signal handlers: SIGQUIT dumps and the
 * process continues (an operator's "what are you doing right now");
 * SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT dump, restore the default
 * handler, and re-raise so the crash still crashes.  Idempotent.
 */
void installSignalHandlers();

/// @name Recording hooks
/// @{

/** A span that just closed (called by obs::Span's destructor). */
void recordSpan(const char *category, const char *name,
                const std::string &detail, TimeNanos durationNanos);

/** An instant event (called by obs::instantEvent). */
void recordInstant(const char *category, const char *name,
                   const std::string &detail);

/** A log line ("warn"/"info"/"panic"/"fatal" + message). */
void recordLog(const char *level, const char *text, size_t len);

/** A free-form note (the daemon's periodic metric snapshots). */
void note(const char *kind, const std::string &text);

/// @}

/**
 * Async-signal-safe dump of the ring as one JSON object to @p fd:
 * {"flight":{...counters...},"events":[entries oldest->newest]}.
 * Returns the number of entries written.  Safe to call anytime, from
 * any context, even with the recorder disabled (dumps what is there).
 */
size_t dump(int fd);

/** Dump to the configured path (stderr when unset).  Signal-safe. */
size_t dumpToConfigured();

/** The same JSON as dump(), built as a string (daemon /debug/flight). */
std::string renderJson();

/** Entries overwritten by ring wrap since configure() (not an error). */
uint64_t droppedCount();

/** Entries whose formatted text exceeded the slot and was truncated. */
uint64_t truncatedCount();

/** Entries recorded since configure() (including overwritten ones). */
uint64_t recordedCount();

/** Test hook: clear the ring and counters (recorder stays configured). */
void resetForTest();

} // namespace rasengan::obs::flight

#endif // RASENGAN_OBS_FLIGHT_H
