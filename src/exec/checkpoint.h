/**
 * @file
 * Checkpoint/resume for segmented execution.
 *
 * After each executed segment the solver can snapshot everything the
 * remaining pipeline depends on: the trained evolution times, the
 * forwarded distribution (exact shot counts for the sampled backends,
 * probabilities for the exact backend), the next segment index, and the
 * caller's RNG engine state.  Restoring the snapshot and re-running the
 * remaining segments is bit-identical to never having been killed --
 * shot counts round-trip as integers, probabilities at max_digits10,
 * and the mt19937_64 stream through its standard text serialization.
 *
 * The format is line-oriented text (one `entry` line per basis state),
 * versioned, and parsed with recoverable errors: a truncated or
 * corrupted checkpoint yields `ErrorCode::CheckpointCorrupt`, never an
 * abort.
 */

#ifndef RASENGAN_EXEC_CHECKPOINT_H
#define RASENGAN_EXEC_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "exec/expected.h"

namespace rasengan::exec {

struct SegmentCheckpoint
{
    std::string problemId;
    bool shotBased = true; ///< shots vs exact-probability forwarding
    int nextSegment = 0;   ///< first segment still to execute
    int numBits = 0;       ///< register width of the entries
    std::vector<double> times; ///< trained evolution times
    double prePurifyFeasibleFraction = 1.0;
    std::string rngState; ///< mt19937_64 text state; empty for exact

    /** Forwarded distribution (exactly one populated, by shotBased). */
    std::vector<std::pair<BitVec, uint64_t>> shotEntries;
    std::vector<std::pair<BitVec, double>> probEntries;
};

/** Serialize to the versioned text format. */
std::string writeCheckpoint(const SegmentCheckpoint &cp);

/** Parse the text format; recoverable on malformed input. */
Expected<SegmentCheckpoint> parseCheckpoint(const std::string &text);

/** Write @p cp to @p path atomically (common/fileio.h). */
Expected<bool> saveCheckpoint(const SegmentCheckpoint &cp,
                              const std::string &path);

/** Load and parse @p path. */
Expected<SegmentCheckpoint> loadCheckpoint(const std::string &path);

} // namespace rasengan::exec

#endif // RASENGAN_EXEC_CHECKPOINT_H
