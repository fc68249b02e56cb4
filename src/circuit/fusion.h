/**
 * @file
 * Gate-fusion pass: compiles a Circuit into a shorter list of fused
 * simulator operations.
 *
 * Two algebraic rewrites drive the win on Rasengan's segment circuits:
 *
 *  1. **1q-run fusion.** A run of adjacent single-qubit gates on the
 *     same wire (adjacent = no intervening gate touching that wire)
 *     multiplies into one 2x2 unitary, so k gates cost one statevector
 *     sweep instead of k.  Segment circuits open with X columns and the
 *     transition operators conjugate with H/RX layers, so such runs are
 *     common after transpilation.
 *  2. **Diagonal coalescing.** Consecutive diagonal gates (P, RZ, CP,
 *     MCP -- the entire phase chain a lowered MCP emits) combine into a
 *     single diagonal application: one sweep accumulating the phase of
 *     every term per basis state, instead of one sweep per gate.
 *
 * The pass is exact (no approximation beyond floating-point rounding of
 * the matrix products) and preserves gate order: operations are only
 * merged across neighbours they commute with (disjoint wires, or
 * diagonal-with-diagonal).  Mid-circuit Measure/Reset act as fences and
 * are forwarded verbatim; barriers are dropped (they are simulation
 * no-ops).
 *
 * Consumers: Statevector::applyFused (qsim), which the dense simulator
 * uses transparently for measurement-free circuits when fusion is
 * enabled (default on; setFusionEnabled(false) disables it, e.g. for
 * A/B benchmarking).
 */

#ifndef RASENGAN_CIRCUIT_FUSION_H
#define RASENGAN_CIRCUIT_FUSION_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/gatematrix.h"

namespace rasengan::circuit {

/**
 * One term of a fused diagonal: basis index i picks up phase angle
 * (i & targetBit ? phase1 : phase0) when (i & controlMask) == controlMask.
 */
struct DiagTerm
{
    uint64_t controlMask = 0; ///< all these bits must be 1 (0 = always)
    uint64_t targetBit = 0;   ///< selects phase0 vs phase1
    double phase0 = 0.0;      ///< angle when the target bit is 0
    double phase1 = 0.0;      ///< angle when the target bit is 1
};

struct FusedOp
{
    enum class Kind {
        Unitary1q,    ///< fused 2x2 unitary on `target`
        Controlled1q, ///< `unitary` on `target` under `controls`
        Swap,         ///< swap `target` and `other`
        Diagonal,     ///< coalesced diagonal phase block (`diag`)
        Measure,      ///< mid-circuit measurement fence
        Reset,        ///< mid-circuit reset fence
    };

    Kind kind;
    int target = -1;
    int other = -1;
    std::vector<int> controls;
    Mat2 unitary{1, 0, 0, 1};
    std::vector<DiagTerm> diag;
    /** Source gates merged into this op (for fusion-ratio reporting). */
    int sourceGates = 1;
};

struct FusedProgram
{
    int numQubits = 0;
    std::vector<FusedOp> ops;
    /** Non-barrier gates in the source circuit. */
    size_t sourceOps = 0;

    size_t fusedOps() const { return ops.size(); }
};

/**
 * Fuse @p circ.  Requires at most 64 qubits (diagonal terms use dense
 * 64-bit masks; the dense simulator caps at 30 anyway).
 */
FusedProgram fuseCircuit(const Circuit &circ);

/** Global fusion toggle (default on; the test/bench A/B seam). */
bool fusionEnabled();
void setFusionEnabled(bool enabled);

} // namespace rasengan::circuit

#endif // RASENGAN_CIRCUIT_FUSION_H
