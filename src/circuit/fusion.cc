#include "circuit/fusion.h"

#include <atomic>
#include <optional>

#include "common/logging.h"
#include "obs/prof.h"

namespace rasengan::circuit {

namespace {

/** Fused unitaries this close to identity are dropped entirely. */
constexpr double kIdentityEps = 1e-14;

bool
isDiagonalKind(GateKind kind)
{
    return kind == GateKind::P || kind == GateKind::RZ ||
           kind == GateKind::CP || kind == GateKind::MCP;
}

bool
is1qKind(GateKind kind)
{
    return kind == GateKind::X || kind == GateKind::H ||
           kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ || kind == GateKind::P;
}

uint64_t
bitOf(int q)
{
    return uint64_t{1} << q;
}

/** Streaming fusion state: pending 1q runs + a pending diagonal block.
 *  Invariant: the qubits of the diagonal block and the qubits with an
 *  active 1q run are disjoint, so flush order between them never
 *  matters (disjoint-wire operations commute). */
class Fuser
{
  public:
    explicit Fuser(const Circuit &circ)
        : run_(circ.numQubits()), runGates_(circ.numQubits(), 0)
    {
        prog_.numQubits = circ.numQubits();
    }

    FusedProgram
    operator()(const Circuit &circ)
    {
        for (const Gate &g : circ.gates())
            consume(g);
        flushDiag();
        for (int q = 0; q < prog_.numQubits; ++q)
            flushRun(q);
        return std::move(prog_);
    }

  private:
    void
    consume(const Gate &g)
    {
        if (g.kind == GateKind::Barrier)
            return;
        ++prog_.sourceOps;
        if (g.kind == GateKind::Measure || g.kind == GateKind::Reset) {
            int q = g.targets[0];
            if (diagMask_ & bitOf(q))
                flushDiag();
            flushRun(q);
            FusedOp op;
            op.kind = g.kind == GateKind::Measure ? FusedOp::Kind::Measure
                                                  : FusedOp::Kind::Reset;
            op.target = q;
            prog_.ops.push_back(std::move(op));
            return;
        }
        if (g.kind == GateKind::Swap) {
            uint64_t qs = bitOf(g.targets[0]) | bitOf(g.targets[1]);
            if (diagMask_ & qs)
                flushDiag();
            flushRun(g.targets[0]);
            flushRun(g.targets[1]);
            FusedOp op;
            op.kind = FusedOp::Kind::Swap;
            op.target = g.targets[0];
            op.other = g.targets[1];
            prog_.ops.push_back(std::move(op));
            return;
        }
        if (g.controls.empty() && is1qKind(g.kind)) {
            int q = g.targets[0];
            // A diagonal 1q gate folds into an open run on its wire;
            // otherwise it joins the diagonal block.
            if (isDiagonalKind(g.kind) && !run_[q]) {
                appendDiagTerm(g);
                return;
            }
            if (diagMask_ & bitOf(q))
                flushDiag();
            Mat2 u = gateMatrix(g.kind, g.param);
            run_[q] = run_[q] ? matmul(u, *run_[q]) : u;
            ++runGates_[q];
            return;
        }
        if (g.kind == GateKind::CP || g.kind == GateKind::MCP) {
            for (int q : g.qubits())
                flushRun(q);
            appendDiagTerm(g);
            return;
        }
        // Controlled non-diagonal: CX / MCX.
        uint64_t qs = 0;
        for (int q : g.qubits())
            qs |= bitOf(q);
        if (diagMask_ & qs)
            flushDiag();
        for (int q : g.qubits())
            flushRun(q);
        FusedOp op;
        op.kind = FusedOp::Kind::Controlled1q;
        op.target = g.targets[0];
        op.controls = g.controls;
        op.unitary = gateMatrix(g.kind, g.param);
        prog_.ops.push_back(std::move(op));
    }

    void
    appendDiagTerm(const Gate &g)
    {
        DiagTerm term;
        term.targetBit = bitOf(g.targets[0]);
        for (int c : g.controls)
            term.controlMask |= bitOf(c);
        if (g.kind == GateKind::RZ) {
            term.phase0 = -g.param / 2.0;
            term.phase1 = g.param / 2.0;
        } else {
            term.phase1 = g.param; // P / CP / MCP
        }
        if (pendingDiag_.empty())
            diagSourceGates_ = 0;
        pendingDiag_.push_back(term);
        ++diagSourceGates_;
        diagMask_ |= term.controlMask | term.targetBit;
    }

    void
    flushDiag()
    {
        if (pendingDiag_.empty())
            return;
        FusedOp op;
        op.kind = FusedOp::Kind::Diagonal;
        op.diag = std::move(pendingDiag_);
        op.sourceGates = diagSourceGates_;
        prog_.ops.push_back(std::move(op));
        pendingDiag_.clear();
        diagMask_ = 0;
    }

    void
    flushRun(int q)
    {
        if (!run_[q])
            return;
        if (distanceFromIdentity(*run_[q]) > kIdentityEps) {
            FusedOp op;
            op.kind = FusedOp::Kind::Unitary1q;
            op.target = q;
            op.unitary = *run_[q];
            op.sourceGates = runGates_[q];
            prog_.ops.push_back(std::move(op));
        }
        run_[q].reset();
        runGates_[q] = 0;
    }

    FusedProgram prog_;
    std::vector<std::optional<Mat2>> run_; ///< open 1q run per wire
    std::vector<int> runGates_;            ///< gates folded per run
    std::vector<DiagTerm> pendingDiag_;    ///< open diagonal block
    uint64_t diagMask_ = 0;                ///< wires the block touches
    int diagSourceGates_ = 0;
};

std::atomic<bool> g_fusion_enabled{true};

} // namespace

FusedProgram
fuseCircuit(const Circuit &circ)
{
    fatal_if(circ.numQubits() > 64,
             "gate fusion supports up to 64 qubits, got {}",
             circ.numQubits());
    RASENGAN_PROF("transpile", "fuse");
    return Fuser(circ)(circ);
}

bool
fusionEnabled()
{
    return g_fusion_enabled.load(std::memory_order_relaxed);
}

void
setFusionEnabled(bool enabled)
{
    g_fusion_enabled.store(enabled, std::memory_order_relaxed);
}

} // namespace rasengan::circuit
