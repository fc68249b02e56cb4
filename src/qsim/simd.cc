/**
 * @file
 * SIMD kernel dispatch: ISA detection and the active-table atomic the
 * engines read on every hot call.
 */

#include "qsim/simd.h"

#include <atomic>
#include <mutex>

#include "obs/metrics.h"

namespace rasengan::qsim {
namespace {

const SimdKernels *
tableFor(SimdIsa isa)
{
    return isa == SimdIsa::Avx2 ? detail::simdAvx2Table()
                                : detail::simdScalarTable();
}

bool
usable(SimdIsa isa)
{
    if (tableFor(isa) == nullptr)
        return false;
#if defined(__x86_64__) || defined(__i386__)
    if (isa == SimdIsa::Avx2)
        return __builtin_cpu_supports("avx2") != 0;
#endif
    return true;
}

/** Mark @p isa active (1) and every other ISA inactive (0). */
void
publishIsaGauges(SimdIsa active)
{
    for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2}) {
        obs::Registry::global()
            .gauge("simd_isa_info",
                   "Active SIMD kernel ISA (1 = active)",
                   {{"isa", simdIsaName(isa)}})
            .set(isa == active ? 1.0 : 0.0);
    }
}

std::atomic<const SimdKernels *> g_active{nullptr};

const SimdKernels *
activeTable()
{
    const SimdKernels *t = g_active.load(std::memory_order_acquire);
    if (t != nullptr)
        return t;
    static std::once_flag once;
    std::call_once(once, [] { setSimdIsa(simdBestIsa()); });
    return g_active.load(std::memory_order_acquire);
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    return isa == SimdIsa::Avx2 ? "avx2" : "scalar";
}

const SimdKernels &
simdKernels()
{
    return *activeTable();
}

SimdIsa
simdActiveIsa()
{
    return activeTable()->isa;
}

SimdIsa
simdBestIsa()
{
    return usable(SimdIsa::Avx2) ? SimdIsa::Avx2 : SimdIsa::Scalar;
}

std::vector<SimdIsa>
simdAvailableIsas()
{
    std::vector<SimdIsa> out{SimdIsa::Scalar};
    if (usable(SimdIsa::Avx2))
        out.push_back(SimdIsa::Avx2);
    return out;
}

bool
setSimdIsa(SimdIsa isa)
{
    if (!usable(isa))
        return false;
    g_active.store(tableFor(isa), std::memory_order_release);
    publishIsaGauges(isa);
    return true;
}

} // namespace rasengan::qsim
