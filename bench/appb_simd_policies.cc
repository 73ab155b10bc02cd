/**
 * @file appb_simd_policies.cc
 * Appendix B: handling SIMD/vector instructions. The paper sketches
 * three alternatives for wide loads over califormed data; this harness
 * quantifies their trade-offs on a vectorized sweep over an array of
 * structs whose padding bytes are blacklisted:
 *
 *  (1) precise gathers  — byte-exact, no false positives, extra lane
 *                         micro-ops per vector;
 *  (2) line exception   — fast wide loads, but every vector spanning a
 *                         security byte false-positives;
 *  (3) propagate mask   — fast wide loads, poison bits in the register,
 *                         trap only on consumption.
 */

#include "bench/common.hh"
#include "alloc/heap.hh"
#include "layout/policy.hh"

using namespace califorms;
using bench::Options;

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv, bench::Reads::Quick);
    bench::banner("Appendix B - SIMD/vector load policies",
                  "three alternatives for wide loads over security bytes",
                  opt);

    // A vector-friendly struct: 48B of floats plus padded flags, so a
    // 64B vector load covering one object always spans security bytes.
    auto def = std::make_shared<StructDef>(
        "simd_elem",
        std::vector<Field>{{"v", Type::array(Type::floatType(), 12)},
                           {"flag", Type::charType()}});
    LayoutTransformer t(InsertionPolicy::Opportunistic, PolicyParams{},
                        5);

    const std::size_t elems = 16384;
    const unsigned vec = 64;
    const std::size_t iters = opt.quick ? 2 : 8;

    TextTable table({"policy", "cycles", "exceptions at load",
                     "poisoned registers", "notes"});

    for (auto policy : {MemorySystem::SimdPolicy::PreciseGather,
                        MemorySystem::SimdPolicy::LineException,
                        MemorySystem::SimdPolicy::PropagateMask}) {
        Machine machine;
        HeapAllocator heap(machine);
        auto layout = std::make_shared<SecureLayout>(t.transform(*def));
        const Addr base = heap.allocate(layout, elems);
        auto &mem = machine.memorySystem();

        Cycles total_latency = 0;
        std::size_t faults = 0;
        std::size_t poisoned = 0;
        const Addr vbase = roundUp(base, vec);
        const std::size_t vectors =
            (elems * layout->size - (vbase - base)) / vec;
        for (std::size_t it = 0; it < iters; ++it) {
            for (std::size_t i = 0; i < vectors; ++i) {
                const auto r =
                    mem.wideLoad(vbase + i * vec, vec, policy);
                total_latency += r.latency;
                faults += r.faulted;
                poisoned += r.registerMask != 0;
            }
        }

        const char *name = policy ==
                                   MemorySystem::SimdPolicy::PreciseGather
                               ? "precise gather"
                           : policy ==
                                   MemorySystem::SimdPolicy::LineException
                               ? "line exception"
                               : "propagate mask";
        const char *note =
            policy == MemorySystem::SimdPolicy::PreciseGather
                ? "byte exact, +1 uop/lane"
            : policy == MemorySystem::SimdPolicy::LineException
                ? "every fault here is a false positive"
                : "trap deferred to first use";
        table.addRow({name, std::to_string(total_latency),
                      std::to_string(faults), std::to_string(poisoned),
                      note});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n(the struct's opportunistic security bytes sit inside "
                "nearly every 64B vector,\nso policy (2) floods the "
                "handler while (1) pays lane micro-ops and (3) defers\n"
                "the check to consumption — the trade-off Appendix B "
                "leaves as future work)\n");
    return 0;
}
