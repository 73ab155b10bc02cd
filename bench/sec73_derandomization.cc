/**
 * @file sec73_derandomization.cc
 * Section 7.3: derandomization attack analysis. Two experiments:
 *
 * 1. Memory scan survival — the closed form (1 - P/N)^O for scanning O
 *    objects with security byte density P/N without tripping, checked
 *    against a Monte-Carlo attack on real califormed heap objects.
 *    The paper notes that with 10% security bytes the success
 *    probability reaches 1e-20 by O = 250.
 *
 * 2. Guessing a single span — with 1..7-byte random spans the attacker
 *    must guess each span's size: success 1/7^n, compounding in the
 *    number of spans n.
 */

#include <cmath>
#include <cstdio>

#include "alloc/heap.hh"
#include "bench/common.hh"
#include "security/attacks.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace califorms;
using bench::Options;

namespace
{

/** One attack: scan `objects` random objects byte by byte; success if
 *  no security byte is touched. */
bool
scanAttack(Machine &machine, const std::vector<Addr> &objs,
           std::size_t object_size, std::size_t objects, Rng &rng)
{
    for (std::size_t i = 0; i < objects; ++i) {
        const Addr base = objs[rng.nextBelow(objs.size())];
        const std::size_t offset = rng.nextBelow(object_size);
        const Addr b = base + offset;
        if (machine.securityMask(b) & (1ull << lineOffset(b)))
            return false; // tripped the blacklist
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv, bench::Reads::Quick);
    bench::banner("Section 7.3 - derandomization attack analysis",
                  "(1-P/N)^O scan survival; 1/7^n span guessing", opt);

    // Build a heap of full-policy objects with ~10% security bytes.
    Machine machine;
    HeapAllocator heap(machine);
    auto def = std::make_shared<StructDef>(
        "victim",
        std::vector<Field>{{"a", Type::longType()},
                           {"buf", Type::array(Type::charType(), 48)},
                           {"b", Type::longType()},
                           {"c", Type::array(Type::longType(), 4)}});
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{1, 3, 1},
                        77);
    auto layout = std::make_shared<SecureLayout>(t.transform(*def));
    const double density =
        static_cast<double>(layout->securityByteCount()) /
        static_cast<double>(layout->size);

    std::vector<Addr> objs;
    for (int i = 0; i < 512; ++i)
        objs.push_back(heap.allocate(layout));

    std::printf("victim object: %zu bytes, %zu security bytes "
                "(density P/N = %.3f)\n\n",
                layout->size, layout->securityByteCount(), density);

    TextTable table({"objects scanned O", "closed form (1-P/N)^O",
                     "monte carlo survival", "trials"});
    Rng rng(123);
    const std::size_t trials = opt.quick ? 2000 : 20000;
    for (std::size_t objects : {1u, 2u, 5u, 10u, 20u, 50u, 100u}) {
        const double closed =
            std::pow(1.0 - density, static_cast<double>(objects));
        std::size_t survived = 0;
        for (std::size_t trial = 0; trial < trials; ++trial)
            survived += scanAttack(machine, objs, layout->size, objects,
                                   rng);
        table.addRow({std::to_string(objects),
                      TextTable::num(closed, 6),
                      TextTable::num(static_cast<double>(survived) /
                                         static_cast<double>(trials),
                                     6),
                      std::to_string(trials)});
    }
    std::printf("%s\n", table.render().c_str());

    // Extrapolate the paper's 10^-20 claim.
    const double p10 = 0.10;
    std::printf("closed form with P/N = 0.10 at O = 250: (1-0.1)^250 "
                "= %.2e\n(the paper quotes ~1e-20; either way the scan "
                "survival is vanishingly small)\n\n",
                std::pow(1.0 - p10, 250.0));

    TextTable guess({"spans to guess n", "success 1/7^n"});
    for (int n = 1; n <= 8; ++n)
        guess.addRow({std::to_string(n),
                      TextTable::num(std::pow(1.0 / 7.0, n), 10)});
    std::printf("%s", guess.render().c_str());
    std::printf("\n(1..7-byte random spans give 7 equally likely sizes "
                "per span; each additional\nspan multiplies the "
                "attacker's work by 7 — Section 7.3)\n");

    // BROP-style respawn attack (Section 7.3 mitigation discussion):
    // restart-after-crash with the *same* layout lets the attacker
    // accumulate crash knowledge; respawning with a re-randomized
    // padding layout resets it.
    std::printf("\n-- BROP-style respawn attack --\n");
    TextTable brop({"respawn layout", "succeeded", "crashes", "probes"});
    for (bool rerandomize : {false, true}) {
        Machine m;
        AttackSimulator attacker(m, 2024);
        const auto r = attacker.bropAttack(
            *def, InsertionPolicy::Full, PolicyParams{}, /*target=*/2,
            /*max_crashes=*/opt.quick ? 200 : 2000, rerandomize);
        brop.addRow({rerandomize ? "re-randomized" : "identical",
                     r.succeeded ? "yes" : "no",
                     std::to_string(r.crashes),
                     std::to_string(r.probes)});
    }
    std::printf("%s", brop.render().c_str());
    std::printf("(with identical respawns the spans fall in at most "
                "#span-bytes crashes; the\npaper's mitigation — spawn "
                "with a different padding layout — holds "
                "indefinitely)\n");
    return 0;
}
