/**
 * @file test_workload.cc
 * Workload suite tests: every kernel runs clean under every policy,
 * determinism, the suite composition matches the paper, the
 * first-order performance relations the figures rely on hold, and the
 * kernel context never serves a freed def's cached layout.
 */

#include <gtest/gtest.h>

#include "workload/context.hh"
#include "workload/runner.hh"

namespace califorms
{
namespace
{

RunConfig
testConfig()
{
    RunConfig config;
    config.scale = 0.02; // keep unit tests fast
    return config;
}

TEST(Suite, NineteenBenchmarksInPaperOrder)
{
    const auto &suite = spec2006Suite();
    ASSERT_EQ(suite.size(), 19u);
    EXPECT_EQ(suite.front().name, "astar");
    EXPECT_EQ(suite.back().name, "xalancbmk");
    std::size_t software = 0;
    for (const auto &b : suite)
        software += b.inSoftwareEval;
    // Section 8.2 omits dealII, omnetpp and gcc: 16 remain.
    EXPECT_EQ(software, 16u);
    EXPECT_FALSE(findBenchmark("dealII").inSoftwareEval);
    EXPECT_FALSE(findBenchmark("omnetpp").inSoftwareEval);
    EXPECT_FALSE(findBenchmark("gcc").inSoftwareEval);
}

TEST(Suite, FindBenchmarkThrowsOnUnknown)
{
    EXPECT_THROW(findBenchmark("doom"), std::invalid_argument);
}

TEST(Suite, KernelStructsAvailableForEveryBenchmark)
{
    for (const auto &b : spec2006Suite()) {
        const auto defs = kernelStructs(b.name);
        EXPECT_FALSE(defs.empty()) << b.name;
        for (const auto &def : defs)
            EXPECT_GT(def->size(), 0u);
    }
}

class EveryBenchmark : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryBenchmark, RunsCleanBaseline)
{
    const auto &bench = findBenchmark(GetParam());
    const RunResult r = runBenchmark(bench, testConfig());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(r.exceptionsDelivered, 0u)
        << "baseline must not trip the blacklist";
}

TEST_P(EveryBenchmark, RunsCleanUnderFullPolicy)
{
    const auto &bench = findBenchmark(GetParam());
    RunConfig config = testConfig();
    config.policy = InsertionPolicy::Full;
    config.policyParams.maxSpan = 7;
    const RunResult r = runBenchmark(bench, config);
    EXPECT_EQ(r.exceptionsDelivered, 0u)
        << "well-behaved kernels never touch security bytes";
    EXPECT_GT(r.mem.cformOps, 0u);
}

TEST_P(EveryBenchmark, RunsCleanUnderIntelligentPolicy)
{
    const auto &bench = findBenchmark(GetParam());
    RunConfig config = testConfig();
    config.policy = InsertionPolicy::Intelligent;
    config.policyParams.maxSpan = 7;
    const RunResult r = runBenchmark(bench, config);
    EXPECT_EQ(r.exceptionsDelivered, 0u);
}

TEST_P(EveryBenchmark, Deterministic)
{
    const auto &bench = findBenchmark(GetParam());
    const RunResult a = runBenchmark(bench, testConfig());
    const RunResult b = runBenchmark(bench, testConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mem.l1.misses, b.mem.l1.misses);
}

INSTANTIATE_TEST_SUITE_P(
    Spec2006, EveryBenchmark,
    ::testing::Values("astar", "bzip2", "dealII", "gcc", "gobmk",
                      "h264ref", "hmmer", "lbm", "libquantum", "mcf",
                      "milc", "namd", "omnetpp", "perlbench", "povray",
                      "sjeng", "soplex", "sphinx3", "xalancbmk"));

TEST(Relations, ExtraLatencySlowsDown)
{
    // The Figure 10 relation: +1 cycle L2/L3 never speeds anything up.
    for (const char *name : {"xalancbmk", "hmmer", "mcf"}) {
        const auto &bench = findBenchmark(name);
        RunConfig base = testConfig();
        RunConfig extra = testConfig();
        extra.machine.mem.extraL2L3Latency = 1;
        const auto r0 = runBenchmark(bench, base);
        const auto r1 = runBenchmark(bench, extra);
        EXPECT_GE(r1.cycles, r0.cycles) << name;
        // And the effect is small (paper: at most ~1.4%).
        EXPECT_LT(static_cast<double>(r1.cycles) /
                          static_cast<double>(r0.cycles) -
                      1.0,
                  0.05)
            << name;
    }
}

TEST(Relations, PaddingCostsPerformance)
{
    // Fixed padding inflates footprints: cycles must not decrease, and
    // cache-sensitive benchmarks must slow down measurably (Figure 4).
    const auto &bench = findBenchmark("soplex");
    RunConfig base = testConfig();
    RunConfig padded = testConfig();
    padded.policy = InsertionPolicy::FullFixed;
    padded.policyParams.fixedSpan = 7;
    padded.withCform(false); // isolate the cache effect
    const auto r0 = runBenchmark(bench, base);
    const auto r1 = runBenchmark(bench, padded);
    EXPECT_GT(r1.cycles, r0.cycles);
}

TEST(Relations, CformTrafficScalesWithAllocRate)
{
    // perlbench (malloc-intensive) must issue far more CFORMs than the
    // stream-once lbm.
    RunConfig config = testConfig();
    config.policy = InsertionPolicy::Full;
    const auto perl = runBenchmark(findBenchmark("perlbench"), config);
    const auto lbm = runBenchmark(findBenchmark("lbm"), config);
    EXPECT_GT(perl.heap.allocs, 10 * lbm.heap.allocs);
}

TEST(Relations, OpportunisticKeepsFootprint)
{
    // The opportunistic policy never grows any struct, so heap bytes
    // match the baseline exactly.
    RunConfig base = testConfig();
    RunConfig opp = testConfig();
    opp.policy = InsertionPolicy::Opportunistic;
    const auto &bench = findBenchmark("astar");
    const auto r0 = runBenchmark(bench, base);
    const auto r1 = runBenchmark(bench, opp);
    EXPECT_EQ(r0.heap.bytesAllocated, r1.heap.bytesAllocated);
}

TEST(Relations, LayoutSeedChangesLayoutNotWork)
{
    RunConfig a = testConfig();
    RunConfig b = testConfig();
    a.policy = b.policy = InsertionPolicy::Full;
    a.layoutSeed = 1;
    b.layoutSeed = 2;
    const auto &bench = findBenchmark("mcf");
    const auto ra = runBenchmark(bench, a);
    const auto rb = runBenchmark(bench, b);
    // Same logical work...
    EXPECT_EQ(ra.heap.allocs, rb.heap.allocs);
    // ...but different randomized layouts -> different footprints.
    EXPECT_NE(ra.heap.bytesAllocated, rb.heap.bytesAllocated);
}

TEST(Runner, WithCformToggle)
{
    RunConfig config = testConfig();
    config.policy = InsertionPolicy::Full;
    config.withCform(false);
    const auto r = runBenchmark(findBenchmark("perlbench"), config);
    EXPECT_EQ(r.mem.cformOps, 0u);
    EXPECT_EQ(r.heap.cformsIssued, 0u);
}

TEST(ContextLayoutCache, FreedDefNeverServesItsLayoutToANewDef)
{
    // sjeng frees a def and gobmk's next def may be allocated at the
    // same address; the cache must not hand that def the stale layout.
    Machine machine;
    HeapAllocator heap(machine);
    StackAllocator stack(machine);
    const PolicyParams params;
    KernelContext ctx(machine, heap, stack,
                      LayoutTransformer(InsertionPolicy::Full, params, 5),
                      42, 1.0);
    // The same transformer fed the same defs in the same order.
    LayoutTransformer reference(InsertionPolicy::Full, params, 5);

    auto first = std::make_shared<StructDef>(
        "first", std::vector<Field>{{"a", Type::intType()}});
    ctx.layoutOf(first);
    reference.transform(*first);
    first.reset();

    const auto second = std::make_shared<StructDef>(
        "second", std::vector<Field>{{"tag", Type::charType()},
                                     {"weight", Type::doubleType()},
                                     {"next", Type::pointer("second")},
                                     {"flag", Type::charType()}});
    const auto got = ctx.layoutOf(second);
    const SecureLayout want = reference.transform(*second);
    EXPECT_EQ(got->size, want.size);
    ASSERT_EQ(got->fields.size(), want.fields.size());
    for (std::size_t i = 0; i < want.fields.size(); ++i)
        EXPECT_EQ(got->fields[i].offset, want.fields[i].offset) << i;
    EXPECT_EQ(got->byteMask(), want.byteMask());
}

} // namespace
} // namespace califorms
