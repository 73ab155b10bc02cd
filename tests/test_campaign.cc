/**
 * @file test_campaign.cc
 * Campaign engine tests: grid expansion (empty grids, single cells,
 * span filtering, seed handling), and the engine's core guarantee —
 * results are bit-identical regardless of the worker count.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/campaign.hh"

namespace califorms
{
namespace
{

using exp::CampaignSpec;
using exp::RunUnit;
using exp::Variant;

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.name = "test";
    spec.suite = {&findBenchmark("mcf"), &findBenchmark("perlbench")};
    spec.variants = {
        {"base", InsertionPolicy::None, 0, 0, false, false},
        {"full/3", InsertionPolicy::Full, 3, 0, true, true},
        {"intelligent/5", InsertionPolicy::Intelligent, 5, 0, true, true},
    };
    spec.layoutSeeds = {1000, 1001};
    spec.base.scale = 0.02;
    return spec;
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    return a.benchmark == b.benchmark && a.cycles == b.cycles &&
           a.instructions == b.instructions &&
           a.mem.l1.hits == b.mem.l1.hits &&
           a.mem.l1.misses == b.mem.l1.misses &&
           a.mem.l2.misses == b.mem.l2.misses &&
           a.mem.l3.misses == b.mem.l3.misses &&
           a.mem.dramAccesses == b.mem.dramAccesses &&
           a.mem.spills == b.mem.spills && a.mem.fills == b.mem.fills &&
           a.mem.cformOps == b.mem.cformOps &&
           a.mem.securityFaults == b.mem.securityFaults &&
           a.heap.allocs == b.heap.allocs &&
           a.heap.frees == b.heap.frees &&
           a.heap.cformsIssued == b.heap.cformsIssued &&
           a.heap.peakHeapBytes == b.heap.peakHeapBytes &&
           a.exceptionsDelivered == b.exceptionsDelivered &&
           a.exceptionsSuppressed == b.exceptionsSuppressed;
}

TEST(GridExpansion, EmptySuiteExpandsToNothing)
{
    CampaignSpec spec = smallSpec();
    spec.suite.clear();
    EXPECT_TRUE(spec.expand().empty());
    EXPECT_TRUE(exp::runUnits({}, 8).empty());
}

TEST(GridExpansion, EmptyVariantsExpandsToNothing)
{
    CampaignSpec spec = smallSpec();
    spec.variants.clear();
    EXPECT_TRUE(spec.expand().empty());
}

TEST(GridExpansion, SingleCell)
{
    CampaignSpec spec;
    spec.suite = {&findBenchmark("mcf")};
    Variant v;
    v.label = "full/5";
    v.policy = InsertionPolicy::Full;
    v.maxSpan = 5;
    v.cform = false;
    spec.variants = {v};
    spec.layoutSeeds = {42};
    spec.base.scale = 0.02;

    const auto units = spec.expand();
    ASSERT_EQ(units.size(), 1u);
    EXPECT_EQ(units[0].index, 0u);
    EXPECT_EQ(units[0].bench->name, "mcf");
    EXPECT_EQ(units[0].config.policy, InsertionPolicy::Full);
    EXPECT_EQ(units[0].config.policyParams.maxSpan, 5u);
    EXPECT_EQ(units[0].config.layoutSeed, 42u);
    EXPECT_FALSE(units[0].config.heap.useCform);
    EXPECT_FALSE(units[0].config.stack.useCform);
    EXPECT_DOUBLE_EQ(units[0].config.scale, 0.02);
}

TEST(GridExpansion, NonRandomizedVariantRunsFirstSeedOnly)
{
    const CampaignSpec spec = smallSpec();
    const auto units = spec.expand();
    // 2 benchmarks x (1 + 2 + 2 seeds) = 10 units, benchmark-major.
    ASSERT_EQ(units.size(), 10u);
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_EQ(units[i].index, i);
    EXPECT_EQ(units[0].variantIndex, 0u);
    EXPECT_EQ(units[0].config.layoutSeed, 1000u);
    EXPECT_EQ(units[1].variantIndex, 1u);
    EXPECT_EQ(units[1].config.layoutSeed, 1000u);
    EXPECT_EQ(units[2].variantIndex, 1u);
    EXPECT_EQ(units[2].config.layoutSeed, 1001u);
    EXPECT_EQ(units[5].benchIndex, 1u); // second benchmark starts
}

TEST(GridExpansion, EmptySeedListExpandsToNothing)
{
    CampaignSpec spec = smallSpec();
    spec.layoutSeeds.clear();
    EXPECT_TRUE(spec.expand().empty());
}

TEST(GridExpansion, SpanFiltering)
{
    const auto variants = CampaignSpec::crossPolicySpans(
        {InsertionPolicy::None, InsertionPolicy::Opportunistic,
         InsertionPolicy::Full, InsertionPolicy::Intelligent},
        {3, 5, 7});
    // none and opportunistic ignore the span axis; full and
    // intelligent get one variant per span.
    ASSERT_EQ(variants.size(), 8u);
    EXPECT_EQ(variants[0].label, "none");
    EXPECT_EQ(variants[0].maxSpan, 0u);
    EXPECT_FALSE(variants[0].randomized);
    EXPECT_EQ(variants[1].label, "opportunistic");
    EXPECT_EQ(variants[1].maxSpan, 0u);
    EXPECT_FALSE(variants[1].randomized); // layout is seed-independent
    EXPECT_EQ(variants[2].label, "full/3");
    EXPECT_EQ(variants[2].maxSpan, 3u);
    EXPECT_TRUE(variants[2].randomized);
    EXPECT_EQ(variants[4].label, "full/7");
    EXPECT_EQ(variants[7].label, "intelligent/7");
    EXPECT_EQ(variants[7].fixedSpan, 7u);
}

TEST(GridExpansion, FixedSpanPolicyIsNotRandomized)
{
    const auto variants = CampaignSpec::crossPolicySpans(
        {InsertionPolicy::FullFixed}, {1, 4});
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_EQ(variants[0].fixedSpan, 1u);
    // Fixed spans never draw from the layout RNG, so averaging over
    // seeds would repeat byte-identical runs.
    EXPECT_FALSE(variants[0].randomized);
    EXPECT_FALSE(variants[1].randomized);
}

TEST(GridExpansion, LevelsAxisCrossesEveryVariant)
{
    CampaignSpec spec = smallSpec();
    spec.variants = CampaignSpec::crossLevels(spec.variants, {1, 3});
    ASSERT_EQ(spec.variants.size(), 6u);
    EXPECT_EQ(spec.variants[0].label, "base@L1");
    EXPECT_EQ(spec.variants[0].levels, 1u);
    EXPECT_EQ(spec.variants[3].label, "base@L3");
    EXPECT_EQ(spec.variants[3].levels, 3u);
    EXPECT_EQ(spec.variants[4].policy, InsertionPolicy::Full);

    const auto units = spec.expand();
    // 2 benchmarks x 2 depths x (1 + 2 + 2 seeds) = 20 units.
    ASSERT_EQ(units.size(), 20u);
    EXPECT_EQ(units[0].config.machine.mem.levels, 1u);
    EXPECT_EQ(units[5].config.machine.mem.levels, 3u);
}

TEST(GridExpansion, HierarchyOverridesAndSetsLandInUnit)
{
    CampaignSpec spec = smallSpec();
    Variant v("shrunk", InsertionPolicy::Full, 3, 0, true, false);
    v.levels = 2;
    v.l2Kb = 64;
    v.llcKb = 0;
    v.withSet("mem.extra_l2l3_latency", "1");
    spec.variants = {v};
    const auto units = spec.expand();
    ASSERT_EQ(units.size(), 2u);
    for (const RunUnit &unit : units) {
        EXPECT_EQ(unit.config.machine.mem.levels, 2u);
        EXPECT_EQ(unit.config.machine.mem.l2Size, 64u * 1024u);
        EXPECT_EQ(unit.config.machine.mem.l3Size, 0u);
        EXPECT_EQ(unit.config.machine.mem.extraL2L3Latency, 1u);
        EXPECT_EQ(unit.config.policyParams.maxSpan, 3u);
    }
}

TEST(Engine, LevelsAxisIsJobCountInvariant)
{
    CampaignSpec spec = smallSpec();
    spec.variants = CampaignSpec::crossLevels(spec.variants, {1, 2, 3});
    spec.base.machine.mem.wbQueueEntries = 8;
    const auto serial = exp::runCampaign(spec, 1);
    const auto parallel = exp::runCampaign(spec, 8);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i)
        EXPECT_TRUE(sameResult(serial.results[i], parallel.results[i]))
            << "unit " << i;
    // The axis must actually change the machine: depth 1 pays more
    // DRAM traffic than depth 3 for the same benchmark/variant/seed.
    EXPECT_GT(serial.results[0].mem.dramAccesses,
              serial.results[10].mem.dramAccesses);
}

TEST(Engine, EffectiveJobs)
{
    EXPECT_GE(exp::effectiveJobs(0), 1u);
    EXPECT_EQ(exp::effectiveJobs(1), 1u);
    EXPECT_EQ(exp::effectiveJobs(7), 7u);
}

TEST(Engine, ParallelResultsMatchSerialByteForByte)
{
    const CampaignSpec spec = smallSpec();
    const auto serial = exp::runCampaign(spec, 1);
    const auto parallel = exp::runCampaign(spec, 8);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i)
        EXPECT_TRUE(sameResult(serial.results[i], parallel.results[i]))
            << "unit " << i;
}

TEST(Engine, RepeatedParallelRunsAgree)
{
    const CampaignSpec spec = smallSpec();
    const auto a = exp::runCampaign(spec, 4);
    const auto b = exp::runCampaign(spec, 4);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
        EXPECT_TRUE(sameResult(a.results[i], b.results[i])) << i;
}

TEST(Engine, MeanCyclesIsSeedAverage)
{
    const CampaignSpec spec = smallSpec();
    const auto result = exp::runCampaign(spec, 2);
    const double expected =
        (static_cast<double>(result.at(0, 1, 0).cycles) +
         static_cast<double>(result.at(0, 1, 1).cycles)) /
        2.0;
    EXPECT_DOUBLE_EQ(result.mean(0, 1), expected);
    EXPECT_THROW(result.mean(0, 99), std::out_of_range);
    EXPECT_THROW(result.at(0, 0, 1), std::out_of_range);
}

TEST(Engine, WorkerExceptionPropagates)
{
    const SpecBenchmark bomb{
        "bomb", true,
        [](KernelContext &) { throw std::runtime_error("boom"); }};
    CampaignSpec spec;
    spec.suite = {&bomb};
    // Four units so jobs=4 exercises the pool path, not the inline
    // single-worker fallback.
    spec.variants = {{"base", InsertionPolicy::None, 0, 0, false, true}};
    spec.layoutSeeds = {1, 2, 3, 4};
    EXPECT_THROW(exp::runCampaign(spec, 1), std::runtime_error);
    EXPECT_THROW(exp::runCampaign(spec, 4), std::runtime_error);
}

TEST(Engine, MoreJobsThanUnits)
{
    CampaignSpec spec = smallSpec();
    spec.suite = {&findBenchmark("mcf")};
    spec.variants.resize(1);
    const auto serial = exp::runCampaign(spec, 1);
    const auto flooded = exp::runCampaign(spec, 64);
    ASSERT_EQ(serial.results.size(), 1u);
    ASSERT_EQ(flooded.results.size(), 1u);
    EXPECT_TRUE(sameResult(serial.results[0], flooded.results[0]));
}

} // namespace
} // namespace califorms
