/**
 * @file test_scenarios.cc
 * Tests for the pluggable attack-scenario API: the registry and the
 * victim corpus, trial determinism, legacy-trio equivalence with the
 * raw AttackSimulator, the behavior of the four new PoCs (heapspray,
 * overflow, uaf, timing) with and without califorms protection, and
 * the campaign plumbing (the "attack" benchmark fills the security
 * counters and the v2 JSON report carries the gated security block).
 */

#include <gtest/gtest.h>

#include "exp/report.hh"
#include "security/attacks.hh"
#include "security/scenarios.hh"
#include "security/victims.hh"

namespace califorms
{
namespace
{

/** The default protected setup the CLI uses: full insertion, spans
 *  1..7, shared attacker/layout seed. */
AttackParams
quickParams(const std::string &scenario, std::uint64_t seeds = 3)
{
    AttackParams p;
    p.scenario = scenario;
    p.seeds = seeds;
    p.objects = 16;
    p.probeBudget = 10000;
    return p;
}

SecurityRunStats
runProtected(const std::string &scenario, std::uint64_t seed = 31337,
             std::size_t trials = 3)
{
    Machine machine;
    return runAttackTrials(machine, HeapParams{}, InsertionPolicy::Full,
                           PolicyParams{1, 7, 1}, seed,
                           quickParams(scenario), trials);
}

SecurityRunStats
runUnprotected(const std::string &scenario, std::uint64_t seed = 31337,
               std::size_t trials = 3)
{
    Machine machine;
    HeapParams hp;
    hp.guardBytes = 0; // no inter-object guards either
    return runAttackTrials(machine, hp, InsertionPolicy::None,
                           PolicyParams{}, seed, quickParams(scenario),
                           trials);
}

TEST(ScenarioRegistry, SevenScenariosInRegistrationOrder)
{
    const std::vector<std::string> expected{
        "scan", "probe", "brop", "heapspray", "overflow", "uaf",
        "timing"};
    EXPECT_EQ(attackScenarioNames(), expected);
    ASSERT_EQ(attackScenarios().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(attackScenarios()[i]->name(), expected[i]);
        EXPECT_NE(std::string(attackScenarios()[i]->summary()), "");
    }
}

TEST(ScenarioRegistry, LookupByNameAndUnknownListsCandidates)
{
    EXPECT_EQ(std::string(findAttackScenario("uaf").name()), "uaf");
    try {
        findAttackScenario("doom");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown attack scenario 'doom'"),
                  std::string::npos);
        EXPECT_NE(msg.find("scan probe brop heapspray overflow uaf "
                           "timing"),
                  std::string::npos);
    }
}

TEST(VictimCorpus, ThreeVictimsAndTargetIsLastField)
{
    const std::vector<std::string> expected{"session", "packet",
                                            "inode"};
    EXPECT_EQ(attackVictimNames(), expected);
    for (const auto &name : expected) {
        const StructDefPtr def = attackVictim(name);
        EXPECT_EQ(def->name(), name);
        EXPECT_GE(def->fields().size(), 4u);
        EXPECT_EQ(attackTargetField(*def), def->fields().size() - 1);
    }
    EXPECT_THROW(attackVictim("ghost"), std::invalid_argument);
}

TEST(ScenarioTrials, DeterministicAcrossIdenticalMachines)
{
    for (const auto &name : attackScenarioNames()) {
        const SecurityRunStats a = runProtected(name);
        const SecurityRunStats b = runProtected(name);
        EXPECT_EQ(a.scenario, name);
        EXPECT_EQ(a.trials, b.trials) << name;
        EXPECT_EQ(a.successes, b.successes) << name;
        EXPECT_EQ(a.detections, b.detections) << name;
        EXPECT_EQ(a.probes, b.probes) << name;
        EXPECT_EQ(a.bytesTouched, b.bytesTouched) << name;
        EXPECT_EQ(a.crashes, b.crashes) << name;
        EXPECT_EQ(a.detectionLatencyCycles, b.detectionLatencyCycles)
            << name;
    }
}

TEST(ScenarioTrials, ScanMatchesRawAttackSimulator)
{
    // The registered scenario is the legacy loop: same machine state,
    // same seed, same answer as driving AttackSimulator by hand.
    const StructDefPtr def = attackVictim("session");
    AttackParams params = quickParams("scan");

    Machine m1;
    HeapAllocator h1(m1);
    ScenarioContext c{m1,
                      h1,
                      HeapParams{},
                      *def,
                      attackTargetField(*def),
                      InsertionPolicy::Full,
                      PolicyParams{1, 7, 1},
                      31337,
                      31337,
                      params};
    const ScenarioTrial t = findAttackScenario("scan").run(c);

    Machine m2;
    HeapAllocator h2(m2);
    LayoutTransformer tr(InsertionPolicy::Full, PolicyParams{1, 7, 1},
                         31337);
    auto layout =
        std::make_shared<SecureLayout>(tr.transform(*def));
    const Addr base = h2.allocate(layout, params.objects);
    AttackSimulator attacker(m2, 31337);
    const ScanResult r =
        attacker.linearScan(base, params.objects * layout->size);

    EXPECT_EQ(t.detected, r.detected);
    EXPECT_EQ(t.bytesTouched, r.bytesScanned);
    EXPECT_EQ(t.success, !r.detected);
}

TEST(ScenarioTrials, ProbeMatchesRawAttackSimulator)
{
    const StructDefPtr def = attackVictim("session");
    AttackParams params = quickParams("probe");

    Machine m1;
    HeapAllocator h1(m1);
    ScenarioContext c{m1,
                      h1,
                      HeapParams{},
                      *def,
                      attackTargetField(*def),
                      InsertionPolicy::Full,
                      PolicyParams{1, 7, 1},
                      31337,
                      31337,
                      params};
    const ScenarioTrial t = findAttackScenario("probe").run(c);

    Machine m2;
    HeapAllocator h2(m2);
    LayoutTransformer tr(InsertionPolicy::Full, PolicyParams{1, 7, 1},
                         31337);
    auto layout =
        std::make_shared<SecureLayout>(tr.transform(*def));
    std::vector<Addr> objs;
    for (std::uint64_t i = 0; i < params.objects; ++i)
        objs.push_back(h2.allocate(layout));
    AttackSimulator attacker(m2, 31337);
    const ProbeResult r =
        attacker.randomProbes(objs, layout->size, params.probeBudget);

    EXPECT_EQ(t.detected, r.detected);
    EXPECT_EQ(t.probes, r.probes);
}

TEST(ScenarioTrials, BropMatchesRawAttackSimulator)
{
    const StructDefPtr def = attackVictim("session");
    AttackParams params = quickParams("brop");

    Machine m1;
    HeapAllocator h1(m1);
    ScenarioContext c{m1,
                      h1,
                      HeapParams{},
                      *def,
                      attackTargetField(*def),
                      InsertionPolicy::Full,
                      PolicyParams{1, 7, 1},
                      31337,
                      31337,
                      params};
    const ScenarioTrial t = findAttackScenario("brop").run(c);

    Machine m2;
    AttackSimulator attacker(m2, 31337);
    const BropResult r = attacker.bropAttack(
        *def, InsertionPolicy::Full, PolicyParams{1, 7, 1},
        attackTargetField(*def), params.crashBudget,
        params.bropRerandomize, HeapParams{});

    EXPECT_EQ(t.success, r.succeeded);
    EXPECT_EQ(t.crashes, r.crashes);
    EXPECT_EQ(t.probes, r.probes);
    EXPECT_EQ(t.detectionLatencyCycles, r.firstDetectionCycles);
}

TEST(HeapSpray, LandsSilentlyOnUnprotectedHeap)
{
    const SecurityRunStats r = runUnprotected("heapspray");
    EXPECT_EQ(r.successes, r.trials);
    EXPECT_EQ(r.detections, 0u);
    EXPECT_EQ(r.crashes, 0u);
}

TEST(HeapSpray, GuardsAndSpansConvertWinsIntoDetections)
{
    const SecurityRunStats r = runProtected("heapspray");
    EXPECT_EQ(r.successes, 0u);
    EXPECT_EQ(r.detections, r.trials);
    EXPECT_GT(r.crashes, 0u);
}

TEST(Overflow, LandsSilentlyOnUnprotectedHeap)
{
    const SecurityRunStats r = runUnprotected("overflow");
    EXPECT_EQ(r.successes, r.trials);
    EXPECT_EQ(r.detections, 0u);
}

TEST(Overflow, GuardBytesStopTheOverrun)
{
    // Even with no intra-object spans, the inter-object guards catch a
    // linear overrun before it reaches the neighbor's fields.
    Machine machine;
    const SecurityRunStats r = runAttackTrials(
        machine, HeapParams{}, InsertionPolicy::None, PolicyParams{},
        31337, quickParams("overflow"), 3);
    EXPECT_EQ(r.successes, 0u);
    EXPECT_EQ(r.detections, r.trials);
}

TEST(Uaf, QuarantineDrainHandsTheChunkToANewOwner)
{
    // Default quarantine (25% of peak): churn pushes the freed victim
    // chunk through quarantine into reuse, and the stale pointer then
    // reads another owner's live data undetected — but only after the
    // fully-blacklisted quarantine phase charged some crashes.
    const SecurityRunStats r = runProtected("uaf");
    EXPECT_EQ(r.successes, r.trials);
    EXPECT_GT(r.crashes, 0u);
}

TEST(Uaf, UnboundedQuarantineNeverRecycles)
{
    // quarantineFraction = 1: the quarantine can hold the entire peak
    // heap, the victim chunk is never recycled, and every stale probe
    // lands on blacklisted bytes.
    Machine machine;
    HeapParams hp;
    hp.quarantineFraction = 1.0;
    const SecurityRunStats r = runAttackTrials(
        machine, hp, InsertionPolicy::Full, PolicyParams{1, 7, 1},
        31337, quickParams("uaf"), 3);
    EXPECT_EQ(r.successes, 0u);
    EXPECT_EQ(r.detections, r.trials);
    EXPECT_GT(r.crashes, 0u);
}

TEST(Timing, FullPolicyGapsAreAllFatal)
{
    // Under full insertion every inter-field gap carries a span, so
    // whatever gap the side channel nominates, the probe trips.
    const SecurityRunStats r = runProtected("timing");
    EXPECT_EQ(r.successes, 0u);
    EXPECT_EQ(r.detections, r.trials);
}

TEST(Timing, NaturalPaddingGapIsFairGame)
{
    // The packet victim has alignment padding before its dispatch
    // pointer; with no insertion policy that gap holds no security
    // bytes and the probe lands silently.
    Machine machine;
    AttackParams params = quickParams("timing");
    params.victim = "packet";
    const SecurityRunStats r = runAttackTrials(
        machine, HeapParams{}, InsertionPolicy::None, PolicyParams{},
        31337, params, 3);
    EXPECT_EQ(r.successes, r.trials);
    EXPECT_EQ(r.detections, 0u);
}

TEST(AttackBenchmark, FillsSecurityCountersThroughTheRunner)
{
    RunConfig config;
    config.scale = 1.0;
    config.attack.seeds = 2;
    config.attack.scenario = "overflow";
    const RunResult r =
        runBenchmark(findBenchmark("attack"), config);
    EXPECT_EQ(r.security.scenario, "overflow");
    EXPECT_EQ(r.security.trials, 2u);
    EXPECT_GT(r.security.probes, 0u);
}

TEST(AttackBenchmark, IsAttackBenchmarkMatchesOnlyTheReplay)
{
    EXPECT_TRUE(isAttackBenchmark("attack"));
    EXPECT_FALSE(isAttackBenchmark("scan"));  // adversarial workload
    EXPECT_FALSE(isAttackBenchmark("bzip2"));
}

TEST(AttackBenchmark, V2ReportCarriesGatedSecurityBlock)
{
    exp::CampaignSpec spec;
    spec.name = "scenario_report";
    for (const auto &b : securitySuite())
        spec.suite.push_back(&b);
    spec.base.attack.seeds = 2;
    spec.variants = {exp::policyVariant("full", InsertionPolicy::Full, 7)};
    spec.variants[0].withSet("attack.scenario", "heapspray");
    const exp::CampaignResult result = exp::runCampaign(spec);

    const std::string v2 =
        exp::campaignJson(result, exp::ReportTiming{false});
    EXPECT_NE(v2.find("\"security\""), std::string::npos);
    EXPECT_NE(v2.find("\"scenario\": \"heapspray\""),
              std::string::npos);
    EXPECT_NE(v2.find("\"successProbability\""), std::string::npos);
}

} // namespace
} // namespace califorms
