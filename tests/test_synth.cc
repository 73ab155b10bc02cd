/**
 * @file test_synth.cc
 * Synthetic workload engine tests: generator determinism and op
 * budgets, the per-workload access-pattern properties the suite
 * harness relies on, registry plumbing of the workload.* keys,
 * campaign registration, and jobs-invariance for every generator.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "config/config.hh"
#include "exp/campaign.hh"
#include "workload/synth.hh"

namespace califorms
{
namespace
{

Trace
materialize(const std::string &name, const SynthParams &params,
            std::uint64_t ops)
{
    const auto gen = makeSynthGenerator(name, params, ops);
    Trace trace;
    TraceOp op;
    while (gen->next(op))
        trace.push_back(op);
    return trace;
}

std::string
serialize(const Trace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

TEST(SynthSuite, EightWorkloadsRegistered)
{
    // Five classic workloads (the campaign suite the BENCH baselines
    // iterate) plus the three adversarial replacement microworkloads.
    EXPECT_EQ(synthWorkloadNames().size(), 8u);
    EXPECT_EQ(kClassicWorkloads, 5u);
    EXPECT_EQ(synthSuite().size(), 5u);
    EXPECT_EQ(adversarialSuite().size(), 3u);
    for (const auto &b : adversarialSuite()) {
        EXPECT_TRUE(isSynthWorkload(b.name));
        EXPECT_FALSE(b.inSoftwareEval);
    }
    for (const std::string &name : synthWorkloadNames()) {
        EXPECT_TRUE(isSynthWorkload(name));
        // Registered as campaign benchmarks, outside the software
        // evaluation (they are not part of the paper's Section 8.2).
        const SpecBenchmark &bench = findBenchmark(name);
        EXPECT_EQ(bench.name, name);
        EXPECT_FALSE(bench.inSoftwareEval);
    }
    EXPECT_FALSE(isSynthWorkload("mcf"));
    EXPECT_THROW(makeSynthGenerator("doom", {}, 1),
                 std::invalid_argument);
}

TEST(SynthGenerator, DeterministicAndExactBudget)
{
    for (const std::string &name : synthWorkloadNames()) {
        SynthParams params;
        params.ops = 4000;
        const Trace a = materialize(name, params, 4000);
        const Trace b = materialize(name, params, 4000);
        EXPECT_EQ(a.size(), 4000u) << name;
        EXPECT_EQ(serialize(a), serialize(b)) << name;
        // A shorter budget is an exact prefix: generators are pure
        // streams, not post-trimmed batches.
        const Trace prefix = materialize(name, params, 1000);
        ASSERT_EQ(prefix.size(), 1000u) << name;
        EXPECT_EQ(serialize(prefix),
                  serialize(Trace(a.begin(), a.begin() + 1000)))
            << name;
    }
}

TEST(SynthGenerator, NextAndFillYieldTheSameStream)
{
    // Replay pulls ops with next(), recording with fill(): both must
    // produce the same ops, field by field. An odd batch size leaves a
    // short last batch; 10007 ops reach mixed's scan episode.
    constexpr std::uint64_t kOps = 10007;
    constexpr std::size_t kBatch = 37;
    for (const std::string &name : synthWorkloadNames()) {
        SynthParams params;
        const Trace viaNext = materialize(name, params, kOps);
        ASSERT_EQ(viaNext.size(), kOps) << name;

        const auto gen = makeSynthGenerator(name, params, kOps);
        Trace viaFill;
        TraceOp batch[kBatch];
        for (std::size_t n; (n = gen->fill(batch, kBatch)) > 0;) {
            viaFill.insert(viaFill.end(), batch, batch + n);
            if (n < kBatch)
                break;
        }
        EXPECT_EQ(gen->fill(batch, kBatch), 0u) << name;
        ASSERT_EQ(viaFill.size(), kOps) << name;

        for (std::size_t i = 0; i < kOps; ++i) {
            const TraceOp &a = viaNext[i];
            const TraceOp &b = viaFill[i];
            const std::string at = name + " op " + std::to_string(i);
            ASSERT_EQ(a.kind, b.kind) << at;
            ASSERT_EQ(a.dependsOnPrev, b.dependsOnPrev) << at;
            ASSERT_EQ(a.size, b.size) << at;
            ASSERT_EQ(a.computeOps, b.computeOps) << at;
            ASSERT_EQ(a.addr, b.addr) << at;
            ASSERT_EQ(a.value, b.value) << at;
            ASSERT_EQ(a.cform.lineAddr, b.cform.lineAddr) << at;
            ASSERT_EQ(a.cform.setBits, b.cform.setBits) << at;
            ASSERT_EQ(a.cform.mask, b.cform.mask) << at;
            ASSERT_EQ(a.cform.nonTemporal, b.cform.nonTemporal) << at;
        }
    }
}

TEST(SynthGenerator, SeedChangesTheRandomizedStreams)
{
    for (const std::string name :
         {"zipf", "attackmix", "stackchurn", "mixed"}) {
        SynthParams a, b;
        b.seed = a.seed + 1;
        EXPECT_NE(serialize(materialize(name, a, 2000)),
                  serialize(materialize(name, b, 2000)))
            << name;
    }
}

TEST(SynthGenerator, ZipfAlphaConcentratesTheHotSet)
{
    SynthParams uniform;
    uniform.zipfAlpha = 0.0;
    SynthParams hot;
    hot.zipfAlpha = 2.5;
    auto distinct_lines = [](const Trace &trace) {
        std::set<Addr> lines;
        for (const TraceOp &op : trace)
            if (op.kind == TraceOp::Kind::Load ||
                op.kind == TraceOp::Kind::Store)
                lines.insert(op.addr >> 6);
        return lines.size();
    };
    const std::size_t wide =
        distinct_lines(materialize("zipf", uniform, 20000));
    const std::size_t narrow =
        distinct_lines(materialize("zipf", hot, 20000));
    // Skew must shrink the touched set dramatically.
    EXPECT_LT(narrow * 4, wide);
}

TEST(SynthGenerator, StreamIsSequential)
{
    SynthParams params;
    const Trace trace = materialize("stream", params, 3000);
    Addr prev = 0;
    bool first = true;
    for (const TraceOp &op : trace) {
        if (op.kind != TraceOp::Kind::Load &&
            op.kind != TraceOp::Kind::Store)
            continue;
        if (!first) {
            EXPECT_TRUE(op.addr > prev) << "stream must march forward";
        }
        first = false;
        prev = op.addr;
        if (trace.size() > 2000 && op.addr > trace[0].addr + 100000)
            break; // sampled enough
    }
}

TEST(SynthGenerator, StackChurnPairsSetAndUnset)
{
    SynthParams params;
    const Trace trace = materialize("stackchurn", params, 5000);
    std::size_t sets = 0, unsets = 0;
    for (const TraceOp &op : trace) {
        if (op.kind != TraceOp::Kind::Cform)
            continue;
        if (op.cform.setBits)
            ++sets;
        else
            ++unsets;
    }
    EXPECT_GT(sets, 0u);
    // Unsets never outrun sets, and every prefix stays balanced
    // within the tree depth.
    EXPECT_LE(unsets, sets);
    EXPECT_LE(sets - unsets, params.stackDepth);
    // The churn replays clean: frames never touch their own security
    // bytes.
    Machine machine;
    runTrace(machine, trace);
    EXPECT_EQ(machine.exceptions().deliveredCount(), 0u);
}

TEST(SynthGenerator, RingBalancesProducerAndConsumer)
{
    SynthParams params;
    const Trace trace = materialize("ring", params, 4000);
    std::size_t loads = 0, stores = 0;
    for (const TraceOp &op : trace) {
        loads += op.kind == TraceOp::Kind::Load;
        stores += op.kind == TraceOp::Kind::Store;
    }
    EXPECT_GT(loads, 0u);
    EXPECT_GT(stores, 0u);
    // One publish + burst stores vs one poll + burst loads per round.
    EXPECT_NEAR(static_cast<double>(loads),
                static_cast<double>(stores), params.ringBurst + 2);
}

TEST(SynthGenerator, AttackMixTripsSecurityBytes)
{
    SynthParams params;
    params.attackPeriod = 32; // probe often so a short run detects
    const Trace trace = materialize("attackmix", params, 4000);
    Machine machine;
    runTrace(machine, trace);
    EXPECT_GT(machine.exceptions().deliveredCount(), 0u)
        << "the attack mix must reach security bytes";
    // Benign-only workloads never do.
    Machine clean;
    runTrace(clean, materialize("zipf", SynthParams{}, 4000));
    EXPECT_EQ(clean.exceptions().deliveredCount(), 0u);
}

TEST(SynthRunner, CampaignPathMatchesTracePath)
{
    // The benchmark adapter streams the same generator the trace CLI
    // serializes: cycles must agree exactly.
    RunConfig config;
    config.scale = 1.0;
    config.synth.ops = 5000;
    const RunResult via_campaign =
        runBenchmark(findBenchmark("zipf"), config);

    Machine machine(config.machine, ExceptionUnit::Policy::Record);
    const auto gen =
        makeSynthGenerator("zipf", config.synth, config.synth.ops);
    runTrace(machine, *gen);
    EXPECT_EQ(via_campaign.cycles, machine.cycles());
    EXPECT_EQ(via_campaign.instructions, machine.instructions());
}

TEST(SynthRunner, ScaleScalesOps)
{
    RunConfig small, large;
    small.scale = 0.1;
    large.scale = 0.5;
    small.synth.ops = large.synth.ops = 20000;
    const auto &bench = findBenchmark("stream");
    const RunResult a = runBenchmark(bench, small);
    const RunResult b = runBenchmark(bench, large);
    EXPECT_EQ(a.instructions * 5, b.instructions);
}

TEST(SynthConfig, WorkloadKeysReachTheGenerators)
{
    config::Config cfg;
    ASSERT_FALSE(cfg.set("workload.ops", "123"));
    ASSERT_FALSE(cfg.set("workload.zipf_alpha", "1.5"));
    ASSERT_FALSE(cfg.set("workload.footprint_kb", "64"));
    ASSERT_FALSE(cfg.set("workload.seed", "9"));
    const RunConfig rc = cfg.makeRunConfig();
    EXPECT_EQ(rc.synth.ops, 123u);
    EXPECT_DOUBLE_EQ(rc.synth.zipfAlpha, 1.5);
    EXPECT_EQ(rc.synth.footprintKb, 64u);
    EXPECT_EQ(rc.synth.seed, 9u);
    // Bounds are enforced like every registry key.
    EXPECT_TRUE(cfg.set("workload.zipf_alpha", "9"));
    EXPECT_TRUE(cfg.set("workload.ops", "0"));
    EXPECT_TRUE(cfg.set("workload.no_such", "1"));
}

TEST(SynthCampaign, JobsInvariantForEveryWorkload)
{
    exp::CampaignSpec spec;
    spec.name = "synth_inv";
    for (const auto &b : synthSuite())
        spec.suite.push_back(&b);
    for (const auto &b : adversarialSuite())
        spec.suite.push_back(&b);
    spec.variants = exp::CampaignSpec::crossKey({exp::Variant{"base", {}}},
                                                "mem.levels", {"1", "3"});
    spec.base.scale = 1.0;
    spec.base.synth.ops = 3000;

    const exp::CampaignResult serial = exp::runCampaign(spec, 1);
    const exp::CampaignResult parallel = exp::runCampaign(spec, 8);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    ASSERT_EQ(serial.results.size(),
              (synthSuite().size() + adversarialSuite().size()) *
                  spec.variants.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].cycles, parallel.results[i].cycles)
            << serial.results[i].benchmark;
        EXPECT_EQ(serial.results[i].instructions,
                  parallel.results[i].instructions);
        EXPECT_EQ(serial.results[i].mem.l1.misses,
                  parallel.results[i].mem.l1.misses);
        EXPECT_EQ(serial.results[i].mem.dramAccesses,
                  parallel.results[i].mem.dramAccesses);
    }
}

} // namespace
} // namespace califorms
