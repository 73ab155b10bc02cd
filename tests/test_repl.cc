/**
 * @file test_repl.cc
 * Replacement-policy laboratory tests: set-dueling arithmetic, policy
 * determinism (including the seeded Random policy), the in-place
 * overwrite-counts-as-reference rule, califormed-victim accounting at
 * the array and at the machine aggregation, the pinned
 * DRRIP-beats-LRU-on-scan comparison, config-key parsing, and
 * jobs-invariance of a mem.repl_policy sweep axis.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/line.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "sim/cache_array.hh"
#include "sim/repl/policy.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms
{
namespace
{

const SpecBenchmark &
adversarialBench(const std::string &name)
{
    for (const auto &b : adversarialSuite())
        if (b.name == name)
            return b;
    throw std::invalid_argument("no adversarial bench " + name);
}

constexpr ReplPolicy kAllPolicies[] = {
    ReplPolicy::Lru, ReplPolicy::Random, ReplPolicy::Dip,
    ReplPolicy::Drrip, ReplPolicy::Ship};

TEST(SetDuel, LeaderSetsFollowTheConstellation)
{
    // One leader pair per kLeaderModulus sets, at offsets 0 and 1.
    EXPECT_TRUE(repl::SetDuel::isLeaderA(0));
    EXPECT_TRUE(repl::SetDuel::isLeaderB(1));
    EXPECT_FALSE(repl::SetDuel::isLeaderA(1));
    EXPECT_FALSE(repl::SetDuel::isLeaderB(0));
    for (std::size_t s = 2; s < repl::SetDuel::kLeaderModulus; ++s) {
        EXPECT_FALSE(repl::SetDuel::isLeaderA(s)) << s;
        EXPECT_FALSE(repl::SetDuel::isLeaderB(s)) << s;
    }
    EXPECT_TRUE(repl::SetDuel::isLeaderA(32));
    EXPECT_TRUE(repl::SetDuel::isLeaderB(33));
    EXPECT_TRUE(repl::SetDuel::isLeaderA(64));
}

TEST(SetDuel, PselTrainsOnLeaderMissesOnly)
{
    repl::SetDuel duel;
    EXPECT_EQ(duel.psel(), repl::SetDuel::kPselInit);
    // Followers start on policy A; leaders are pinned to their own.
    EXPECT_FALSE(duel.useB(5));
    EXPECT_FALSE(duel.useB(0));
    EXPECT_TRUE(duel.useB(1));

    // Follower misses never move the counter.
    duel.onMiss(5);
    duel.onMiss(7);
    EXPECT_EQ(duel.psel(), repl::SetDuel::kPselInit);

    // A-leader misses vote for B; one miss flips the followers.
    duel.onMiss(0);
    EXPECT_EQ(duel.psel(), repl::SetDuel::kPselInit + 1);
    EXPECT_TRUE(duel.useB(5));
    EXPECT_FALSE(duel.useB(0)); // leader stays pinned
    // B-leader misses vote for A.
    duel.onMiss(1);
    duel.onMiss(33);
    EXPECT_EQ(duel.psel(), repl::SetDuel::kPselInit - 1);
    EXPECT_FALSE(duel.useB(5));

    // The counter saturates at both ends.
    for (unsigned i = 0; i < 3 * repl::SetDuel::kPselMax; ++i)
        duel.onMiss(1);
    EXPECT_EQ(duel.psel(), 0u);
    for (unsigned i = 0; i < 3 * repl::SetDuel::kPselMax; ++i)
        duel.onMiss(0);
    EXPECT_EQ(duel.psel(), repl::SetDuel::kPselMax);
}

/** Feed one deterministic access/insert mix and record the eviction
 *  order. */
std::vector<Addr>
evictionTrace(ReplPolicy policy)
{
    CacheArray<int> cache(4 * 1024, 4, policy);
    std::vector<Addr> evicted;
    std::uint64_t x = 0x1234'5678'9abc'def0ull;
    for (unsigned i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr la = (x % 512) * lineBytes;
        if (const auto hit = cache.access(la)) {
            if ((x >> 32) % 4 == 0)
                hit.markDirty();
        } else {
            const auto ev =
                cache.insert(la, static_cast<int>(i), (x >> 40) % 8 == 0);
            if (ev.valid)
                evicted.push_back(ev.lineAddr);
        }
    }
    EXPECT_FALSE(evicted.empty());
    return evicted;
}

TEST(ReplPolicies, EveryPolicyIsDeterministic)
{
    // Identical construction + identical stimulus must give an
    // identical eviction sequence — including Random, whose xorshift
    // stream is seeded at construction, not from global state.
    for (const ReplPolicy p : kAllPolicies)
        EXPECT_EQ(evictionTrace(p), evictionTrace(p))
            << replPolicyName(p);
}

TEST(ReplPolicies, PoliciesActuallyDiffer)
{
    // The laboratory is pointless if the hooks collapse to one
    // behaviour; LRU and Random must disagree on the stimulus above.
    EXPECT_NE(evictionTrace(ReplPolicy::Lru),
              evictionTrace(ReplPolicy::Random));
}

TEST(ReplPolicies, InPlaceOverwriteCountsAsReference)
{
    // Re-inserting a resident line routes through onHit: an
    // upgrade-write refreshes recency under every deterministic
    // policy, so the untouched co-resident is the victim.
    for (const ReplPolicy p : {ReplPolicy::Lru, ReplPolicy::Dip,
                               ReplPolicy::Drrip, ReplPolicy::Ship}) {
        CacheArray<int> cache(2 * lineBytes, 2, p); // one set, two ways
        cache.insert(0 * lineBytes, 1, false);
        cache.insert(1 * lineBytes, 2, false);
        const auto refresh = cache.insert(0 * lineBytes, 3, true);
        EXPECT_FALSE(refresh.valid) << replPolicyName(p);
        const auto ev = cache.insert(2 * lineBytes, 4, false);
        ASSERT_TRUE(ev.valid) << replPolicyName(p);
        EXPECT_EQ(ev.lineAddr, 1u * lineBytes) << replPolicyName(p);
        EXPECT_EQ(ev.line, 2) << replPolicyName(p);
        // The refresh merged the dirty bit into the surviving copy.
        EXPECT_TRUE(cache.dirtyAt(0)) << replPolicyName(p);
    }
}

TEST(ReplPolicies, CformEvictionsCountCaliformedVictims)
{
    CacheArray<BitVectorLine> cache(2 * lineBytes, 2);
    BitVectorLine masked;
    masked.mask = 0x00ff'0000'0000'0000ull;
    cache.insert(0 * lineBytes, masked, false);
    cache.insert(1 * lineBytes, BitVectorLine{}, false);
    // LRU victim is the califormed line.
    auto ev = cache.insert(2 * lineBytes, BitVectorLine{}, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.line.califormed());
    EXPECT_EQ(cache.stats().cformEvictions, 1u);
    // The next victim is clean of security bytes; the counter holds.
    ev = cache.insert(3 * lineBytes, BitVectorLine{}, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.line.califormed());
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().cformEvictions, 1u);
}

RunResult
runAdversarial(const std::string &bench, ReplPolicy policy)
{
    RunConfig config;
    config.scale = 1.0;
    config.synth.ops = 60000;
    config.machine.mem.levels = 2; // isolate the L2, the duel arena
    config.machine.mem.replPolicy = ReplPolicy::Lru;
    config.machine.mem.l2ReplPolicy = policy;
    return runBenchmark(adversarialBench(bench), config);
}

TEST(ReplLab, DrripBeatsLruOnScan)
{
    // The acceptance pin: on the scan microworkload the streaming
    // episodes flush an LRU L2's hot set every period, while RRIP
    // aging drains the never-reused scan lines first. The measured gap
    // is wide (~71% vs ~44% L2 miss rate), so assert a robust margin:
    // LRU misses at least 1.3x more.
    const RunResult lru = runAdversarial("scan", ReplPolicy::Inherit);
    const RunResult drrip = runAdversarial("scan", ReplPolicy::Drrip);
    EXPECT_EQ(lru.mem.l1.misses + lru.mem.l1.hits,
              drrip.mem.l1.misses + drrip.mem.l1.hits);
    EXPECT_GT(lru.mem.l2.misses * 10, drrip.mem.l2.misses * 13);
}

TEST(ReplLab, MixedReportsCaliformedVictimsPerLevel)
{
    // The mixed workload CFORM-protects its hot objects, so whether a
    // policy preferentially evicts califormed lines shows up directly
    // in the per-level counters — including the L1, whose counter is
    // aggregated across cores by Machine::memStats.
    RunConfig config;
    config.scale = 1.0;
    config.synth.ops = 40000;
    config.machine.mem.replPolicy = ReplPolicy::Drrip;
    const RunResult r =
        runBenchmark(adversarialBench("mixed"), config);
    EXPECT_GT(r.mem.l1.cformEvictions, 0u);
    EXPECT_GT(r.mem.l2.cformEvictions, 0u);
    EXPECT_LE(r.mem.l1.cformEvictions, r.mem.l1.evictions);
}

TEST(ReplSweep, PolicyAxisIsJobsInvariant)
{
    exp::CampaignSpec spec;
    spec.name = "repl_sweep";
    spec.suite.push_back(&adversarialBench("scan"));
    spec.suite.push_back(&adversarialBench("thrash"));
    spec.variants = exp::CampaignSpec::crossKey(
        {exp::Variant{"base", {}}},
        "mem.repl_policy", {"lru", "random", "drrip", "ship"});
    spec.base.scale = 1.0;
    spec.base.synth.ops = 3000;
    const auto serial = exp::runCampaign(spec, 1);
    const auto parallel = exp::runCampaign(spec, 4);
    const exp::ReportTiming timing{false, 1, 0.0};
    EXPECT_EQ(exp::campaignJson(serial, timing),
              exp::campaignJson(parallel, timing));
}

} // namespace
} // namespace califorms
