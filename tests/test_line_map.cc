/**
 * @file test_line_map.cc
 * The open-addressed per-line map behind the MSI directory, the
 * write-back-queue index and the DRAM page table: a seeded differential
 * run against std::unordered_map over a small colliding key pool (probe
 * chains wrap past the last slot and backward-shift erases happen
 * mid-chain), growth, absent-key erase, forEach coverage, and move-only
 * values surviving growth and erase shifts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/line_map.hh"

namespace califorms
{
namespace
{

/** Every key of @p ref is in @p map with the same value, and the sizes
 *  agree. */
void
expectSameContents(const LineMap<std::uint64_t> &map,
                   const std::unordered_map<Addr, std::uint64_t> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const std::uint64_t *got = map.find(key);
        ASSERT_NE(got, nullptr) << std::hex << key;
        EXPECT_EQ(*got, value) << std::hex << key;
    }
}

TEST(LineMap, MatchesUnorderedMapOnRandomOps)
{
    // A pool of 96 keys — line addresses and page numbers, both
    // clustered — over a table that peaks near 64 entries, so the
    // 128-slot array runs close to its 1/2 load bound and chains wrap.
    std::vector<Addr> pool;
    for (Addr i = 0; i < 32; ++i) {
        pool.push_back(0x40000 + i * lineBytes);
        pool.push_back(0x7fff'ffff'f000ull + i * lineBytes * 64);
        pool.push_back(i); // page numbers start at 0
    }
    std::mt19937_64 rng(0xca11f0e5);
    LineMap<std::uint64_t> map;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (int step = 0; step < 100'000; ++step) {
        const Addr key = pool[rng() % pool.size()];
        switch (rng() % 3) {
        case 0: {
            const std::uint64_t value = rng();
            map[key] = value;
            ref[key] = value;
            break;
        }
        case 1: {
            const std::uint64_t *got = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << step;
            if (got) {
                ASSERT_EQ(*got, it->second) << step;
            }
            break;
        }
        default:
            map.erase(key);
            ref.erase(key);
            break;
        }
        ASSERT_EQ(map.size(), ref.size()) << step;
        if (step % 997 == 0)
            expectSameContents(map, ref);
    }
    expectSameContents(map, ref);
}

TEST(LineMap, ChainsThatWrapPastTheLastSlotSurviveErase)
{
    // Line addresses whose Fibonacci hash has its top 7 bits set: their
    // home is the last slot of every table up to 128 slots, so each
    // chain of them runs off the end and continues at slot 0.
    std::vector<Addr> wrap;
    for (Addr line = 0; wrap.size() < 6; line += lineBytes)
        if ((line * 0x9E3779B97F4A7C15ull) >> 57 == 0x7f)
            wrap.push_back(line);
    for (std::size_t victim = 0; victim < wrap.size(); ++victim) {
        LineMap<std::uint64_t> map;
        std::unordered_map<Addr, std::uint64_t> ref;
        for (std::size_t i = 0; i < wrap.size(); ++i) {
            map[wrap[i]] = i;
            ref[wrap[i]] = i;
        }
        map.erase(wrap[victim]);
        ref.erase(wrap[victim]);
        expectSameContents(map, ref);
        EXPECT_EQ(map.find(wrap[victim]), nullptr);
    }
}

TEST(LineMap, GrowthKeepsEveryEntry)
{
    LineMap<std::uint64_t> map;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (Addr i = 0; i < 5000; ++i) {
        const Addr key = 0x100000 + i * lineBytes;
        map[key] = i;
        ref[key] = i;
        if ((i & (i + 1)) == 0) // across each doubling
            expectSameContents(map, ref);
    }
    expectSameContents(map, ref);
}

TEST(LineMap, OperatorBracketDefaultInsertsOnce)
{
    LineMap<std::uint64_t> map;
    EXPECT_EQ(map[0x80], 0u);
    map[0x80] = 7;
    EXPECT_EQ(map[0x80], 7u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(LineMap, EraseOfAbsentKeyIsANoOp)
{
    LineMap<std::uint64_t> map;
    map.erase(0x40);
    EXPECT_EQ(map.size(), 0u);
    map[0x40] = 1;
    map[0x80] = 2;
    map.erase(0xc0);
    EXPECT_EQ(map.size(), 2u);
    map.erase(0x40);
    map.erase(0x40);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.find(0x40), nullptr);
    ASSERT_NE(map.find(0x80), nullptr);
    EXPECT_EQ(*map.find(0x80), 2u);
}

TEST(LineMap, ForEachVisitsEachLiveKeyOnce)
{
    LineMap<std::uint64_t> map;
    std::set<Addr> live;
    for (Addr i = 0; i < 300; ++i) {
        map[i * lineBytes] = i;
        live.insert(i * lineBytes);
    }
    for (Addr i = 0; i < 300; i += 3) {
        map.erase(i * lineBytes);
        live.erase(i * lineBytes);
    }
    std::multiset<Addr> seen;
    map.forEach([&](Addr key, const std::uint64_t &value) {
        seen.insert(key);
        EXPECT_EQ(value, key / lineBytes);
    });
    EXPECT_EQ(seen, std::multiset<Addr>(live.begin(), live.end()));
}

TEST(LineMap, MoveOnlyValuesSurviveGrowthAndEraseShifts)
{
    LineMap<std::unique_ptr<std::uint64_t>> map;
    for (Addr page = 0; page < 1000; ++page)
        map[page] = std::make_unique<std::uint64_t>(page * 3);
    for (Addr page = 0; page < 1000; page += 2)
        map.erase(page);
    EXPECT_EQ(map.size(), 500u);
    for (Addr page = 0; page < 1000; ++page) {
        const auto *slot = map.find(page);
        if (page % 2 == 0) {
            EXPECT_EQ(slot, nullptr) << page;
        } else {
            ASSERT_NE(slot, nullptr) << page;
            ASSERT_TRUE(*slot);
            EXPECT_EQ(**slot, page * 3) << page;
        }
    }
}

} // namespace
} // namespace califorms
