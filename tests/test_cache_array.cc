/**
 * @file test_cache_array.cc
 * Tests for the set-associative cache array: geometry and set mapping,
 * LRU replacement, dirty tracking, eviction reporting, and the in-place
 * overwrite rules.
 */

#include <gtest/gtest.h>

#include "core/line.hh"
#include "sim/cache_array.hh"

namespace califorms
{
namespace
{

using IntCache = CacheArray<int>;

TEST(CacheArrayGeometry, SetsAndWays)
{
    IntCache c(32 * 1024, 8);
    EXPECT_EQ(c.ways(), 8u);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_THROW(IntCache(0, 8), std::invalid_argument);
    EXPECT_THROW(IntCache(32 * 1024, 0), std::invalid_argument);
    EXPECT_THROW(IntCache(100, 3), std::invalid_argument);
}

TEST(CacheArray, MissThenHit)
{
    IntCache c(4096, 4);
    EXPECT_FALSE(c.access(0));
    EXPECT_EQ(c.stats().misses, 1u);
    c.insert(0, 42, false);
    const auto v = c.access(0);
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    // 2-way cache; three lines mapping to the same set.
    IntCache c(2 * 64, 2); // 1 set, 2 ways
    c.insert(0 * 64, 10, false);
    c.insert(1 * 64, 11, false);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.access(0));
    const auto ev = c.insert(2 * 64, 12, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 1u * 64);
    EXPECT_EQ(ev.line, 11);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_NE(c.peek(2 * 64), nullptr);
    EXPECT_EQ(c.peek(1 * 64), nullptr);
}

TEST(CacheArray, DirtyEvictionReported)
{
    IntCache c(2 * 64, 2);
    c.insert(0, 1, true);
    c.insert(64, 2, false);
    const auto ev = c.insert(128, 3, false); // evicts line 0 (LRU, dirty)
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(CacheArray, InPlaceOverwriteMergesDirty)
{
    IntCache c(4096, 4);
    c.insert(0, 1, true);
    const auto ev = c.insert(0, 2, false); // overwrite, clean insert
    EXPECT_FALSE(ev.valid);               // nothing evicted
    c.insert(64, 9, false);
    int out;
    bool dirty;
    ASSERT_TRUE(c.extract(0, out, dirty));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(dirty); // dirty bit survives the clean overwrite
}

TEST(CacheArray, MarkDirty)
{
    IntCache c(4096, 4);
    c.insert(0, 5, false);
    c.find(0).markDirty();
    int out;
    bool dirty;
    ASSERT_TRUE(c.extract(0, out, dirty));
    EXPECT_TRUE(dirty);
}

TEST(CacheArray, ExtractRemovesLine)
{
    IntCache c(4096, 4);
    c.insert(0, 5, false);
    int out;
    bool dirty;
    EXPECT_TRUE(c.extract(0, out, dirty));
    EXPECT_EQ(c.peek(0), nullptr);
    EXPECT_FALSE(c.extract(0, out, dirty));
}

TEST(CacheArray, PeekDoesNotTouchStatsOrLru)
{
    IntCache c(2 * 64, 2);
    c.insert(0, 1, false);
    c.insert(64, 2, false);
    // Peek line 0 (would refresh LRU if it were an access).
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.stats().hits, 0u);
    // Line 0 is still LRU, so it gets evicted.
    const auto ev = c.insert(128, 3, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u);
}

TEST(CacheArray, ForEachLineVisitsAllValid)
{
    IntCache c(4096, 4);
    c.insert(0, 1, false);
    c.insert(64, 2, true);
    c.insert(4096, 3, false);
    int visited = 0;
    int dirty_count = 0;
    c.forEachLine([&](Addr, int &, bool dirty) {
        ++visited;
        dirty_count += dirty;
    });
    EXPECT_EQ(visited, 3);
    EXPECT_EQ(dirty_count, 1);
}

TEST(CacheArray, ResetDropsEverything)
{
    IntCache c(4096, 4);
    c.insert(0, 1, true);
    c.reset();
    EXPECT_EQ(c.peek(0), nullptr);
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    IntCache c(4 * 64, 2); // 2 sets
    // Lines 0 and 64 map to different sets; fill both sets fully.
    c.insert(0 * 64, 0, false);
    c.insert(2 * 64, 2, false);
    c.insert(1 * 64, 1, false);
    c.insert(3 * 64, 3, false);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_NE(c.peek(64), nullptr);
    EXPECT_NE(c.peek(128), nullptr);
    EXPECT_NE(c.peek(192), nullptr);
}

TEST(CacheArray, NonPowerOfTwoSetsMapByModulo)
{
    IntCache c(3 * 2 * 64, 2); // 3 sets x 2 ways
    ASSERT_EQ(c.sets(), 3u);
    c.insert(0 * 64, 0, false);
    c.insert(1 * 64, 1, false); // set 1: never in the conflict below
    c.insert(3 * 64, 3, false);
    const auto ev = c.insert(6 * 64, 6, false); // set 0 is now full
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u); // the LRU of lines 0, 3 and 6
    EXPECT_NE(c.peek(1 * 64), nullptr);
    EXPECT_NE(c.peek(3 * 64), nullptr);
    EXPECT_NE(c.peek(6 * 64), nullptr);
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(CacheArray, SetIndexMatchesModuloForEveryGeometry)
{
    // Direct-mapped arrays, so a second insert evicts the first iff
    // both lines share a set: power-of-two counts take the mask path,
    // the others the modulo path, and both must agree with %.
    const Addr lines[] = {0, 1, 2, 3, 5, 7, 8, 15, 16, 17, 31, 64, 96,
                          0x1'0000'0001ull, 0x3'ffff'ffffull};
    for (const std::size_t sets : {1u, 2u, 3u, 4u, 5u, 6u, 8u, 16u}) {
        for (const Addr a : lines) {
            for (const Addr b : lines) {
                if (a == b)
                    continue;
                IntCache c(sets * 64, 1);
                c.insert(a << lineShift, 1, false);
                const bool conflict = c.insert(b << lineShift, 2, false)
                                          .valid;
                EXPECT_EQ(conflict, a % sets == b % sets)
                    << sets << " sets, lines " << a << " and " << b;
            }
        }
    }
}

TEST(CacheArray, HoldsLinePayloads)
{
    CacheArray<BitVectorLine> c(4096, 4);
    BitVectorLine line;
    line.mask = 0xf0;
    line.data[0] = 7;
    c.insert(0x40, line, true);
    const BitVectorLine *got = c.peek(0x40);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->mask, 0xf0u);
    EXPECT_EQ(got->data[0], 7);
}

TEST(CacheStatsTest, MissRate)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
    s.hits = 3;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.25);
}

} // namespace
} // namespace califorms
