/**
 * @file test_cache_array.cc
 * Tests for the set-associative cache array: geometry and set mapping,
 * LRU replacement, dirty tracking, eviction reporting, the in-place
 * overwrite rules, and the insertInPlace primitive insert() wraps.
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

TEST(CacheArray, InsertInPlaceHandsOverTheVictimBeforeTheOverwrite)
{
    CacheArray<BitVectorLine> c(2 * 64, 2); // 1 set, 2 ways
    BitVectorLine old_line;
    old_line.mask = 0x3;
    old_line.data[5] = 0x55;
    c.insert(0, old_line, true);
    c.insert(64, BitVectorLine{}, false);
    ASSERT_TRUE(c.access(64)); // line 0 is now the LRU victim

    BitVectorLine new_line;
    new_line.data[9] = 0x99;
    int victims = 0;
    const auto ref = c.insertInPlace(
        128, false,
        [&](Addr victim, const BitVectorLine &payload, bool dirty) {
            ++victims;
            EXPECT_EQ(victim, 0u);
            EXPECT_TRUE(dirty);
            EXPECT_EQ(payload, old_line);
            // The way still holds the victim; the new line is not in.
            EXPECT_EQ(c.peek(0), &payload);
            EXPECT_EQ(c.peek(128), nullptr);
        },
        [&](BitVectorLine &way) {
            EXPECT_EQ(c.peek(0), nullptr); // the victim is gone
            way = new_line;
        });
    EXPECT_EQ(victims, 1);
    ASSERT_TRUE(ref);
    EXPECT_EQ(&*ref, c.peek(128));
    EXPECT_EQ(*ref, new_line);
    EXPECT_FALSE(c.dirtyAt(128));
    ref.markDirty();
    EXPECT_TRUE(c.dirtyAt(128));
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
    EXPECT_EQ(c.stats().cformEvictions, 1u);

    // Overwriting a resident line merges the dirty bit and evicts
    // nothing.
    const auto again = c.insertInPlace(
        128, false,
        [&](Addr, const BitVectorLine &, bool) { ++victims; },
        [&](BitVectorLine &way) { way.data[9] = 0x11; });
    EXPECT_EQ(victims, 1);
    EXPECT_EQ(&*again, &*ref);
    EXPECT_EQ(again->data[9], 0x11);
    EXPECT_TRUE(c.dirtyAt(128));
}

TEST(CacheArray, InsertMatchesInsertInPlace)
{
    // The same random stream through insert() and insertInPlace():
    // every victim, every counter and every resident line agree.
    CacheArray<BitVectorLine> a(4 * 2 * 64, 2); // 4 sets x 2 ways
    CacheArray<BitVectorLine> b(4 * 2 * 64, 2);
    std::uint64_t state = 12345;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int step = 0; step < 2000; ++step) {
        const Addr la = (next() % 24) * 64;
        BitVectorLine line;
        line.mask = next() % 3 == 0 ? next() : 0;
        line.data[0] = static_cast<std::uint8_t>(next());
        const bool dirty = next() % 2 == 0;
        if (next() % 4 == 0) {
            a.access(la);
            b.access(la);
        }
        const auto ev = a.insert(la, line, dirty);
        CacheArray<BitVectorLine>::Evicted got;
        const auto ref = b.insertInPlace(
            la, dirty,
            [&got](Addr victim, const BitVectorLine &payload, bool d) {
                got = {true, d, victim, payload};
            },
            [&line](BitVectorLine &way) { way = line; });
        ASSERT_EQ(ev.valid, got.valid) << "step " << step;
        EXPECT_EQ(ev.dirty, got.dirty);
        EXPECT_EQ(ev.lineAddr, got.lineAddr);
        EXPECT_EQ(ev.line, got.line);
        EXPECT_EQ(&*ref, b.peek(la));
        EXPECT_EQ(*a.peek(la), *ref);
        EXPECT_EQ(a.dirtyAt(la), b.dirtyAt(la));
    }
    EXPECT_GT(a.stats().evictions, 0u);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_EQ(a.stats().dirtyEvictions, b.stats().dirtyEvictions);
    EXPECT_EQ(a.stats().cformEvictions, b.stats().cformEvictions);
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
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
