/**
 * @file test_policy.cc
 * Tests for the security byte insertion policies (Section 2 / Listing 1
 * / Section 6.2): opportunistic harvesting, full and intelligent random
 * insertion, the fixed-size variant for Figure 4, and the structural
 * invariants every policy must preserve.
 */

#include <gtest/gtest.h>

#include "layout/policy.hh"
#include "util/types.hh"

namespace califorms
{
namespace
{

StructDefPtr
listingOneStruct()
{
    return std::make_shared<StructDef>(
        "A", std::vector<Field>{{"c", Type::charType()},
                                {"i", Type::intType()},
                                {"buf", Type::array(Type::charType(), 64)},
                                {"fp", Type::functionPointer()},
                                {"d", Type::doubleType()}});
}

/** Check the invariants every secure layout must satisfy. */
void
checkStructuralInvariants(const StructDef &def, const SecureLayout &sl)
{
    // Field order and sizes preserved.
    ASSERT_EQ(sl.fields.size(), def.fields().size());
    for (std::size_t i = 0; i < sl.fields.size(); ++i) {
        EXPECT_EQ(sl.fields[i].index, i);
        EXPECT_EQ(sl.fields[i].size, def.fields()[i].type->size());
        EXPECT_EQ(sl.fields[i].offset % def.fields()[i].type->align(),
                  0u);
        if (i > 0) {
            EXPECT_GE(sl.fields[i].offset,
                      sl.fields[i - 1].offset + sl.fields[i - 1].size);
        }
    }
    // Security spans never overlap fields.
    for (const auto &f : sl.fields)
        for (std::size_t b = f.offset; b < f.offset + f.size; ++b)
            EXPECT_FALSE(sl.isSecurityByte(b))
                << "security byte inside field at " << b;
    // Spans are in range.
    for (const auto &s : sl.securityBytes)
        EXPECT_LE(s.offset + s.size, sl.size);
    // Size is a multiple of alignment.
    EXPECT_EQ(sl.size % sl.align, 0u);
}

TEST(NonePolicy, IdentityLayout)
{
    auto def = listingOneStruct();
    LayoutTransformer t(InsertionPolicy::None, {}, 1);
    const SecureLayout sl = t.transform(*def);
    EXPECT_EQ(sl.size, def->size());
    EXPECT_TRUE(sl.securityBytes.empty());
    checkStructuralInvariants(*def, sl);
}

TEST(OpportunisticPolicy, HarvestsExistingPaddingOnly)
{
    auto def = listingOneStruct();
    LayoutTransformer t(InsertionPolicy::Opportunistic, {}, 1);
    const SecureLayout sl = t.transform(*def);
    // sizeof unchanged — ABI compatible (Section 6.2).
    EXPECT_EQ(sl.size, def->size());
    // Field offsets unchanged.
    for (std::size_t i = 0; i < sl.fields.size(); ++i)
        EXPECT_EQ(sl.fields[i].offset, def->layout().fields[i].offset);
    // Exactly the compiler padding becomes security bytes: 3B after c.
    EXPECT_EQ(sl.securityByteCount(), 3u);
    EXPECT_TRUE(sl.isSecurityByte(1));
    EXPECT_TRUE(sl.isSecurityByte(3));
    EXPECT_FALSE(sl.isSecurityByte(0));
    EXPECT_FALSE(sl.isSecurityByte(4));
    checkStructuralInvariants(*def, sl);
}

TEST(OpportunisticPolicy, PackedStructGetsNothing)
{
    StructDef packed("p", {{"a", Type::longType()},
                           {"b", Type::longType()}});
    LayoutTransformer t(InsertionPolicy::Opportunistic, {}, 1);
    EXPECT_EQ(t.transform(packed).securityByteCount(), 0u);
}

TEST(FullPolicy, EveryGapProtected)
{
    auto def = listingOneStruct();
    PolicyParams params;
    params.minSpan = 1;
    params.maxSpan = 7;
    LayoutTransformer t(InsertionPolicy::Full, params, 99);
    const SecureLayout sl = t.transform(*def);
    checkStructuralInvariants(*def, sl);
    EXPECT_GT(sl.size, def->size());
    // A span before the first field, after the last field, and between
    // every adjacent pair: first field cannot sit at offset 0.
    EXPECT_GT(sl.fields[0].offset, 0u);
    EXPECT_TRUE(sl.isSecurityByte(sl.size - 1) ||
                sl.isSecurityByte(sl.size - 2));
    for (std::size_t i = 1; i < sl.fields.size(); ++i) {
        bool gap_protected = false;
        for (std::size_t b = sl.fields[i - 1].offset +
                             sl.fields[i - 1].size;
             b < sl.fields[i].offset; ++b)
            gap_protected |= sl.isSecurityByte(b);
        EXPECT_TRUE(gap_protected) << "gap before field " << i;
    }
}

TEST(FullPolicy, RandomSpansWithinBounds)
{
    StructDef two("two", {{"a", Type::longType()},
                          {"b", Type::longType()}});
    PolicyParams params;
    params.minSpan = 2;
    params.maxSpan = 5;
    LayoutTransformer t(InsertionPolicy::Full, params, 5);
    for (int trial = 0; trial < 50; ++trial) {
        const SecureLayout sl = t.transform(two);
        // Both fields are 8-aligned, so spans round to 8; the requested
        // span is 2..5 and alignment slack is absorbed into the span.
        for (const auto &s : sl.securityBytes) {
            EXPECT_GE(s.size, params.minSpan);
            EXPECT_LE(s.size, roundUp(params.maxSpan, 8));
        }
    }
}

TEST(FullPolicy, DifferentSeedsGiveDifferentLayouts)
{
    auto def = listingOneStruct();
    PolicyParams params;
    params.maxSpan = 7;
    LayoutTransformer t1(InsertionPolicy::Full, params, 1);
    LayoutTransformer t2(InsertionPolicy::Full, params, 2);
    const SecureLayout a = t1.transform(*def);
    const SecureLayout b = t2.transform(*def);
    bool differs = a.size != b.size;
    for (std::size_t i = 0; !differs && i < a.fields.size(); ++i)
        differs = a.fields[i].offset != b.fields[i].offset;
    EXPECT_TRUE(differs);
}

TEST(FullPolicy, SameSeedIsDeterministic)
{
    auto def = listingOneStruct();
    PolicyParams params;
    params.maxSpan = 7;
    LayoutTransformer t1(InsertionPolicy::Full, params, 31);
    LayoutTransformer t2(InsertionPolicy::Full, params, 31);
    const SecureLayout a = t1.transform(*def);
    const SecureLayout b = t2.transform(*def);
    EXPECT_EQ(a.size, b.size);
    for (std::size_t i = 0; i < a.fields.size(); ++i)
        EXPECT_EQ(a.fields[i].offset, b.fields[i].offset);
}

TEST(IntelligentPolicy, ProtectsArraysAndPointers)
{
    auto def = listingOneStruct();
    PolicyParams params;
    params.maxSpan = 3;
    LayoutTransformer t(InsertionPolicy::Intelligent, params, 17);
    const SecureLayout sl = t.transform(*def);
    checkStructuralInvariants(*def, sl);

    // buf (index 2) and fp (index 3) are overflowable: bytes just
    // before buf, between buf and fp, and just after fp are protected
    // (Listing 1(d)).
    const auto &buf = sl.fields[2];
    const auto &fp = sl.fields[3];
    EXPECT_TRUE(sl.isSecurityByte(buf.offset - 1));
    EXPECT_TRUE(sl.isSecurityByte(buf.offset + buf.size));
    EXPECT_TRUE(sl.isSecurityByte(fp.offset - 1));
    EXPECT_TRUE(sl.isSecurityByte(fp.offset + fp.size));
}

TEST(IntelligentPolicy, ScalarOnlyStructGetsNothing)
{
    StructDef s("scalars", {{"a", Type::intType()},
                            {"b", Type::doubleType()},
                            {"c", Type::shortType()}});
    PolicyParams params;
    LayoutTransformer t(InsertionPolicy::Intelligent, params, 3);
    const SecureLayout sl = t.transform(s);
    EXPECT_EQ(sl.securityByteCount(), 0u);
    // And sizeof may only change by tail alignment, which is zero here.
    EXPECT_EQ(sl.size, s.size());
}

TEST(IntelligentPolicy, CheaperThanFull)
{
    auto def = listingOneStruct();
    PolicyParams params;
    params.maxSpan = 7;
    LayoutTransformer full(InsertionPolicy::Full, params, 8);
    LayoutTransformer intel(InsertionPolicy::Intelligent, params, 8);
    EXPECT_LE(intel.transform(*def).securityByteCount(),
              full.transform(*def).securityByteCount());
    EXPECT_LE(intel.transform(*def).size, full.transform(*def).size);
}

class FixedPaddingSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FixedPaddingSweep, FullFixedUsesExactSpan)
{
    // The Figure 4 experiment pads every field with a fixed size.
    const std::size_t pad = GetParam();
    StructDef s("chars", {{"a", Type::charType()},
                          {"b", Type::charType()},
                          {"c", Type::charType()}});
    PolicyParams params;
    params.fixedSpan = pad;
    LayoutTransformer t(InsertionPolicy::FullFixed, params, 1);
    const SecureLayout sl = t.transform(s);
    // char fields have alignment 1: every gap is exactly `pad` bytes.
    ASSERT_EQ(sl.securityBytes.size(), 4u); // before a, b, c + tail
    for (const auto &span : sl.securityBytes)
        EXPECT_EQ(span.size, pad);
    EXPECT_EQ(sl.size, 3 + 4 * pad);
}

INSTANTIATE_TEST_SUITE_P(OneToSevenBytes, FixedPaddingSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7));

TEST(PolicyNames, AllDistinct)
{
    EXPECT_EQ(policyName(InsertionPolicy::None), "none");
    EXPECT_EQ(policyName(InsertionPolicy::Opportunistic),
              "opportunistic");
    EXPECT_EQ(policyName(InsertionPolicy::Full), "full");
    EXPECT_EQ(policyName(InsertionPolicy::Intelligent), "intelligent");
    EXPECT_EQ(policyName(InsertionPolicy::FullFixed), "full-fixed");
}

TEST(PolicyParamsValidation, RejectsBadSpanRange)
{
    PolicyParams bad;
    bad.minSpan = 0;
    EXPECT_THROW(LayoutTransformer(InsertionPolicy::Full, bad, 1),
                 std::invalid_argument);
    bad.minSpan = 5;
    bad.maxSpan = 3;
    EXPECT_THROW(LayoutTransformer(InsertionPolicy::Full, bad, 1),
                 std::invalid_argument);
}

} // namespace
} // namespace califorms
