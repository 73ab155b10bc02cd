/**
 * @file test_layout.cc
 * Tests for the C type model and layout engine: alignment rules,
 * padding discovery (the raw material of the opportunistic policy),
 * density computation, and the Listing 1 example from the paper.
 */

#include <gtest/gtest.h>

#include "layout/density.hh"
#include "layout/type.hh"

namespace califorms
{
namespace
{

TEST(TypeModel, ScalarSizesAndAlignment)
{
    EXPECT_EQ(Type::charType()->size(), 1u);
    EXPECT_EQ(Type::shortType()->align(), 2u);
    EXPECT_EQ(Type::intType()->size(), 4u);
    EXPECT_EQ(Type::longType()->align(), 8u);
    EXPECT_EQ(Type::doubleType()->size(), 8u);
    EXPECT_EQ(Type::pointer()->size(), 8u);
    EXPECT_EQ(Type::functionPointer()->size(), 8u);
}

TEST(TypeModel, ArrayComposition)
{
    auto arr = Type::array(Type::intType(), 10);
    EXPECT_EQ(arr->size(), 40u);
    EXPECT_EQ(arr->align(), 4u);
    EXPECT_EQ(arr->name(), "int[10]");
    EXPECT_THROW(Type::array(nullptr, 3), std::invalid_argument);
    EXPECT_THROW(Type::array(Type::intType(), 0), std::invalid_argument);
}

TEST(TypeModel, Overflowability)
{
    EXPECT_TRUE(Type::pointer()->overflowable());
    EXPECT_TRUE(Type::functionPointer()->overflowable());
    EXPECT_TRUE(Type::array(Type::charType(), 4)->overflowable());
    EXPECT_FALSE(Type::intType()->overflowable());
    EXPECT_FALSE(Type::doubleType()->overflowable());
}

TEST(LayoutEngine, ListingOneExample)
{
    // struct A { char c; int i; char buf[64]; void (*fp)(); double d; }
    // The compiler inserts 3 bytes between c and i (Listing 1(b)).
    StructDef a("A", {{"c", Type::charType()},
                      {"i", Type::intType()},
                      {"buf", Type::array(Type::charType(), 64)},
                      {"fp", Type::functionPointer()},
                      {"d", Type::doubleType()}});
    const StructLayout &l = a.layout();
    EXPECT_EQ(l.fields[0].offset, 0u);
    EXPECT_EQ(l.fields[1].offset, 4u);  // after 3B padding
    EXPECT_EQ(l.fields[2].offset, 8u);
    EXPECT_EQ(l.fields[3].offset, 72u); // buf ends at 72, aligned
    EXPECT_EQ(l.fields[4].offset, 80u);
    EXPECT_EQ(l.size, 88u);
    EXPECT_EQ(l.align, 8u);
    ASSERT_EQ(l.paddings.size(), 1u);
    EXPECT_EQ(l.paddings[0].offset, 1u);
    EXPECT_EQ(l.paddings[0].size, 3u);
}

TEST(LayoutEngine, TailPadding)
{
    StructDef s("s", {{"d", Type::doubleType()},
                      {"c", Type::charType()}});
    EXPECT_EQ(s.size(), 16u);
    ASSERT_EQ(s.layout().paddings.size(), 1u);
    EXPECT_EQ(s.layout().paddings[0].offset, 9u);
    EXPECT_EQ(s.layout().paddings[0].size, 7u);
}

TEST(LayoutEngine, PackedStructHasNoPadding)
{
    StructDef s("packed", {{"a", Type::intType()},
                           {"b", Type::intType()},
                           {"c", Type::intType()}});
    EXPECT_EQ(s.size(), 12u);
    EXPECT_TRUE(s.layout().paddings.empty());
    EXPECT_DOUBLE_EQ(s.layout().density(), 1.0);
}

TEST(LayoutEngine, OffsetsRespectAlignment)
{
    StructDef s("mixed", {{"c", Type::charType()},
                          {"s", Type::shortType()},
                          {"c2", Type::charType()},
                          {"l", Type::longType()},
                          {"f", Type::floatType()}});
    for (const auto &f : s.layout().fields) {
        const auto &type = s.fields()[f.index].type;
        EXPECT_EQ(f.offset % type->align(), 0u) << f.index;
    }
    EXPECT_EQ(s.size() % s.align(), 0u);
}

TEST(LayoutEngine, FieldsDoNotOverlap)
{
    StructDef s("mix", {{"a", Type::charType()},
                        {"b", Type::doubleType()},
                        {"c", Type::shortType()},
                        {"d", Type::array(Type::charType(), 5)},
                        {"e", Type::intType()}});
    const auto &fields = s.layout().fields;
    for (std::size_t i = 1; i < fields.size(); ++i)
        EXPECT_GE(fields[i].offset,
                  fields[i - 1].offset + fields[i - 1].size);
}

TEST(LayoutEngine, PaddingPlusFieldsEqualsSize)
{
    StructDef s("sum", {{"c", Type::charType()},
                        {"i", Type::intType()},
                        {"c2", Type::charType()},
                        {"d", Type::doubleType()}});
    std::size_t covered = s.layout().paddingBytes();
    for (const auto &f : s.layout().fields)
        covered += f.size;
    EXPECT_EQ(covered, s.size());
}

TEST(LayoutEngine, NestedStructAlignment)
{
    auto inner = std::make_shared<StructDef>(
        "inner", std::vector<Field>{{"d", Type::doubleType()},
                                    {"c", Type::charType()}});
    StructDef outer("outer", {{"flag", Type::charType()},
                              {"in", Type::structure(inner)}});
    EXPECT_EQ(outer.align(), 8u);
    EXPECT_EQ(outer.layout().fields[1].offset, 8u);
    EXPECT_EQ(outer.size(), 24u);
}

TEST(LayoutEngine, DensityDefinition)
{
    // Section 2: density = sum of field sizes / total size.
    StructDef s("dense", {{"c", Type::charType()},
                          {"i", Type::intType()}});
    // 5 field bytes in an 8 byte struct.
    EXPECT_DOUBLE_EQ(s.layout().density(), 5.0 / 8.0);
}

TEST(LayoutEngine, RejectsNullFieldType)
{
    EXPECT_THROW(computeLayout({{"bad", nullptr}}),
                 std::invalid_argument);
}

TEST(DensityPass, CountsPaddedStructs)
{
    auto padded = std::make_shared<StructDef>(
        "p", std::vector<Field>{{"c", Type::charType()},
                                {"i", Type::intType()}});
    auto packed = std::make_shared<StructDef>(
        "q", std::vector<Field>{{"i", Type::intType()},
                                {"j", Type::intType()}});
    const DensityReport report = analyzeDensity({padded, packed, padded});
    EXPECT_EQ(report.structCount, 3u);
    EXPECT_EQ(report.paddedCount, 2u);
    EXPECT_NEAR(report.paddedFraction(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(report.totalPaddingBytes, 6u);
}

TEST(DensityPass, HistogramPlacesPackedInLastBin)
{
    auto packed = std::make_shared<StructDef>(
        "q", std::vector<Field>{{"i", Type::intType()}});
    const DensityReport report = analyzeDensity({packed});
    EXPECT_EQ(report.histogram.binCount(9), 1u);
}

} // namespace
} // namespace califorms
