/**
 * @file test_secure_mem.cc
 * Whitelisted memcpy: struct copies across califormed layouts must
 * succeed without delivered exceptions, while the destination
 * blacklist survives and its security bytes stay zero (Sections 4.2
 * and 6.3).
 */

#include <gtest/gtest.h>

#include "alloc/heap.hh"
#include "alloc/secure_mem.hh"

namespace califorms
{
namespace
{

struct Harness
{
    Machine machine;
    HeapAllocator heap;

    Harness() : machine(), heap(machine) {}
};

std::shared_ptr<const SecureLayout>
fullLayout(std::uint64_t seed = 5)
{
    auto def = std::make_shared<StructDef>(
        "s", std::vector<Field>{{"a", Type::intType()},
                                {"buf", Type::array(Type::charType(), 12)},
                                {"b", Type::longType()}});
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{}, seed);
    return std::make_shared<SecureLayout>(t.transform(*def));
}

TEST(SecureMemcpy, StructToStructAssignment)
{
    // The Section 6.3 scenario: a struct-to-struct assignment sweeps
    // security bytes; whitelisting suppresses the exceptions.
    Harness h;
    const auto layout = fullLayout();
    const Addr src = h.heap.allocate(layout);
    const Addr dst = h.heap.allocate(layout);

    // Fill the source fields with recognizable data.
    for (std::size_t i = 0; i < layout->fields.size(); ++i) {
        const auto &f = layout->fields[i];
        h.machine.store(src + f.offset,
                        static_cast<unsigned>(std::min<std::size_t>(
                            f.size, 8)),
                        0x1010101010101010ull * (i + 1));
    }

    secureMemcpy(h.machine, dst, src, layout->size);

    // Nothing delivered; sweeps over spans recorded as suppressed.
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
    EXPECT_GT(h.machine.exceptions().suppressedCount(), 0u);

    // Field data copied.
    for (std::size_t i = 0; i < layout->fields.size(); ++i) {
        const auto &f = layout->fields[i];
        const auto size =
            static_cast<unsigned>(std::min<std::size_t>(f.size, 8));
        EXPECT_EQ(h.machine.load(dst + f.offset, size),
                  h.machine.load(src + f.offset, size));
    }

    // Destination blacklist intact: a plain load into a span still traps.
    h.machine.load(dst + layout->securityBytes.front().offset, 1);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 1u);
}

TEST(SecureMemcpy, SourceSecurityBytesReadAsZero)
{
    Harness h;
    const auto layout = fullLayout();
    const Addr src = h.heap.allocate(layout);
    const Addr dst = h.heap.allocateRaw(layout->size);
    secureMemcpy(h.machine, dst, src, layout->size);
    // Destination bytes under source spans received zero.
    for (const auto &span : layout->securityBytes)
        for (std::size_t i = 0; i < span.size; ++i)
            EXPECT_EQ(h.machine.peekByte(dst + span.offset + i), 0u);
}

TEST(SecureMemcpy, BetweenTwoLayoutsKeepsTheDestinationMask)
{
    // Two random layouts of one struct: the copy carries data onto
    // data, writes zero where the source has a security byte, and
    // drops what lands on a destination security byte, so every byte
    // that is a security byte on either side reads zero, before and
    // after the lines leave the L1.
    Harness h;
    const auto from = fullLayout(5);
    const auto to = fullLayout(11);
    const Addr src = h.heap.allocate(from);
    const Addr dst = h.heap.allocate(to);
    const std::size_t n = std::min(from->size, to->size);
    for (std::size_t i = 0; i < from->size; ++i)
        if (!from->isSecurityByte(i))
            h.machine.pokeByte(src + i, static_cast<std::uint8_t>(i + 1));

    std::size_t dataOntoSecurity = 0, securityOntoData = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool was = from->isSecurityByte(i);
        const bool is = to->isSecurityByte(i);
        dataOntoSecurity += !was && is;
        securityOntoData += was && !is;
    }
    ASSERT_GT(dataOntoSecurity, 0u);
    ASSERT_GT(securityOntoData, 0u);

    secureMemcpy(h.machine, dst, src, n);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
    EXPECT_GT(h.machine.exceptions().suppressedCount(), 0u);

    for (const bool flushed : {false, true}) {
        SCOPED_TRACE(flushed ? "after flushAll" : "L1-resident");
        for (std::size_t i = 0; i < n; ++i) {
            const Addr a = dst + i;
            const bool security =
                from->isSecurityByte(i) || to->isSecurityByte(i);
            EXPECT_EQ(h.machine.peekByte(a),
                      security ? 0u : static_cast<std::uint8_t>(i + 1))
                << "byte " << i;
            EXPECT_EQ((h.machine.securityMask(a) >> lineOffset(a)) & 1,
                      to->isSecurityByte(i) ? 1u : 0u)
                << "byte " << i;
        }
        h.machine.flushAll();
    }
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(SecureMemcpy, LineCrossingCopy)
{
    Harness h;
    const Addr src = h.heap.allocateRaw(200);
    const Addr dst = h.heap.allocateRaw(200);
    for (unsigned i = 0; i < 200; ++i)
        h.machine.store(src + i, 1, i & 0xff);
    secureMemcpy(h.machine, dst, src, 200);
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_EQ(h.machine.load(dst + i, 1), i & 0xffu);
}

} // namespace
} // namespace califorms
