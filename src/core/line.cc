#include "core/line.hh"

#include <cstring>

namespace califorms
{

namespace
{

/** Byte k of the result is 0xff iff bit k of @p bits is set: spread bit
 *  k into byte k, then widen every non-zero byte to 0xff (each byte is
 *  at most 0x80, so the carry-free non-zero test is exact). */
constexpr std::uint64_t
byteMask(std::uint64_t bits)
{
    std::uint64_t x = ((bits & 0xff) * 0x0101010101010101ull) &
                      0x8040201008040201ull;
    x = ((x + 0x7f7f7f7f7f7f7f7full) | x) & 0x8080808080808080ull;
    return (x >> 7) * 0xff;
}

static_assert(byteMask(0x00) == 0);
static_assert(byteMask(0x01) == 0xffull);
static_assert(byteMask(0x81) == 0xff000000000000ffull);
static_assert(byteMask(0xff) == ~0ull);

} // namespace

void
BitVectorLine::zeroBytes(std::uint64_t bytes)
{
    // Byte k of a lane is data[8w + k] only on little-endian hosts.
    static_assert(std::endian::native == std::endian::little,
                  "lane-wise zeroing assumes little-endian lanes");
    // Visit only the lanes with a selected byte: a CFORM mask usually
    // covers one lane.
    while (bytes) {
        const unsigned shift = findFirstOne(bytes) & ~7u;
        std::uint8_t *const lane = data.bytes.data() + shift;
        std::uint64_t v;
        std::memcpy(&v, lane, sizeof v);
        v &= ~byteMask(bytes >> shift);
        std::memcpy(lane, &v, sizeof v);
        bytes &= ~(std::uint64_t{0xff} << shift);
    }
}

bool
BitVectorLine::canonical() const
{
    BitVectorLine zeroed = *this;
    zeroed.canonicalize();
    return zeroed.data == data;
}

void
BitVectorLine::canonicalize()
{
    zeroBytes(mask);
}

} // namespace califorms
