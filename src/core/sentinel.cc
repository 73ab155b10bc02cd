#include "core/sentinel.hh"

#include <cassert>
#include <cstring>

namespace califorms
{

namespace
{

constexpr std::uint8_t low6Mask = 0x3f;

// SWAR constants for the branch-free sentinel scan: the line is viewed
// as eight little-endian 64-bit lanes and every byte is compared against
// the sentinel pattern in parallel (the software analogue of the
// Figure 9 comparator bank).
constexpr std::uint64_t repeat01 = 0x0101010101010101ull;
constexpr std::uint64_t repeat3f = 0x3f3f3f3f3f3f3f3full;
constexpr std::uint64_t repeat7f = 0x7f7f7f7f7f7f7f7full;
constexpr std::uint64_t repeat80 = 0x8080808080808080ull;
/** Gathers the per-byte 0x80 flags of a SWAR word into bits [56, 64). */
constexpr std::uint64_t gatherMul = 0x0102040810204080ull;

/** Number of header bytes for a given security byte count. */
constexpr unsigned
headerBytes(unsigned count)
{
    return count >= 4 ? 4u : count;
}

/** Read a 6-bit field starting at bit @p bit of the first four bytes. */
std::uint8_t
readBits6(const LineData &raw, unsigned bit)
{
    std::uint32_t word = 0;
    for (unsigned i = 0; i < 4; ++i)
        word |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
    return static_cast<std::uint8_t>((word >> bit) & low6Mask);
}

/** Lane @p w (bytes [8w, 8w+8)) of the line as a little-endian word. */
std::uint64_t
lane(const LineData &raw, unsigned w)
{
    // The SWAR flag gathering below maps byte i of the word to result
    // bit i, which is only the identity byte order on little-endian
    // hosts; fail the build rather than silently decode wrong masks.
    static_assert(std::endian::native == std::endian::little,
                  "SWAR sentinel scan assumes little-endian lanes; "
                  "byte-swap here before porting to big-endian");
    std::uint64_t v;
    std::memcpy(&v, raw.bytes.data() + 8 * w, sizeof v);
    return v;
}

/**
 * One flag bit per byte of @p word whose low 6 bits equal the pattern
 * broadcast in @p pattern01 (pattern * 0x0101...). Branch free: mask to
 * 6 bits, XOR with the broadcast, then detect zero bytes. Because every
 * masked byte is <= 0x3f the zero test is the exact carry-free form
 * ((x + 0x7f..) | x) — bit 7 of each byte is set iff the byte is
 * non-zero — with no cross-byte borrow to correct for.
 */
unsigned
matchLow6(std::uint64_t word, std::uint64_t pattern01)
{
    const std::uint64_t x = (word & repeat3f) ^ pattern01;
    const std::uint64_t nonzero = ((x + repeat7f) | x) & repeat80;
    const std::uint64_t zero = nonzero ^ repeat80;
    return static_cast<unsigned>(((zero >> 7) * gatherMul) >> 56);
}

/**
 * The 4+ case sentinel scan over bytes [4, 64) (Figure 9 wires the
 * comparators to bytes 4..63 only): one mask bit per byte whose low 6
 * bits equal @p sentinel.
 */
SecurityMask
sentinelScan(const LineData &raw, std::uint8_t sentinel)
{
    const std::uint64_t pattern01 = sentinel * repeat01;
    SecurityMask mask = 0;
    for (unsigned w = 0; w < lineBytes / 8; ++w)
        mask |= static_cast<SecurityMask>(matchLow6(lane(raw, w),
                                                    pattern01))
                << (8 * w);
    return mask & ~SecurityMask{0xf};
}

/** Full mask decode of a califormed line: header fields + 4+ scan. */
SecurityMask
decodeCaliformedMask(const LineData &raw)
{
    const unsigned code = raw[0] & 0x3;
    const unsigned hdr = code + 1;
    SecurityMask mask = 0;
    for (unsigned j = 0; j < hdr; ++j)
        mask |= 1ull << readBits6(raw, 2 + 6 * j);
    if (code == 3)
        mask |= sentinelScan(raw, readBits6(raw, 26));
    return mask;
}

/**
 * The deterministic relocation map shared by spill and fill: live header
 * bytes (header offsets that are not security bytes) pair in order with
 * the first free security byte slots at offsets >= the header size.
 * Derived straight from the mask with bit iteration — no allocation,
 * at most four pairs (the header is at most four bytes).
 */
struct Relocation
{
    std::uint8_t liveHeader[4]; //!< header offsets holding data
    std::uint8_t target[4];     //!< slots their data moves to
    unsigned n = 0;
};

Relocation
relocationMap(SecurityMask mask, unsigned hdr)
{
    Relocation r;
    std::uint64_t live = ~mask & bitRange(0, hdr);
    std::uint64_t targets = mask & ~bitRange(0, hdr);
    while (live) {
        assert(targets && "count >= hdr guarantees a slot per live byte");
        r.liveHeader[r.n] = static_cast<std::uint8_t>(findFirstOne(live));
        r.target[r.n] = static_cast<std::uint8_t>(findFirstOne(targets));
        live &= live - 1;
        targets &= targets - 1;
        ++r.n;
    }
    return r;
}

} // namespace

std::optional<std::uint8_t>
findSentinel(const BitVectorLine &line)
{
    if (line.mask == 0)
        return std::nullopt;
    // Build the used-values vector over normal bytes (Figure 8), then
    // find the first unused pattern. Normal bytes are visited by bit
    // iteration over the complement mask — no per-byte branch.
    std::uint64_t used = 0;
    for (std::uint64_t normal = ~line.mask; normal; normal &= normal - 1)
        used |= 1ull << (line.data[findFirstOne(normal)] & low6Mask);
    const unsigned free_idx = findFirstZero(used);
    assert(free_idx < 64 && "pigeonhole guarantees a free pattern");
    return static_cast<std::uint8_t>(free_idx);
}

bool
spillLine(const BitVectorLine &line, LineData &out)
{
    out = line.data;
    // Algorithm 1 lines 1-3: OR of the metadata decides the format.
    if (line.mask == 0)
        return false;

    const unsigned count = popcount64(line.mask);
    const unsigned hdr = headerBytes(count);
    const std::uint8_t sentinel = *findSentinel(line);

    // Relocate live header data into security slots beyond the header.
    const Relocation reloc = relocationMap(line.mask, hdr);
    for (unsigned i = 0; i < reloc.n; ++i)
        out[reloc.target[i]] = line.data[reloc.liveHeader[i]];

    // Every security byte past the hdr'th (position index >= hdr, only
    // possible in the 4+ case) holds the sentinel.
    {
        std::uint64_t rest = line.mask;
        for (unsigned skip = 0; skip < hdr; ++skip)
            rest &= rest - 1;
        for (; rest; rest &= rest - 1)
            out[findFirstOne(rest)] = sentinel;
    }

    // Assemble the header bitstream (Figure 7): 2-bit count code then
    // 6-bit addresses, and for 4+ security bytes the sentinel.
    std::uint32_t word = count >= 4 ? 3u : count - 1;
    unsigned bit = 2;
    std::uint64_t remaining = line.mask;
    for (unsigned j = 0; j < hdr; ++j, bit += 6) {
        word |= static_cast<std::uint32_t>(findFirstOne(remaining))
                << bit;
        remaining &= remaining - 1;
    }
    if (count >= 4)
        word |= static_cast<std::uint32_t>(sentinel) << 26;
    for (unsigned j = 0; j < hdr; ++j)
        out[j] = static_cast<std::uint8_t>((word >> (8 * j)) & 0xff);
    return true;
}

void
spillLine(const BitVectorLine &line, SentinelLine &out)
{
    out.califormed = spillLine(line, out.raw);
    // The encoder knows the mask it encoded: keep it as the memo, so
    // the fill side never re-derives it.
    out.maskCached = true;
    out.cachedMask = line.mask;
}

void
fillLine(SentinelView line, BitVectorLine &out)
{
    const LineData &raw = *line.data;
    // Algorithm 2 lines 1-3.
    if (!line.califormed()) {
        out.data = raw;
        out.mask = 0;
        return;
    }
    assert(line.mask == decodeCaliformedMask(raw) &&
           "SentinelView mask disagrees with its encoding");

    const unsigned hdr = (raw[0] & 0x3) + 1;
    out.mask = line.mask;
    out.data = raw;

    // Undo the relocation; the map is reconstructed from the mask alone.
    const Relocation reloc = relocationMap(line.mask, hdr);
    for (unsigned i = 0; i < reloc.n; ++i)
        out.data[reloc.liveHeader[i]] = raw[reloc.target[i]];

    // Security bytes read as zero (Algorithm 2 line 10).
    out.canonicalize();
}

SecurityMask
decodeMask(const SentinelLine &line)
{
    if (!line.califormed)
        return 0;
    if (line.maskCached)
        return line.cachedMask;
    return decodeCaliformedMask(line.raw);
}

SentinelView
SentinelLine::view() const
{
    return SentinelView{&raw, decodeMask(*this)};
}

} // namespace califorms
