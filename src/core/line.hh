/**
 * @file line.hh
 * Cache line representations used throughout the memory hierarchy.
 *
 * Two formats exist (Figure 1):
 *  - BitVectorLine: the L1 resident format (califorms-bitvector,
 *    Section 5.1). Data is stored naturally; a 64-bit vector marks which
 *    bytes are security bytes. 8B of metadata per 64B line.
 *  - SentinelLine: the L2-and-beyond format (califorms-sentinel,
 *    Section 5.2). One metadata bit says whether the line is califormed;
 *    if so, the security byte locations are encoded inside the line
 *    itself using the header + sentinel scheme of Figure 7.
 *
 * The library keeps BitVectorLine canonical: a security byte's data slot
 * always reads zero. CFORM zeroes bytes when blacklisting them and the
 * fill conversion restores zeros, matching the paper's side-channel
 * hardening (loads of security bytes return 0, Section 7.2) and the
 * zero-on-free policy (Section 6.1).
 */

#ifndef CALIFORMS_CORE_LINE_HH
#define CALIFORMS_CORE_LINE_HH

#include <array>
#include <cstdint>

#include "util/bitops.hh"
#include "util/types.hh"

namespace califorms
{

/** Bit i set means byte i of the line is a security byte. */
using SecurityMask = std::uint64_t;

/** Raw 64-byte payload of a cache line. */
struct LineData
{
    std::array<std::uint8_t, lineBytes> bytes{};

    std::uint8_t &operator[](std::size_t i) { return bytes[i]; }
    const std::uint8_t &operator[](std::size_t i) const { return bytes[i]; }

    bool operator==(const LineData &other) const = default;
};

/**
 * L1 resident line: natural data plus a per-byte security bit vector
 * (califorms-bitvector, Figure 5).
 */
struct BitVectorLine
{
    LineData data;
    SecurityMask mask = 0;

    bool califormed() const { return mask != 0; }
    bool isSecurityByte(unsigned i) const { return testBit(mask, i); }

    /**
     * True if the canonical-form invariant holds: every security byte's
     * data slot is zero.
     */
    bool canonical() const;

    /** Zero the data under every security byte (restore canonical form). */
    void canonicalize();

    /** Zero data byte i for every bit i set in @p bytes (one 64-bit
     *  lane store per lane that holds a selected byte). */
    void zeroBytes(std::uint64_t bytes);

    bool operator==(const BitVectorLine &other) const = default;
};

struct SentinelView;

/**
 * L2+/memory resident line: encoded payload plus the single califormed
 * metadata bit (stored in spare ECC bits once in DRAM, Section 3). This
 * is the owned form of a line away from the store: write-back queue
 * entries, coherence surrenders and recall handoffs, and functional
 * reads and writes (SharedMemory::functionalRead/functionalWrite).
 * MainMemory keeps no SentinelLine; it splits each line into planes and
 * hands out SentinelViews.
 *
 * The decoded security mask is memoized alongside the machine state:
 * the spill conversion already knows the mask it encoded, so carrying
 * it lets the fill conversion and the timing model skip the header
 * decode + sentinel scan (a pure simulator-speed cache, not part of
 * the architectural line — it never affects results and is ignored by
 * equality). Code that rebuilds @c raw by hand (tests) simply
 * leaves @c maskCached false and pays the full decode, once: view()
 * decodes, and MainMemory::writeLine keeps the decoded mask.
 */
struct SentinelLine
{
    LineData raw;
    bool califormed = false;
    /** True when @c cachedMask mirrors the encoded metadata. */
    bool maskCached = false;
    /** Memoized decodeMask() result, valid iff @c maskCached. */
    SecurityMask cachedMask = 0;

    /** This line as a view, its mask decoded unless memoized
     *  (sentinel.cc: the decoder lives with the codec). */
    SentinelView view() const;

    bool
    operator==(const SentinelLine &other) const
    {
        // The memo is a simulator-side cache; only the architectural
        // state (payload + ECC bit) defines line identity.
        return raw == other.raw && califormed == other.califormed;
    }
};

/**
 * A sentinel-format line read in place: its encoded payload and its
 * decoded security mask. MainMemory::peek points @c data into its data
 * plane; a view stays valid until that line is next written.
 *
 * The califormed (ECC) bit is the mask's OR, as Algorithm 1 decides it:
 * a califormed line has at least one security byte, and an uncaliformed
 * one reads mask 0. Two words, so a view is passed and returned in
 * registers.
 */
struct SentinelView
{
    const LineData *data = nullptr;
    SecurityMask mask = 0;

    bool califormed() const { return mask != 0; }

    /** An owned copy, the mask carried as its memo. */
    SentinelLine
    copy() const
    {
        return SentinelLine{*data, califormed(), true, mask};
    }
};

} // namespace califorms

#endif // CALIFORMS_CORE_LINE_HH
