/**
 * @file sentinel.hh
 * The califorms-sentinel codec: conversion between the L1 bit vector
 * format and the one-bit-per-line L2+ format (Section 5.2, Figures 7-9,
 * Algorithms 1 and 2).
 *
 * Encoding recap (Figure 7). A califormed 64B line stores its metadata in
 * the first min(count, 4) bytes:
 *
 *   bits [0:2) of byte 0   count code: 00,01,10,11 -> 1,2,3,4+ security
 *                          bytes
 *   6-bit fields following Addr0..Addr_{k-1}: locations of the first
 *                          k = min(count, 4) security bytes, ascending
 *   (code 11 only) 6 bits  the sentinel pattern; every security byte past
 *                          the fourth holds a byte whose low 6 bits equal
 *                          the sentinel
 *
 * The original data of the header bytes that were *not* security bytes is
 * relocated into the security byte slots at offsets >= the header size
 * (those slots hold no data). The sentinel is chosen as a 6-bit pattern
 * absent from the low 6 bits of every normal byte; with at least one
 * security byte there are at most 63 normal bytes, so a free pattern
 * always exists (the pigeonhole argument of Section 5.2).
 *
 * Implementation notes (this is the hierarchy's hottest path — every
 * miss and write-back of a califormed line runs through it): the codec
 * is allocation-free (fixed four-pair relocation map derived from the
 * mask by bit iteration), the 4+ sentinel scan is branch-free SWAR over
 * eight 64-bit lanes (the software analogue of the Figure 9 comparator
 * bank), and the header decode runs at most once per encoded line: the
 * spill already knows the mask it encoded, so it travels with the line
 * (as a SentinelLine's memo, or in MainMemory's mask plane), and
 * fillLine reads it from a SentinelView instead of re-deriving it. Both
 * conversions write into a line the caller names (the hierarchy passes
 * the L1 way, store data slot or queue entry the result lives in); the
 * by-value forms wrap them.
 */

#ifndef CALIFORMS_CORE_SENTINEL_HH
#define CALIFORMS_CORE_SENTINEL_HH

#include <optional>

#include "core/line.hh"

namespace califorms
{

/**
 * Find the sentinel for @p line: the smallest 6-bit pattern not present
 * in the low 6 bits of any normal (non security) byte. Returns
 * std::nullopt iff the line has no security byte (mask == 0), in which
 * case no sentinel is needed.
 */
std::optional<std::uint8_t> findSentinel(const BitVectorLine &line);

/**
 * Algorithm 1 — spill: convert an L1 line to the L2+ sentinel format,
 * writing the encoded payload into @p out (a store data slot, so the
 * line is built where it is kept) and returning the califormed bit.
 * Lines without security bytes are copied verbatim with the bit clear.
 * The encoded line's decoded mask is @p line.mask.
 */
bool spillLine(const BitVectorLine &line, LineData &out);

/** spillLine into an owned line (a queue entry or a surrender), with
 *  @p line.mask as its memo. */
void spillLine(const BitVectorLine &line, SentinelLine &out);

/** spillLine into a new line. */
inline SentinelLine
spillLine(const BitVectorLine &line)
{
    SentinelLine out;
    spillLine(line, out);
    return out;
}

/**
 * Algorithm 2 — fill: convert an L2+ line back to the L1 bit vector
 * format, writing every field of @p out (an L1 way, so the decoded line
 * is built where it is kept). The view carries the decoded mask, so
 * only the relocation is undone here. Security byte data slots read
 * zero after conversion. Exact inverse of spillLine on canonical lines.
 */
void fillLine(SentinelView line, BitVectorLine &out);

/** fillLine into a new line. */
inline BitVectorLine
fillLine(SentinelView line)
{
    BitVectorLine out;
    fillLine(line, out);
    return out;
}

/** fillLine of an owned line, through its view. */
inline BitVectorLine
fillLine(const SentinelLine &line)
{
    return fillLine(line.view());
}

/**
 * Critical-word-first support (Section 5.2): the security byte locations
 * can be recovered from the first 4 bytes plus, for the 4+ case, a scan
 * of whatever flits have arrived. This helper decodes only the mask
 * without touching data relocation; used by the timing model and tested
 * against fillLine. Served from the memo when the line carries one.
 */
SecurityMask decodeMask(const SentinelLine &line);

} // namespace califorms

#endif // CALIFORMS_CORE_SENTINEL_HH
