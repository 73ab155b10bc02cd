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
 * bank), and spillLine memoizes the decoded mask in the SentinelLine so
 * fillLine/decodeMask skip the header decode entirely on the common
 * spill-then-fill round trip. Both conversions write into a line the
 * caller names (the hierarchy passes the L1 way, store slot or queue
 * entry the result lives in); the by-value forms wrap them.
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
 * writing every field of @p out (a store slot or queue entry, so the
 * encoded line is built where it is kept). Lines without security
 * bytes are copied verbatim with the califormed bit clear.
 */
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
 * is built where it is kept). Security byte data slots read zero after
 * conversion. Exact inverse of spillLine on canonical lines.
 */
void fillLine(const SentinelLine &line, BitVectorLine &out);

/** fillLine into a new line. */
inline BitVectorLine
fillLine(const SentinelLine &line)
{
    BitVectorLine out;
    fillLine(line, out);
    return out;
}

/**
 * Critical-word-first support (Section 5.2): the security byte locations
 * can be recovered from the first 4 bytes plus, for the 4+ case, a scan
 * of whatever flits have arrived. This helper decodes only the mask
 * without touching data relocation; used by the timing model and tested
 * against fillLine. Served from the decode-once memo when the line came
 * out of spillLine.
 */
SecurityMask decodeMask(const SentinelLine &line);

} // namespace califorms

#endif // CALIFORMS_CORE_SENTINEL_HH
