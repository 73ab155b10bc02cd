/**
 * @file types.hh
 * Common type aliases and constants shared by every Califorms module.
 *
 * The whole library models a 64-bit machine with 64B cache lines, matching
 * the system evaluated in the paper (Table 3).
 */

#ifndef CALIFORMS_UTIL_TYPES_HH
#define CALIFORMS_UTIL_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace califorms
{

/** Virtual/physical address within the simulated machine. */
using Addr = std::uint64_t;

/** Simulated clock cycle count. */
using Cycles = std::uint64_t;

/** Cache line size in bytes. The sentinel encoding relies on 64. */
constexpr std::size_t lineBytes = 64;

/** log2(lineBytes), used for address arithmetic. */
constexpr unsigned lineShift = 6;

/** Simulated page size in bytes (MainMemory's pages, each with its
 *  califormed bitmap, PageEntry::califormed). */
constexpr std::size_t pageBytes = 4096;

/** Number of cache lines per page. */
constexpr std::size_t linesPerPage = pageBytes / lineBytes;

/** Round an address down to its cache line base. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~static_cast<Addr>(lineBytes - 1);
}

/** Byte offset of an address within its cache line. */
constexpr unsigned
lineOffset(Addr addr)
{
    return static_cast<unsigned>(addr & (lineBytes - 1));
}

/** Round @p value up to the next multiple of @p align (align power of 2
 *  not required). */
constexpr std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return align == 0 ? value : ((value + align - 1) / align) * align;
}

} // namespace califorms

#endif // CALIFORMS_UTIL_TYPES_HH
