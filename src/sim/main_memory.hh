/**
 * @file main_memory.hh
 * Sparse DRAM model. Lines are stored in the sentinel (califormed)
 * format; the one metadata bit per line models the spare ECC bit the
 * paper repurposes (Section 3), so data never grows and the DIMM
 * interface is unchanged. Untouched lines read as zero.
 *
 * Storage is paged and split into planes, as the paper lays a line
 * out. One heap block per touched 4 KiB page holds a 64 B-aligned data
 * plane (each line's encoded payload fills exactly one host cache line)
 * and a plane of decoded security masks, which only califormed lines
 * read: a simulator-side cache of the header decode, valid for every
 * califormed line the store holds. The page table is an open-addressed
 * LineMap keyed by page number whose entry carries the page's
 * califormed (ECC) bitmap next to the page pointer, so the ECC bit
 * is read without touching the page, and a line access costs one or
 * two probes of a flat key array and no per-line allocation.
 *
 * Lines are read in place through a SentinelView (peek): a pointer into
 * the data plane plus the decoded mask, which is 0 unless the califormed
 * bit is set. Pages are never moved or freed, so a view survives
 * page-table growth, but not a write of its own line.
 *
 * SharedMemory keeps its data here: its L2 and LLC hold only tags, so
 * between flushes this store holds the newest value of each line below
 * the private caches, not just what has reached DRAM.
 *
 * The page-table entry's califormed bitmap is also the whole of what
 * Section 6.3's swap path has to save: 64 califormed bits (8 B) per
 * 4 KiB page, since swap devices keep no ECC bits.
 */

#ifndef CALIFORMS_SIM_MAIN_MEMORY_HH
#define CALIFORMS_SIM_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>

#include "core/line.hh"
#include "sim/line_map.hh"

namespace califorms
{

class MainMemory
{
  public:
    /** SharedMemory's demand and functional reads. The view's data
     *  stays valid until the line is next written; a line never
     *  written reads as a shared zero line. */
    SentinelView peek(Addr line_addr) const;

    /** The line's califormed (ECC) bit, read from the page table
     *  alone. */
    bool califormed(Addr line_addr) const;

    /** Write a full line including its ECC califormed bit. A line
     *  without a memo (functional writes) has its mask decoded here,
     *  once. */
    void writeLine(Addr line_addr, const SentinelLine &line);

    /** Encode an L1 line (Algorithm 1) straight into its data slot. */
    void writeEncoded(Addr line_addr, const BitVectorLine &line);

  private:
    static_assert(linesPerPage == 64, "califormed bitmap is one word");

    /** One 4 KiB page's planes. Lines never written stay zero. A mask
     *  slot is meaningful only while its line's califormed bit is set. */
    struct Page
    {
        alignas(lineBytes) std::array<LineData, linesPerPage> data{};
        std::array<SecurityMask, linesPerPage> masks{};
    };

    /** A page-table entry: the page and its califormed bitmap. */
    struct PageEntry
    {
        std::uint64_t califormed = 0; //!< bit i: line i's ECC bit
        std::unique_ptr<Page> page;
    };

    /** The entry of @p line_addr's page, or null when it was never
     *  written. Throws on an unaligned address. */
    const PageEntry *find(Addr line_addr, const char *what) const;

    /** Back @p line_addr's page and set the line's califormed bit to
     *  @p califormed; returns the page. */
    Page &backLine(Addr line_addr, bool califormed);

    LineMap<PageEntry> pages_; //!< page number -> page and bitmap
};

} // namespace califorms

#endif // CALIFORMS_SIM_MAIN_MEMORY_HH
