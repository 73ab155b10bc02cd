/**
 * @file main_memory.hh
 * Sparse DRAM model. Lines are stored in the sentinel (califormed)
 * format; the one metadata bit per line models the spare ECC bit the
 * paper repurposes (Section 3), so data never grows and the DIMM
 * interface is unchanged. Untouched lines read as zero.
 *
 * Storage is paged: one heap block per touched 4 KiB page holds that
 * page's 64 lines plus a presence mask. The page table is an
 * open-addressed LineMap keyed by page number, so a line access costs
 * one or two probes of a flat key array and no per-line allocation.
 *
 * SharedMemory keeps its data here: its L2 and LLC hold only tags, so
 * between flushes this store holds the newest value of each line below
 * the private caches, not just what has reached DRAM.
 */

#ifndef CALIFORMS_SIM_MAIN_MEMORY_HH
#define CALIFORMS_SIM_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>

#include "core/line.hh"
#include "os/swap.hh"
#include "sim/line_map.hh"

namespace califorms
{

class MainMemory : public LineStore
{
  public:
    /** Read the line at @p line_addr (zero/clean if never written),
     *  counting it in reads(): the LineStore view the swap path uses. */
    SentinelLine readLine(Addr line_addr) override;

    /** Uncounted lookup: SharedMemory's demand and functional reads.
     *  The reference stays valid until the line is next written (pages
     *  are never freed); a line never written reads as a shared zero
     *  line. */
    const SentinelLine &peekLine(Addr line_addr) const;

    /** Write a full line including its ECC califormed bit. */
    void writeLine(Addr line_addr, const SentinelLine &line) override;

    /** In-place form of writeLine: counts the write and backs the line
     *  exactly as writeLine does, then returns the line's slot for the
     *  caller to overwrite whole (the L1 encodes a victim straight into
     *  it). */
    SentinelLine &writeSlot(Addr line_addr);

    /** Number of lines ever written (for memory footprint stats). */
    std::size_t backedLines() const { return backed_; }

    /** Number of backed lines whose califormed (ECC) bit is set. */
    std::size_t califormedLines() const;

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    static_assert(linesPerPage == 64, "presence mask is one word");

    /** One 4 KiB page. Lines never written stay SentinelLine{} and
     *  have their presence bit clear. */
    struct Page
    {
        std::array<SentinelLine, linesPerPage> lines{};
        std::uint64_t present = 0;
    };

    /** The line slot of @p line_addr within its page, or null when the
     *  page was never written. Throws on an unaligned address. */
    const SentinelLine *find(Addr line_addr, const char *what) const;

    LineMap<std::unique_ptr<Page>> pages_; //!< page number -> page
    std::size_t backed_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace califorms

#endif // CALIFORMS_SIM_MAIN_MEMORY_HH
