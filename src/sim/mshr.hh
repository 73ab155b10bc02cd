/**
 * @file mshr.hh
 * Miss-status holding registers: the bookkeeping that makes the miss
 * path non-blocking. The timing model is event-free — each access
 * returns its own latency and the analytic core overlaps them — so an
 * MSHR entry is simply (line address, absolute completion time) on the
 * private side's access clock. The table answers three questions:
 *
 *  - is a fill for this line still outstanding (secondary miss →
 *    coalesce: the access waits only for the remainder of the fill,
 *    which already includes any sentinel fill-conversion charged when
 *    the primary miss issued — a conversion completing under the
 *    MSHR);
 *  - are all entries live (structural stall: the new miss waits until
 *    the earliest outstanding fill retires its entry);
 *  - how full did the table get (peak occupancy).
 *
 * Entries whose completion time has passed are dead and are pruned
 * lazily; a coherence invalidation cancels the entry outright (the
 * line left the core, so nothing can coalesce with its fill anymore).
 *
 * The entries are a flat vector, scanned: after a prune it holds at
 * most capacity live entries (a handful), which a linear scan over two
 * or three cache lines answers faster than any hash. At most one entry
 * exists per line; re-allocating a line overwrites its completion time.
 */

#ifndef CALIFORMS_SIM_MSHR_HH
#define CALIFORMS_SIM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace califorms
{

/** MSHR behaviour counters (mshr.* stats). */
struct MshrStats
{
    std::uint64_t allocations = 0;  //!< primary misses that took an entry
    std::uint64_t coalesced = 0;    //!< secondary misses merged per line
    std::uint64_t stallCycles = 0;  //!< waited with all entries live
    std::uint64_t peakOccupancy = 0; //!< high-water mark of live entries
};

class MshrTable
{
  public:
    explicit MshrTable(unsigned capacity) : capacity_(capacity)
    {
        pending_.reserve(capacity + 1);
    }

    /** Live entries at time @p now (dead ones pruned as a side
     *  effect). */
    std::size_t
    occupancy(Cycles now)
    {
        std::erase_if(pending_,
                      [now](const Entry &e) { return e.ready <= now; });
        return pending_.size();
    }

    /** Remaining fill time of an outstanding entry for @p line_addr at
     *  time @p now; 0 when none is outstanding. */
    Cycles
    remainder(Addr line_addr, Cycles now) const
    {
        const auto it = std::ranges::find(pending_, line_addr, &Entry::line);
        if (it == pending_.end() || it->ready <= now)
            return 0;
        return it->ready - now;
    }

    /** Completion time of the earliest live entry (call only when
     *  occupancy(now) > 0). */
    Cycles
    earliestReady() const
    {
        Cycles earliest = 0;
        bool first = true;
        for (const Entry &e : pending_) {
            if (first || e.ready < earliest)
                earliest = e.ready;
            first = false;
        }
        return earliest;
    }

    /** Record a primary miss completing at @p ready_at. */
    void
    allocate(Addr line_addr, Cycles ready_at, Cycles now)
    {
        const auto it = std::ranges::find(pending_, line_addr, &Entry::line);
        if (it != pending_.end())
            it->ready = ready_at;
        else
            pending_.push_back({line_addr, ready_at});
        ++stats_.allocations;
        const std::size_t live = occupancy(now);
        if (live > stats_.peakOccupancy)
            stats_.peakOccupancy = live;
    }

    /** The line left the core (coherence invalidation): cancel any
     *  outstanding fill so nothing coalesces with it afterwards. */
    void
    cancel(Addr line_addr)
    {
        std::erase_if(pending_, [line_addr](const Entry &e) {
            return e.line == line_addr;
        });
    }

    void noteCoalesced() { ++stats_.coalesced; }
    void noteStall(Cycles cycles) { stats_.stallCycles += cycles; }

    const MshrStats &stats() const { return stats_; }

    /** Reset the counters; the high-water mark restarts at the current
     *  live occupancy (outstanding fills are already "in" the new
     *  window), matching the write-back queue convention. */
    void
    clearStats(Cycles now)
    {
        stats_ = MshrStats{};
        stats_.peakOccupancy = occupancy(now);
    }

  private:
    /** One outstanding fill: the line and its completion time. */
    struct Entry
    {
        Addr line;
        Cycles ready;
    };

    unsigned capacity_;
    std::vector<Entry> pending_; //!< at most one entry per line
    MshrStats stats_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_MSHR_HH
