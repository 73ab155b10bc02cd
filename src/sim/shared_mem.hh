/**
 * @file shared_mem.hh
 * The shared side of the memory hierarchy: every cache level below the
 * private L1s (L2 and the LLC), DRAM, and — when coherence is enabled —
 * a line-granular directory that keeps the private L1s coherent.
 *
 * One SharedMemory instance is shared by all cores of a Machine; each
 * per-core MemorySystem (the private side: L1 + write-back queue +
 * sentinel fill/spill conversion) registers itself as a CoherencePeer
 * and routes all below-L1 traffic here. A one-core Machine is the same
 * structure with a single peer attached.
 *
 * Coherence model (MemSysParams::coherence == CoherenceKind::Msi) is a
 * directory-based MSI approximation at line granularity:
 *
 *  - The directory tracks, per line, the set of cores that hold a
 *    private copy (L1 or write-back queue) and which core, if any,
 *    owns it modified. Tracking is exact: the private sides notify
 *    every silent drop (noteDropped).
 *  - A write fetch (or a store/CFORM upgrade on a shared copy) sends
 *    invalidations to every other holder. A holder with dirty data
 *    surrenders it — a dirty recall — and the recalled line is handed
 *    straight to the requester (it is the only up-to-date copy).
 *  - A read fetch of a modified line recalls the dirty data, deposits
 *    it into the first shared level, and downgrades the owner to a
 *    clean sharer, so both cores end up with matching clean copies.
 *  - Surrendering a dirty califormed L1 line forces a sentinel encode
 *    during the coherence action: a conversion-under-invalidation
 *    event. Its spill latency is charged to the requesting access
 *    (coherenceConvCycles) — this is the cost class the paper never
 *    measured, and what bench_multicore exists to quantify.
 *
 * With CoherenceKind::None (the default) no directory is kept and no
 * probes are sent; the private L1s are independent islands exactly as
 * in the historical single-core machine.
 *
 * The shared levels are tag-only: each keeps a line's tag, dirty bit
 * and califormed bit, which drive replacement, write-back traffic and
 * the level counters. The data of every line below the private sides
 * lives in one sentinel-format store (memory()). That is exact because
 * a deeper level is never newer than a shallower level holding the
 * same line: a deeper level is only written by an eviction that moves
 * the line out of the level above it. So the first level that hits
 * always held the store's value.
 *
 * A fetch reads its line through a SentinelView into the store's data
 * plane. It looks the line up on entry and asks the host to prefetch
 * its data slot, so the host cache miss on the payload overlaps the
 * coherence probes and the tag walk instead of following them (a hint
 * only: no simulated state depends on it).
 */

#ifndef CALIFORMS_SIM_SHARED_MEM_HH
#define CALIFORMS_SIM_SHARED_MEM_HH

#include <cstdint>
#include <vector>

#include "core/line.hh"
#include "sim/cache_array.hh"
#include "sim/dram_timing.hh"
#include "sim/line_map.hh"
#include "sim/main_memory.hh"
#include "sim/params.hh"
#include "sim/stats_dump.hh"

namespace califorms
{

/**
 * The interface a private side (one core's L1 + write-back queue)
 * presents to the shared side for coherence probes and drain windows.
 */
class CoherencePeer
{
  public:
    virtual ~CoherencePeer() = default;

    /** Result of a coherence probe delivered to a private side. */
    struct Surrender
    {
        bool hadCopy = false;    //!< the peer held the line at all
        bool dirty = false;      //!< dirty data surrendered in @c line
        bool retained = false;   //!< peer keeps a clean copy (downgrade)
        bool converted = false;  //!< surrender forced a sentinel encode
        SentinelLine line{};     //!< the surrendered data when dirty
    };

    /**
     * Give up (invalidate == true) or downgrade to clean (== false) the
     * private copy of @p line_addr, wherever it lives (L1 or write-back
     * queue). Downgrades keep a clean L1 copy; queue entries always
     * leave the core entirely.
     */
    virtual Surrender surrenderLine(Addr line_addr, bool invalidate) = 0;

    /** A DRAM demand service for this peer is in progress: the idle bus
     *  window that drains one of its queued write-backs. */
    virtual void drainOneWriteBack() = 0;
};

class SharedMemory
{
  public:
    explicit SharedMemory(const MemSysParams &params);

    /** Register a private side; returns its core id (attachment order). */
    unsigned attachPeer(CoherencePeer &peer);

    /** Result of a below-L1 fetch. */
    struct FetchResult
    {
        /** The fetched line, read in place: the store's data slot, or
         *  the caller's handoff buffer for a dirty recall handoff. A
         *  store view stays valid until that line is next written. */
        SentinelView line;
        /** The line is a dirty recall handed directly to the requester:
         *  it is the only copy and must stay dirty in the new L1. */
        bool dirtyHandoff = false;
        /** Cycles the DRAM transfer queued behind a busy bank. Not
         *  part of @p latency (the window overlaps queueing); the
         *  requester adds it to the fill's completion time so bank
         *  pressure backs up the MSHR table instead. */
        Cycles bankQueueWait = 0;
    };

    /**
     * Fetch a line for core @p core: coherence probes first, then the
     * shared levels, then DRAM (filling the levels on the way up, and
     * opening the requester's write-back drain window on a DRAM
     * service). Latency accumulates into @p latency. A dirty recall
     * handed to the requester lands in @p handoff. @p issue_time is
     * the requester's absolute clock when the fetch entered the shared
     * side; banked DRAM timing (mem.dram_banks > 0) uses it to place
     * the access on the bank timeline. The flat model ignores it, so
     * untimed callers can leave it 0.
     */
    FetchResult fetchLine(Addr line_addr, Cycles &latency, unsigned core,
                          bool for_write, SentinelLine &handoff,
                          Cycles issue_time = 0);

    /**
     * Make @p core the exclusive modified owner of a line it already
     * holds (store/CFORM hit on a potentially shared copy). Sends
     * invalidations to every other holder; a stale dirty surrender is
     * deposited below defensively.
     */
    void upgrade(unsigned core, Addr line_addr, Cycles &latency);

    /** Accept a dirty encoded line from a private side (write-back or
     *  flush): write it to the store and insert its tag dirty into the
     *  first shared level, or count a DRAM write when the hierarchy has
     *  no levels below the L1s. */
    void writeBack(Addr line_addr, const SentinelLine &line);

    /** writeBack of an L1 line: encode it (Algorithm 1) straight into
     *  its store data slot. */
    void writeBack(Addr line_addr, const BitVectorLine &line);

    /** The private side of @p core no longer holds @p line_addr (clean
     *  eviction, write-back drain, or flush). */
    void noteDropped(unsigned core, Addr line_addr);

    /** Next-line streamer: pull @p line_addr into the first shared
     *  level if no level holds it yet (demand stats untouched, DRAM
     *  bandwidth paid). Skipped for lines a core owns modified. */
    void prefetchInto(Addr line_addr);

    /** Write every dirty line of the shared levels to DRAM and drop all
     *  level contents (the deepest level's writes are not counted,
     *  matching the historical flush convention). */
    void flushLevels();

    // Functional (untimed) access below the private sides.
    /** Line content seen from the shared side (the store). */
    SentinelLine functionalRead(Addr line_addr) const;
    /** Write the store and mark the first level holding the line
     *  dirty, so it is written back as a demand write would be. */
    void functionalWrite(Addr line_addr, const SentinelLine &line);

    /** The shared-side counters (L2/L3, DRAM, coherence); every
     *  private-side row is left zero. */
    MemSysStats stats() const;
    void clearStats();

    /** Lines moved to or from DRAM (the bandwidth roofline quantity). */
    std::uint64_t dramAccesses() const { return stats_.dramAccesses; }

    /** The newest shared-side value of every line: what a fetch below
     *  the private sides returns. It equals DRAM contents after
     *  Machine::flushAll(), which empties the private sides and the
     *  shared levels. */
    const MainMemory &memory() const { return memory_; }

    /** Number of enabled shared levels (0, 1 or 2). */
    std::size_t levelCount() const { return below_.size(); }

    /** Lines the directory tracks (at least one private holder); 0
     *  without coherence. */
    std::size_t directoryEntries() const { return directory_.size(); }

    /** True when MSI probes are actually exchanged (coherence enabled
     *  and more than one private side attached). */
    bool coherent() const
    {
        return params_.coherence == CoherenceKind::Msi &&
               peers_.size() > 1;
    }

  private:
    /** Per-way payload of a shared level: only the califormed (spare
     *  ECC) bit, which the replacement hooks and cformEvictions read. */
    struct SharedTag
    {
        bool califormed = false;
    };

    /** One tag-only shared cache level. */
    struct Level
    {
        CacheArray<SharedTag> array;
        Cycles latency;
        unsigned id; //!< 2 = L2, 3 = LLC; selects the stats slot
    };

    /** Directory state for one line with at least one private holder. */
    struct DirEntry
    {
        std::uint32_t sharers = 0; //!< bit per core holding a copy
        int owner = -1;            //!< core holding it modified, or -1
    };

    /** Probe every other holder of @p line_addr. Invalidations clear
     *  their copies; downgrades (for_write == false) only probe the
     *  modified owner. A recalled dirty line lands in @p recalled. */
    bool probeHolders(Addr line_addr, unsigned core, bool for_write,
                      Cycles &latency, SentinelLine &recalled);

    /** The tag side of a write-back whose data is already in the
     *  store: insert the tag dirty into the first shared level, or
     *  count a DRAM write when there is none. */
    void writeBackTag(Addr line_addr, bool califormed);

    /** Cascade a dirty eviction from @p level into the next enabled
     *  level or DRAM (tags and traffic only; the data is already in
     *  memory_). */
    void writeBackLevel(std::size_t level,
                        const CacheArray<SharedTag>::Evicted &ev);

    MemSysParams params_;
    std::vector<Level> below_; //!< enabled shared levels, nearest first
    MainMemory memory_;        //!< the one store of shared-side data
    DramTiming dram_;
    std::vector<CoherencePeer *> peers_;
    LineMap<DirEntry> directory_;

    MemSysStats stats_; //!< DRAM and coherence rows only
};

} // namespace califorms

#endif // CALIFORMS_SIM_SHARED_MEM_HH
