/**
 * @file memsys.hh
 * The per-core private side of the configurable cache hierarchy with
 * Califorms support (Sections 3, 5): the L1, the dirty write-back
 * queue, and the sentinel fill/spill conversion machinery at the L1
 * boundary. Everything below the L1 — L2/LLC, DRAM, and the coherence
 * directory — lives in SharedMemory (shared_mem.hh), which one or more
 * MemorySystem instances attach to as CoherencePeers.
 *
 * Layout of metadata through the hierarchy (Figure 1):
 *   L1D      — califorms-bitvector: natural data + 64-bit mask per line.
 *   L2, LLC  — tags only: tag, dirty bit and the califormed (sentinel
 *              format) bit per line. Their data lives in the shared
 *              side's one store, SharedMemory::memory().
 *   DRAM     — sentinel payload, metadata bit in spare ECC (MainMemory).
 *
 * The depth below the L1 is configurable (MemSysParams::levels plus
 * per-level sizes): 1 level is L1 + DRAM, 2 adds the L2, 3 adds the LLC
 * — disabled levels are skipped entirely, in both timing and state.
 *
 * Conversions run at the L1 boundary wherever it is: fills decode
 * sentinel lines into the bit vector format (Algorithm 2), spills
 * re-encode on eviction (Algorithm 1). Each runs in place: a fill
 * decodes from the store slot straight into its L1 way, and a victim
 * is encoded straight into its store slot or write-back queue entry,
 * before the fill overwrites the way. Lines without security bytes
 * stay in the natural format everywhere. Conversion events are counted
 * (fills/spills) and can be charged latency (fillConvLatency /
 * spillConvLatency). Under MSI coherence a dirty califormed line can
 * also be recalled by another core's access, forcing the encode during
 * the coherence action (a conversion-under-invalidation event).
 *
 * Dirty write-backs optionally pass through a bounded miss-queue
 * (wbQueueEntries): evicted dirty lines wait there, drain one entry per
 * demand miss, and an L1 miss that hits a queued line pulls it back
 * directly (a victim-buffer hit) instead of re-fetching below.
 *
 * Every load/store checks the accessed byte range against the L1 mask.
 * Touching a security byte raises the privileged Califorms exception
 * through the ExceptionUnit; loads return zero for blacklisted bytes
 * (anti speculation side channel, Section 7.2) and faulting stores do
 * not commit. While whitelisted (exception mask raised), accesses
 * proceed: loads still see zeros, stores write data bytes but leave the
 * blacklist metadata untouched — memcpy of a struct copies its payload
 * while the security byte pattern of the destination survives.
 *
 * A MemorySystem is always one core's private side of a Machine, which
 * builds it over the machine's one SharedMemory and drives its
 * functional reads, writes, flushes and counters through the per-core
 * hooks below (peekPrivateLine, pokePrivateLine, flushPrivate,
 * privateStats).
 */

#ifndef CALIFORMS_SIM_MEMSYS_HH
#define CALIFORMS_SIM_MEMSYS_HH

#include <cstdint>
#include <deque>

#include "core/cform.hh"
#include "core/line.hh"
#include "os/exception_unit.hh"
#include "sim/cache_array.hh"
#include "sim/line_map.hh"
#include "sim/mshr.hh"
#include "sim/params.hh"
#include "sim/shared_mem.hh"
#include "sim/stats_dump.hh"

namespace califorms
{

class MemorySystem : public CoherencePeer
{
  public:
    /** Result of one timed access. */
    struct AccessResult
    {
        Cycles latency = 0;  //!< load-to-use / store-commit latency
        bool faulted = false; //!< touched a security byte
        std::uint64_t value = 0; //!< loaded value (low @c size bytes)
    };

    /** One core's private side, attached to @p shared (which must
     *  outlive this object). */
    MemorySystem(const MemSysParams &params, ExceptionUnit &exceptions,
                 SharedMemory &shared);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Timed load of @p size (1..8) bytes. May cross a line boundary. */
    AccessResult load(Addr addr, unsigned size);

    /**
     * Appendix B: how SIMD/vector loads interact with security bytes.
     */
    enum class SimdPolicy
    {
        /** (1) Issue precise per-element gathers: byte-exact checks,
         *  at extra latency per element. */
        PreciseGather,
        /** (2) Issue the wide load as-is and fault if *any* byte of the
         *  accessed range is a security byte — may false-positive on
         *  vectors that legitimately span padding. */
        LineException,
        /** (3) Propagate a per-byte poison mask into the register and
         *  fault only when a poisoned byte is consumed. */
        PropagateMask,
    };

    /** Result of a wide (16/32/64B) vector load. */
    struct WideAccessResult
    {
        Cycles latency = 0;
        bool faulted = false;          //!< exception raised at the load
        SecurityMask registerMask = 0; //!< PropagateMask poison bits
    };

    /**
     * Timed vector load of @p size bytes (16, 32 or 64; line aligned to
     * its own width) under the chosen Appendix B policy. Blacklisted
     * bytes always read zero.
     */
    WideAccessResult wideLoad(Addr addr, unsigned size,
                              SimdPolicy policy);

    /** Timed store of the low @p size bytes of @p value. */
    AccessResult store(Addr addr, unsigned size, std::uint64_t value);

    /**
     * Execute a CFORM instruction (Section 4.1). Store-like: allocates
     * the line at L1 on a miss unless op.nonTemporal is set, in which
     * case the line is updated in place below the L1 (footnote 3).
     */
    AccessResult cform(const CformOp &op);

    /**
     * Pull the issue clock forward to the owning core's retire clock.
     * The timed miss path places fills on the MSHR table and the
     * shared bank timeline in issue-clock time; left to itself the
     * clock advances one cycle per op, so a low-IPC phase would replay
     * against DRAM at an impossible back-to-back arrival rate and
     * overstate bank and MSHR contention. The machine calls this
     * before each op with the analytic core model's cycle count; the
     * clock never moves backwards, and this is a no-op on the untimed
     * (default) machine. Ops issued straight to memorySystem() skip it:
     * the op-granular clock is exact for cycle-arithmetic unit tests.
     */
    void
    syncClock(Cycles core_now)
    {
        if (timingEnabled() && core_now > now_)
            now_ = core_now;
    }

    /** Functional lookup restricted to this core's private side (L1 or
     *  write-back queue); true and fills @p out when held. */
    bool peekPrivateLine(Addr line_addr, BitVectorLine &out) const;

    /** Functional in-place update of a privately held line (dirty bit
     *  preserved); false when this core does not hold it. */
    bool pokePrivateLine(Addr line_addr, const BitVectorLine &line);

    /** Drain this core's write-back queue and spill its dirty L1 lines
     *  below, dropping all private contents; the shared levels are left
     *  untouched (Machine flushes them once after all cores). */
    void flushPrivate();

    /** This core's private counters only: L1, conversions, write-back
     *  queue, faults (shared-side slots left zero). */
    MemSysStats privateStats() const;

    void clearStats();

    // CoherencePeer interface (called by the shared side) ------------
    Surrender surrenderLine(Addr line_addr, bool invalidate) override;
    void drainOneWriteBack() override;

  private:
    /** A dirty line waiting in the write-back queue. Entries removed
     *  from the middle (victim-buffer hits, coherence surrenders) are
     *  tombstoned (live = false) instead of erased, so the positions
     *  recorded in the address index stay valid. */
    struct WbEntry
    {
        Addr lineAddr;
        SentinelLine line;
        bool live = true;
    };

    using L1Ref = CacheArray<BitVectorLine>::Ref;

    /** Fetch a line into L1 (miss path): the victim is encoded and the
     *  fill decoded in place, straight into the L1 way. Returns latency
     *  spent below L1 and the resident line. */
    L1Ref refillL1(Addr line_addr, Cycles &latency, bool for_write);

    /** Look the line up in the write-back queue and the shared side
     *  (levels, then DRAM), returning it in place: a view of the
     *  store's data slot, or of fetchBuf_ for a queue hit or a dirty
     *  handoff. Sets @p dirty when
     *  the returned line is the only copy (write-back queue hit or
     *  coherence dirty handoff) and must stay dirty in the L1. When
     *  @p bank_wait is non-null it receives the cycles a banked DRAM
     *  transfer queued behind a busy bank — time the caller folds into
     *  the fill's completion point rather than the charged latency. */
    SentinelView fetchBelowL1(Addr line_addr, Cycles &latency,
                              bool &dirty, bool for_write,
                              Cycles *bank_wait = nullptr);

    /** Evict one L1 line (spill conversion + write-back queue), encoding
     *  it straight into its store slot or queue entry. The conversion
     *  penalty is charged to @p latency when given. */
    void writeBackL1(Addr line_addr, const BitVectorLine &line,
                     bool dirty, Cycles *latency);

    /** Push a dirty line below the L1, bypassing the queue: an encoded
     *  line is copied into the store, an L1 line encoded into it. */
    template <typename LineT>
    void
    spillBelowNow(Addr line_addr, const LineT &line)
    {
        shared_->writeBack(line_addr, line);
        shared_->noteDropped(coreId_, line_addr);
    }

    /** Queue a dirty line (wbQueueEntries > 0 only) and return the
     *  entry the caller writes its encoded data into: the line's live
     *  entry when it is already queued, else a new one at the back.
     *  Any forced drain of the oldest entry happens before this
     *  returns and never touches the returned entry. */
    SentinelLine &enqueueWriteBack(Addr line_addr);

    /** Common load/store path for one line-contained segment. */
    AccessResult accessSegment(Addr addr, unsigned size, bool is_store,
                               std::uint64_t value);

    /** Count and deliver a CFORM fault, flagging @p res. */
    void raiseCformFault(const CaliformsException &fault,
                         AccessResult &res);

    /** True when MSI probes must be exchanged for store hits. */
    bool coherentMulti() const { return shared_->coherent(); }

    // Write-back queue index helpers (O(1) address lookup) -----------
    /** Live queue entry for @p line_addr, or null. */
    WbEntry *wbqFind(Addr line_addr);
    const WbEntry *wbqFind(Addr line_addr) const;
    /** Remove the live entry for @p line_addr (must exist): tombstone
     *  it, unindex it, and trim dead entries off the front. */
    void wbqErase(Addr line_addr);
    /** Pop dead entries off the queue front so front() is live. */
    void wbqTrimFront();

    /**
     * True when the non-blocking timing model is active: a per-core
     * issue clock advances, misses place themselves on the MSHR/DRAM
     * timeline, and (with mem.mshr_entries == 0) misses serialize —
     * the blocking machine. False reproduces the legacy untimed paths
     * byte-for-byte.
     */
    bool timingEnabled() const
    {
        return params_.mshrEntries > 0 || params_.dramBanks > 0;
    }

    /** A timed access issues: advance this core's clock one cycle. */
    void
    noteIssue()
    {
        if (timingEnabled())
            ++now_;
    }

    /**
     * An L1 hit on a line whose fill is still outstanding is a
     * secondary miss: it coalesces into the MSHR entry and waits out
     * the remainder of the fill (which already carried any sentinel
     * fill-conversion charge — a conversion completing under the
     * MSHR). Returns the extra latency; 0 without MSHRs or when the
     * fill already completed (hit-under-miss to settled lines).
     */
    Cycles
    coalesceWait(Addr line_addr)
    {
        if (!params_.mshrEntries)
            return 0;
        const Cycles rem = mshr_.remainder(line_addr, now_);
        if (rem)
            mshr_.noteCoalesced();
        return rem;
    }

    MemSysParams params_;
    ExceptionUnit &exceptions_;
    CacheArray<BitVectorLine> l1_;
    /** Dirty write-back queue, indexed by wbqIndex_: an open-addressed
     *  line map from each live entry's line address to its sequence
     *  number, so wbq_[seq - wbqHeadSeq_] is the entry itself.
     *  Tombstoned entries are unindexed. wbqLive_ counts
     *  non-tombstoned entries (the occupancy every threshold and stat
     *  uses). */
    std::deque<WbEntry> wbq_;
    LineMap<std::uint64_t> wbqIndex_;
    std::uint64_t wbqHeadSeq_ = 0; //!< sequence number of wbq_.front()
    std::size_t wbqLive_ = 0;
    SharedMemory *shared_;
    unsigned coreId_ = 0;
    MshrTable mshr_;
    Cycles now_ = 0;          //!< per-core access issue clock (timed mode)
    Cycles lastMissReady_ = 0; //!< blocking mode: previous miss completion
    MemSysStats stats_;
    /** The line of a queue hit or a dirty recall handoff, which has no
     *  store slot to be read from in place. Declared last: ahead of
     *  stats_ it moved the hit path's counters and measured ~4% slower
     *  on the L1-resident perfbench churn workload. */
    SentinelLine fetchBuf_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_MEMSYS_HH
