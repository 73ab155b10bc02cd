/**
 * @file params.hh
 * Simulated machine configuration, defaulted to Table 3: an Intel
 * Westmere-like out-of-order core at 2.27GHz with a three level cache
 * hierarchy and DDR3-1333 DRAM.
 *
 * Every field here is registered in the typed parameter registry
 * (src/config/registry.cc) under a dotted key (mem.*, core.*) with
 * bounds and documentation; add new knobs there too, or the
 * Registry/describeParams tests and the golden schema gate will not
 * know about them. The registry captures its defaults by reading
 * these structs, so the values below stay the single source of truth.
 */

#ifndef CALIFORMS_SIM_PARAMS_HH
#define CALIFORMS_SIM_PARAMS_HH

#include <cstddef>
#include <string>

#include "sim/repl/policy.hh"
#include "util/types.hh"

namespace califorms
{

/**
 * Which L1 metadata organization the data cache uses (Section 5.1 and
 * Appendix A). The format changes the L1 hit latency per Table 7 and
 * routes resident lines through the corresponding codec.
 */
enum class L1Format
{
    BitVector8B, //!< dedicated bit vector array (default, fastest hit)
    Cal4B,       //!< bit vector inside a security byte (Figure 14)
    Cal1B,       //!< bit vector in the chunk header byte (Figure 15)
};

/** Extra L1 hit cycles for a format, from the Table 7 delay overheads
 *  (+1.85%, +49.4%, +22.2% of the ~1.6ns access) on a 4-cycle L1. */
constexpr Cycles
l1FormatExtraLatency(L1Format format)
{
    switch (format) {
    case L1Format::BitVector8B:
        return 0;
    case L1Format::Cal4B:
        return 2;
    case L1Format::Cal1B:
        return 1;
    }
    return 0;
}

/**
 * Coherence protocol of the shared hierarchy below the private L1s.
 * None keeps the historical single-requester behaviour (private L1s
 * are incoherent islands; fine for one core, a modeling choice for
 * more). Msi maintains a line-granular directory over the private
 * sides: a write invalidates every other copy, a read of a modified
 * line recalls the dirty data and downgrades the owner to a clean
 * sharer — so sentinel fill/spill conversions race with coherence
 * traffic, the scenario class the paper never measured.
 */
enum class CoherenceKind
{
    None,
    Msi,
};

/** Cache hierarchy and DRAM parameters (Table 3). */
struct MemSysParams
{
    std::size_t l1Size = 32 * 1024;       //!< 32KB
    unsigned l1Ways = 8;                  //!< 8-way
    Cycles l1Latency = 4;                 //!< 4-cycle load-to-use

    std::size_t l2Size = 256 * 1024;      //!< 256KB
    unsigned l2Ways = 8;
    Cycles l2Latency = 7;

    std::size_t l3Size = 2 * 1024 * 1024; //!< 2MB (the LLC)
    unsigned l3Ways = 16;
    Cycles l3Latency = 27;

    Cycles dramLatency = 120;             //!< DDR3-1333 average load

    /** Coherence protocol over the private L1s (multi-core machines). */
    CoherenceKind coherence = CoherenceKind::None;

    /**
     * Hierarchy depth: 1 = L1 + DRAM, 2 = + L2, 3 = + L2 + LLC
     * (default, the Table 3 machine). Independently, a level whose
     * size is 0 is skipped, so levels = 3 with l2Size = 0 degenerates
     * to an L1 + LLC machine and levels = 2 with l2Size = 0 is exactly
     * the levels = 1 machine. Values outside [1, 3] are rejected by
     * MemorySystem.
     */
    unsigned levels = 3;

    /**
     * Extra L2 and L3 access latency in cycles. Figure 10 evaluates the
     * pessimistic assumption that Califorms adds one cycle to both.
     */
    Cycles extraL2L3Latency = 0;

    /**
     * Cycles charged on the critical path for the sentinel -> bit
     * vector conversion of a califormed line filled into the L1
     * (Algorithm 2). The paper overlaps the decode with the fill and
     * treats it as free (the pessimistic variant is the Figure 10 extra
     * latency), so the default is 0; raise it to study a serialized
     * decoder.
     */
    Cycles fillConvLatency = 0;

    /**
     * Cycles charged when a dirty califormed L1 line is encoded back to
     * the sentinel format on eviction (Algorithm 1). Write-backs leave
     * the critical path through the write-back buffer, so the paper's
     * default is 0; non-zero models an encoder that stalls the
     * triggering access.
     */
    Cycles spillConvLatency = 0;

    /**
     * Depth of the dirty write-back queue between the L1 and the rest
     * of the hierarchy (the miss-queue / victim-buffer path). 0 keeps
     * the legacy immediate write-back behaviour. When enabled, dirty
     * evictions wait in the queue and drain one entry per DRAM-served
     * demand miss (the long service window leaves the L1-side bus
     * idle); an L1 miss that hits a queued line pulls it back at
     * wbHitLatency, and pushing onto a full queue force-drains the
     * oldest entry.
     */
    unsigned wbQueueEntries = 0;

    /** Latency of an L1 miss served from the write-back queue. */
    Cycles wbHitLatency = 1;

    /**
     * Miss-status holding registers between the L1 and the shared
     * side. 0 keeps the legacy blocking miss path byte-for-byte (and,
     * when banked DRAM timing is enabled, serializes misses: each new
     * miss waits for the previous one to complete — the blocking
     * machine the MSHRs are measured against). N > 0 allows N misses
     * in flight: an access that lands on a line whose fill is still
     * outstanding coalesces into its MSHR (a secondary miss) and waits
     * only for the remainder of that fill; a miss that finds all N
     * entries live stalls until the earliest outstanding fill
     * completes (structural stall, mshr.stallCycles). L1 hits to
     * other lines proceed at the hit latency throughout
     * (hit-under-miss).
     */
    unsigned mshrEntries = 0;

    /**
     * Banked DRAM timing. 0 banks keeps the flat dramLatency model
     * byte-for-byte. With N banks, line_addr / dramRowBytes selects
     * the bank round-robin (consecutive rows interleave across banks)
     * and each bank keeps one open row: an access to the open row pays
     * dramRowHitLatency, to a bank with no open row
     * dramRowMissLatency, and to a bank whose open row differs
     * dramRowConflictLatency (precharge + activate). Banks are busy
     * for the service time, so same-bank traffic queues
     * (dram.bankConflictCycles) while different banks overlap —
     * including the dirty write-backs and coherence recalls that
     * share the banks with demand fetches. The queue wait extends the
     * fill's completion time (backing up the MSHR table or the
     * blocking miss path) rather than the charged access latency, so
     * a saturated bank throttles throughput without being billed once
     * per queued access.
     */
    unsigned dramBanks = 0;

    /** DRAM row-buffer (page) size per bank in bytes. */
    std::size_t dramRowBytes = 8 * 1024;

    /** Latency of a DRAM access that hits the open row. */
    Cycles dramRowHitLatency = 80;

    /** Latency of a DRAM access to a bank with no open row; defaults
     *  to the flat dramLatency so enabling banks alone stays
     *  comparable. */
    Cycles dramRowMissLatency = 120;

    /** Latency when another row is open (precharge + activate). */
    Cycles dramRowConflictLatency = 155;

    /** L1 metadata organization (Appendix A variants). */
    L1Format l1Format = L1Format::BitVector8B;

    /**
     * Victim-selection policy of every cache level (the replacement
     * laboratory, sim/repl/). Lru reproduces the historical hardwired
     * true-LRU byte for byte; the alternatives (random, dip, drrip,
     * ship) are deterministic, so campaign jobs-invariance holds for
     * any policy grid.
     */
    ReplPolicy replPolicy = ReplPolicy::Lru;

    /** Per-level overrides; Inherit (the default) follows replPolicy,
     *  so e.g. a scan-resistant LLC can sit under an LRU L1/L2. */
    ReplPolicy l2ReplPolicy = ReplPolicy::Inherit;
    ReplPolicy llcReplPolicy = ReplPolicy::Inherit;

    /**
     * Next-line prefetch into the L2 on L1 misses (a simplified model
     * of the hardware streamers real Westmere/Skylake parts have).
     * Prefetches consume DRAM bandwidth but hide their latency. Ignored
     * on a 1-level hierarchy (there is no L2 to prefetch into).
     */
    bool nextLinePrefetch = false;
};

/** The concrete policy a hierarchy level runs: the per-level override
 *  when set, the machine-wide mem.repl_policy otherwise. Level 1 is
 *  the (private) L1, 2 the L2, 3 the LLC. */
constexpr ReplPolicy
resolvedReplPolicy(const MemSysParams &params, unsigned level)
{
    const ReplPolicy over = level == 2   ? params.l2ReplPolicy
                            : level == 3 ? params.llcReplPolicy
                                         : ReplPolicy::Inherit;
    return over == ReplPolicy::Inherit ? params.replPolicy : over;
}

/** True when any level runs something other than the default Lru —
 *  the gate for the repl.* stat/report blocks, mirroring the
 *  mshr/dram convention that keeps default outputs byte-identical. */
constexpr bool
replPolicyActive(const MemSysParams &params)
{
    return resolvedReplPolicy(params, 1) != ReplPolicy::Lru ||
           resolvedReplPolicy(params, 2) != ReplPolicy::Lru ||
           resolvedReplPolicy(params, 3) != ReplPolicy::Lru;
}

/** Out-of-order core approximation parameters. */
struct CoreParams
{
    /**
     * Number of cores. Each core owns a private L1 (+ write-back queue
     * and sentinel fill/spill machinery) and its own CoreModel; all
     * cores share the L2/LLC levels and DRAM. The parameters below
     * describe every core (the machine is homogeneous).
     */
    unsigned count = 1;
    unsigned issueWidth = 4;      //!< max ops retired per cycle
    unsigned mlp = 12;            //!< overlap factor for independent misses
    double storeMissWeight = 0.2; //!< store misses are mostly buffered
    /**
     * CFORM instructions expose more of their miss latency than plain
     * stores: they must not forward to younger loads and, without LSQ
     * support, are bracketed by memory serializing instructions
     * (Section 5.3), so the window overlaps them poorly.
     */
    double cformMissWeight = 0.3;
    /**
     * DRAM bandwidth roofline: each line moved to or from DRAM costs at
     * least this many core cycles of machine time, no matter how well
     * the OoO window hides latency. 64B at DDR3-1333 dual channel
     * (~21GB/s) on a 2.27GHz core is about 7 cycles per line.
     */
    double dramCyclesPerLine = 7.0;
};

/** Full machine configuration. */
struct MachineParams
{
    MemSysParams mem;
    CoreParams core;
};

/** Render the configuration as a Table 3 style listing. Generated
 *  from the parameter registry (every mem. and core. knob, resolved
 *  against @p params, non-defaults flagged), so the listing cannot
 *  drift from the actual knob set. */
std::string describeParams(const MachineParams &params);

} // namespace califorms

#endif // CALIFORMS_SIM_PARAMS_HH
