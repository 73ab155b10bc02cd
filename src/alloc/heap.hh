/**
 * @file heap.hh
 * Califorms-aware heap allocator (Section 6.1).
 *
 * The heap follows the clean-before-use discipline: freed memory stays
 * fully califormed (and zeroed) until it is reallocated, at which point
 * the data bytes are cleared while the intra-object security bytes are
 * (re)established. Temporal safety comes from quarantining: freed blocks
 * sit in a FIFO and are not recycled until the quarantine outgrows a
 * configurable fraction of the live heap, so stale pointers keep landing
 * on blacklisted bytes long after the free.
 *
 * Inter-object spatial safety uses the REST-style guard principle: each
 * block is surrounded by guard security bytes, so linear overflows off
 * either end of an object trap even when the object itself has no
 * intra-object spans.
 *
 * One CFORM instruction covers one cache line (Section 4.1), so the
 * allocator issues one CFORM per line it needs to (un)blacklist —
 * exactly the cost the paper's software evaluation accounts for.
 */

#ifndef CALIFORMS_ALLOC_HEAP_HH
#define CALIFORMS_ALLOC_HEAP_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "layout/policy.hh"
#include "sim/machine.hh"

namespace califorms
{

/** Allocator tuning knobs. */
struct HeapParams
{
    Addr heapBase = 0x100000000ull; //!< base of the simulated heap
    std::size_t guardBytes = 8;     //!< inter-object guard on each side
    /** Quarantined bytes may grow to this fraction of peak heap use
     *  before freed blocks are recycled (0 disables quarantining). */
    double quarantineFraction = 0.25;
    bool useCform = true;           //!< actually issue CFORM instructions
    bool nonTemporalCform = false;  //!< use the streaming CFORM variant
};

/** Allocation/free counters: a run's "heap" rollup, each field one
 *  row of the counter table (sim/stats_dump). */
struct HeapStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t reuses = 0;          //!< allocations served from free list
    std::uint64_t cformsIssued = 0;
    std::uint64_t bytesAllocated = 0;  //!< cumulative payload bytes
    std::uint64_t peakHeapBytes = 0;   //!< high-water mark of the arena
};

class HeapAllocator
{
  public:
    HeapAllocator(Machine &machine, HeapParams params = HeapParams{});

    /**
     * Allocate @p count contiguous instances laid out per @p layout
     * (count > 1 models arrays of structs; elements are layout->size
     * apart). Security bytes are established per the layout plus the
     * inter-object guards. Returns the address of element 0.
     */
    Addr allocate(std::shared_ptr<const SecureLayout> layout,
                  std::size_t count = 1);

    /** Allocate @p bytes with no intra-object spans (guards only). */
    Addr allocateRaw(std::size_t bytes);

    /**
     * Free a block: every payload byte becomes a security byte (clean
     * before use) and the block enters quarantine.
     */
    void free(Addr addr);

    /**
     * Grow/shrink a live block, like realloc: allocate a new block of
     * @p new_count elements (or @p new_count bytes for raw blocks),
     * copy the common payload prefix, and free the old block into the
     * quarantine. The copy models the instrumented library memcpy of
     * Section 6.2: it walks only data bytes, so no exception fires.
     * Returns the new address; the old one becomes a stale pointer.
     */
    Addr reallocate(Addr addr, std::size_t new_count);

    /** True if @p addr is inside a live allocation's payload. */
    bool isLive(Addr addr) const;

    const HeapStats &stats() const { return stats_; }
    std::size_t liveBytes() const { return liveBytes_; } //!< payload
    /** Footprint of the freed blocks held in quarantine. */
    std::size_t quarantinedBytes() const { return quarantinedBytes_; }
    const HeapParams &params() const { return params_; }

  private:
    struct Block
    {
        Addr payload = 0;          //!< user-visible base
        std::size_t payloadBytes = 0;
        std::size_t footprint = 0; //!< guards + payload, line rounded
        Addr blockBase = 0;        //!< start incl. front guard
        std::shared_ptr<const SecureLayout> layout; //!< null for raw
        std::size_t count = 0;
    };

    /** Find/carve space for a footprint of @p footprint bytes. */
    Addr carve(std::size_t footprint);

    /** Issue CFORMs establishing the block's security bytes. */
    void califormBlock(const Block &block, bool reused);

    /** Issue CFORMs blacklisting the whole block payload. */
    void califormFree(const Block &block);

    /** One CFORM (or functional fallback) for a single line. */
    void issueCform(Addr line_addr, std::uint64_t set_bits,
                    std::uint64_t mask);

    /** Per-line security mask the block's layout induces. */
    std::vector<std::pair<Addr, SecurityMask>>
    blockSecurityMasks(const Block &block) const;

    Machine &machine_;
    HeapParams params_;
    Addr bump_;
    HeapStats stats_;
    std::size_t liveBytes_ = 0;
    std::size_t quarantinedBytes_ = 0;
    std::unordered_map<Addr, Block> live_;
    std::deque<Block> quarantine_;
    std::unordered_map<std::size_t, std::vector<Block>> freeLists_;
};

} // namespace califorms

#endif // CALIFORMS_ALLOC_HEAP_HH
