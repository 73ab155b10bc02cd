#include "sim/shared_mem.hh"

#include <cassert>
#include <stdexcept>

#include "core/sentinel.hh"
#include "sim/memsys.hh"

namespace califorms
{

SharedMemory::SharedMemory(const MemSysParams &params)
    : params_(params), dram_(params)
{
    if (params.levels < 1 || params.levels > 3)
        throw std::invalid_argument("SharedMemory: levels must be 1..3");
    if (params.levels >= 2 && params.l2Size)
        below_.push_back(Level{
            CacheArray<SharedTag>(params.l2Size, params.l2Ways,
                                  resolvedReplPolicy(params, 2)),
            params.l2Latency, 2});
    if (params.levels >= 3 && params.l3Size)
        below_.push_back(Level{
            CacheArray<SharedTag>(params.l3Size, params.l3Ways,
                                  resolvedReplPolicy(params, 3)),
            params.l3Latency, 3});
}

unsigned
SharedMemory::attachPeer(CoherencePeer &peer)
{
    if (peers_.size() >= 32)
        throw std::invalid_argument(
            "SharedMemory: at most 32 cores (directory bitmask width)");
    peers_.push_back(&peer);
    return static_cast<unsigned>(peers_.size() - 1);
}

bool
SharedMemory::probeHolders(Addr line_addr, unsigned core, bool for_write,
                           Cycles &latency, SentinelLine &recalled)
{
    DirEntry *entry = directory_.find(line_addr);
    if (!entry)
        return false;
    // Held across the peers' surrenderLine calls below: they only drop
    // private copies and never touch the directory, so no insert or
    // erase can move the entry underneath this reference.
    DirEntry &d = *entry;
    [[maybe_unused]] const std::size_t entries = directory_.size();
    bool have = false;

    auto recall = [&](const CoherencePeer::Surrender &s) {
        ++stats_.dirtyRecalls;
        // The remote L1 must be probed for its data: one L1 access.
        latency += params_.l1Latency;
        if (s.converted) {
            // Conversion under invalidation: the victim had to encode
            // a live califormed line during the coherence action, and
            // the requester waits for it.
            ++stats_.convUnderInval;
            stats_.coherenceConvCycles += params_.spillConvLatency;
            latency += params_.spillConvLatency;
        }
        recalled = s.line;
        have = true;
    };

    if (for_write) {
        // Invalidate every other holder, in core order (deterministic).
        const std::uint32_t others = d.sharers & ~(1u << core);
        for (unsigned c = 0; c < peers_.size(); ++c) {
            if (!(others & (1u << c)))
                continue;
            ++stats_.invalidationsSent;
            const auto s = peers_[c]->surrenderLine(line_addr, true);
            d.sharers &= ~(1u << c);
            if (d.owner == static_cast<int>(c))
                d.owner = -1;
            if (s.dirty)
                recall(s);
        }
    } else if (d.owner >= 0 && d.owner != static_cast<int>(core)) {
        // Read of a modified line: downgrade only the owner; plain
        // sharers are already compatible with another reader.
        const unsigned c = static_cast<unsigned>(d.owner);
        const auto s = peers_[c]->surrenderLine(line_addr, false);
        d.owner = -1;
        if (!s.retained)
            d.sharers &= ~(1u << c);
        if (s.dirty)
            recall(s);
    }

    assert(directory_.size() == entries &&
           "surrenderLine must not touch the directory");
    if (d.sharers == 0 && d.owner < 0)
        directory_.erase(line_addr);
    return have;
}

SharedMemory::FetchResult
SharedMemory::fetchLine(Addr line_addr, Cycles &latency, unsigned core,
                        bool for_write, SentinelLine &handoff,
                        Cycles issue_time)
{
    FetchResult out;
    const Cycles entry_latency = latency;
    // The store holds this line's newest shared-side value whichever
    // level hits, so look it up now and start the host's fetch of its
    // payload under the probes and the tag walk below. Only the read
    // recall deposit writes this line before the view is handed out.
    out.line = memory_.peek(line_addr);
    __builtin_prefetch(out.line.data);

    if (coherent()) {
        if (probeHolders(line_addr, core, for_write, latency, handoff)) {
            if (for_write) {
                // The recall is the only up-to-date copy; hand it
                // straight to the requester, which must keep it dirty.
                out.line = handoff.view();
                out.dirtyHandoff = true;
                DirEntry &d = directory_[line_addr];
                d.sharers = 1u << core;
                d.owner = static_cast<int>(core);
                return out;
            }
            // Read recall: deposit the dirty data into the shared side
            // so the downgraded owner and the requester can both hold
            // clean copies that match the hierarchy below them.
            writeBack(line_addr, handoff);
            out.line = memory_.peek(line_addr);
        }
    }

    std::size_t hit = below_.size();
    for (std::size_t k = 0; k < below_.size(); ++k) {
        latency += below_[k].latency + params_.extraL2L3Latency;
        if (below_[k].array.access(line_addr)) {
            hit = k;
            break;
        }
    }
    if (hit == below_.size()) {
        if (dram_.enabled()) {
            // Place the access on the bank timeline at the requester's
            // clock plus whatever the probe/level walk already cost.
            // Only the service is charged; the queue wait rides in the
            // fill completion time (FetchResult::bankQueueWait).
            const DramTiming::ServiceTime t = dram_.access(
                line_addr, issue_time + (latency - entry_latency));
            latency += t.service;
            out.bankQueueWait = t.queueWait;
        } else {
            latency += params_.dramLatency;
        }
        ++stats_.dramAccesses;
        // The long DRAM service is the requester's write-back drain
        // window: one queued write-back rides the otherwise idle bus.
        // Short L2/LLC hits give no such slack, so eviction-heavy
        // traffic that stays on-chip genuinely pressures the queue.
        // The drained line is never this one: a queued copy is a
        // write-back-queue hit before the fetch reaches this side.
        peers_[core]->drainOneWriteBack();
    }
    // Fill the levels above the hit on the way up, deepest first
    // (mostly-inclusive hierarchy).
    const SharedTag tag{out.line.califormed()};
    for (std::size_t j = hit; j-- > 0;) {
        auto ev = below_[j].array.insert(line_addr, tag, false);
        if (ev.valid)
            writeBackLevel(j, ev);
    }

    if (coherent()) {
        DirEntry &d = directory_[line_addr];
        d.sharers |= 1u << core;
        if (for_write) {
            d.sharers = 1u << core;
            d.owner = static_cast<int>(core);
        }
    }
    return out;
}

void
SharedMemory::upgrade(unsigned core, Addr line_addr, Cycles &latency)
{
    if (!coherent())
        return;
    if (const DirEntry *d = directory_.find(line_addr);
        d && d->owner == static_cast<int>(core))
        return; // already the modified owner: nothing to do
    SentinelLine recalled;
    if (probeHolders(line_addr, core, /*for_write=*/true, latency,
                     recalled)) {
        // A dirty copy elsewhere should be impossible while this core
        // holds the line; deposit it below rather than lose data. The
        // upgrading core's own (newer) copy overwrites it on eviction.
        writeBack(line_addr, recalled);
    }
    DirEntry &d = directory_[line_addr];
    d.sharers = 1u << core;
    d.owner = static_cast<int>(core);
}

void
SharedMemory::writeBack(Addr line_addr, const SentinelLine &line)
{
    memory_.writeLine(line_addr, line);
    writeBackTag(line_addr, line.califormed);
}

void
SharedMemory::writeBack(Addr line_addr, const BitVectorLine &line)
{
    memory_.writeEncoded(line_addr, line);
    writeBackTag(line_addr, line.califormed());
}

void
SharedMemory::writeBackTag(Addr line_addr, bool califormed)
{
    if (below_.empty()) {
        ++stats_.dramAccesses;
        if (dram_.enabled())
            dram_.occupy(line_addr);
        return;
    }
    const SharedTag tag{califormed};
    auto ev = below_[0].array.insert(line_addr, tag, true);
    if (ev.valid)
        writeBackLevel(0, ev);
}

void
SharedMemory::writeBackLevel(std::size_t level,
                             const CacheArray<SharedTag>::Evicted &ev)
{
    if (!ev.dirty)
        return;
    if (level + 1 < below_.size()) {
        auto next =
            below_[level + 1].array.insert(ev.lineAddr, ev.line, true);
        if (next.valid)
            writeBackLevel(level + 1, next);
    } else {
        ++stats_.dramAccesses;
        if (dram_.enabled())
            dram_.occupy(ev.lineAddr);
    }
}

void
SharedMemory::noteDropped(unsigned core, Addr line_addr)
{
    if (!coherent())
        return;
    DirEntry *d = directory_.find(line_addr);
    if (!d)
        return;
    d->sharers &= ~(1u << core);
    if (d->owner == static_cast<int>(core))
        d->owner = -1;
    if (d->sharers == 0 && d->owner < 0)
        directory_.erase(line_addr);
}

void
SharedMemory::prefetchInto(Addr line_addr)
{
    if (below_.empty())
        return;
    if (below_[0].array.peek(line_addr))
        return;
    if (coherent()) {
        const DirEntry *d = directory_.find(line_addr);
        if (d && d->owner >= 0)
            return; // a core owns it modified; never prefetch over it
    }
    std::size_t found = 1;
    while (found < below_.size() && !below_[found].array.peek(line_addr))
        ++found;
    if (found == below_.size()) {
        ++stats_.dramAccesses;
        // Prefetches hide their latency but still occupy a bank (and
        // can move the open row under the demand stream).
        if (dram_.enabled())
            dram_.occupy(line_addr);
    }
    const SharedTag tag{memory_.califormed(line_addr)};
    for (std::size_t j = found; j-- > 0;) {
        auto ev = below_[j].array.insert(line_addr, tag, false);
        if (ev.valid)
            writeBackLevel(j, ev);
    }
}

void
SharedMemory::flushLevels()
{
    // Cascade each level's dirty tags into the next; the deepest
    // level's dirty lines go to DRAM, whose contents the store already
    // holds (device traffic after the measurement window — not counted,
    // matching writeBackLevel's callers' view of demand traffic only).
    for (std::size_t j = 0; j + 1 < below_.size(); ++j) {
        below_[j].array.forEachLine(
            [this, j](Addr la, const SharedTag &tag, bool dirty) {
                if (!dirty)
                    return;
                auto ev = below_[j + 1].array.insert(la, tag, true);
                if (ev.valid)
                    writeBackLevel(j + 1, ev);
            });
        below_[j].array.reset();
    }
    if (!below_.empty())
        below_.back().array.reset();
}

SentinelLine
SharedMemory::functionalRead(Addr line_addr) const
{
    return memory_.peek(line_addr).copy();
}

void
SharedMemory::functionalWrite(Addr line_addr, const SentinelLine &line)
{
    memory_.writeLine(line_addr, line);
    for (Level &level : below_) {
        if (const auto p = level.array.find(line_addr)) {
            p->califormed = line.califormed;
            p.markDirty();
            return;
        }
    }
}

MemSysStats
SharedMemory::stats() const
{
    MemSysStats out = stats_;
    for (const Level &level : below_)
        (level.id == 2 ? out.l2 : out.l3) = level.array.stats();
    const DramTimingStats &dram = dram_.stats();
    out.dramRowHits = dram.rowHits;
    out.dramRowMisses = dram.rowMisses;
    out.dramRowConflicts = dram.rowConflicts;
    out.dramBankConflictCycles = dram.bankConflictCycles;
    return out;
}

void
SharedMemory::clearStats()
{
    for (Level &level : below_)
        level.array.clearStats();
    stats_ = MemSysStats{};
    // Bank busy times and open rows are machine state, not statistics;
    // only the counters reset at a window boundary.
    dram_.clearStats();
}

} // namespace califorms
