#include "sim/memsys.hh"

#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/l1_variants.hh"
#include "core/sentinel.hh"

namespace califorms
{

MemorySystem::MemorySystem(const MemSysParams &params,
                           ExceptionUnit &exceptions, SharedMemory &shared)
    : params_(params), exceptions_(exceptions),
      l1_(params.l1Size, params.l1Ways, resolvedReplPolicy(params, 1)),
      shared_(&shared), mshr_(params.mshrEntries)
{
    coreId_ = shared_->attachPeer(*this);
}

MemorySystem::WbEntry *
MemorySystem::wbqFind(Addr line_addr)
{
    const std::uint64_t *seq = wbqIndex_.find(line_addr);
    return seq ? &wbq_[static_cast<std::size_t>(*seq - wbqHeadSeq_)]
               : nullptr;
}

const MemorySystem::WbEntry *
MemorySystem::wbqFind(Addr line_addr) const
{
    const std::uint64_t *seq = wbqIndex_.find(line_addr);
    return seq ? &wbq_[static_cast<std::size_t>(*seq - wbqHeadSeq_)]
               : nullptr;
}

void
MemorySystem::wbqTrimFront()
{
    while (!wbq_.empty() && !wbq_.front().live) {
        wbq_.pop_front();
        ++wbqHeadSeq_;
    }
}

void
MemorySystem::wbqErase(Addr line_addr)
{
    WbEntry *e = wbqFind(line_addr);
    assert(e && e->live && "wbqErase: entry must be live and indexed");
    e->live = false;
    wbqIndex_.erase(line_addr);
    --wbqLive_;
    wbqTrimFront();
}

SentinelView
MemorySystem::fetchBelowL1(Addr line_addr, Cycles &latency, bool &dirty,
                           bool for_write, Cycles *bank_wait)
{
    dirty = false;

    // The write-back queue sits between the L1 and the rest of the
    // hierarchy: a miss that matches a queued line pulls it straight
    // back (victim-buffer hit; the queue held the only copy, so the
    // refilled L1 line must stay dirty).
    if (const WbEntry *e = wbqFind(line_addr)) {
        latency += params_.wbHitLatency;
        ++stats_.wbHits;
        // Erasing may pop the entry off the queue, so its line moves
        // to the buffer first.
        fetchBuf_ = e->line;
        wbqErase(line_addr);
        dirty = true;
        return fetchBuf_.view();
    }

    const auto fetched = shared_->fetchLine(line_addr, latency, coreId_,
                                            for_write, fetchBuf_, now_);
    dirty = fetched.dirtyHandoff;
    if (bank_wait)
        *bank_wait = fetched.bankQueueWait;
    return fetched.line;
}

MemorySystem::L1Ref
MemorySystem::refillL1(Addr line_addr, Cycles &latency, bool for_write)
{
    // Non-blocking timing: an L1 refill needs a miss-status entry
    // before it can issue below. With MSHRs a full table is a
    // structural stall until the earliest outstanding fill retires its
    // entry; without them (but with banked DRAM timing on) the miss
    // path is blocking — each refill waits out the previous one.
    if (timingEnabled()) {
        if (params_.mshrEntries) {
            if (mshr_.occupancy(now_) >= params_.mshrEntries) {
                const Cycles ready = mshr_.earliestReady();
                const Cycles wait = ready - now_;
                mshr_.noteStall(wait);
                latency += wait;
                now_ = ready;
            }
        } else if (lastMissReady_ > now_) {
            const Cycles wait = lastMissReady_ - now_;
            latency += wait;
            now_ = lastMissReady_;
        }
    }
    const Cycles miss_entry = latency;

    bool dirty = false;
    Cycles bank_wait = 0;
    const SentinelView below =
        fetchBelowL1(line_addr, latency, dirty, for_write, &bank_wait);
    if (below.califormed()) {
        ++stats_.fills;
        stats_.fillConvCycles += params_.fillConvLatency;
        latency += params_.fillConvLatency;
    }

    // The victim is written back before the fill lands in its way. That
    // touches only the shared side, the queue and the directory, never
    // this L1 nor @c below: the line being filled missed in both the L1
    // and the queue, so no write-back writes its store data slot.
    const L1Ref resident = l1_.insertInPlace(
        line_addr, dirty,
        [this, &latency](Addr victim, const BitVectorLine &line,
                         bool victim_dirty) {
            writeBackL1(victim, line, victim_dirty, &latency);
        },
        [this, below](BitVectorLine &way) {
            fillLine(below, way);
            // Appendix A variants store the L1 line in a denser format;
            // route the fill through the corresponding codec (a
            // functional identity, exercising the encode/decode path
            // under real traffic).
            switch (params_.l1Format) {
            case L1Format::BitVector8B:
                break;
            case L1Format::Cal4B:
                way = decodeCal4B(encodeCal4B(way));
                break;
            case L1Format::Cal1B:
                way = decodeCal1B(encodeCal1B(way));
                break;
            }
        });

    // Simplified hardware streamer: on a demand miss, pull the next
    // line into the first level below the L1 as well. Latency is hidden
    // and demand hit/miss statistics are untouched; DRAM bandwidth is
    // still paid. Meaningless (and skipped) when the L1 talks straight
    // to DRAM, and a line waiting in the write-back queue is newer than
    // anything below, so it is never prefetched over.
    if (params_.nextLinePrefetch && shared_->levelCount()) {
        const Addr next = line_addr + lineBytes;
        if (!wbqFind(next) && !l1_.peek(next))
            shared_->prefetchInto(next);
    }

    // Everything since the entry check — the fetch below, any fill
    // conversion, and any victim spill charged to this access — plus
    // any time the DRAM transfer queued behind a busy bank (carried
    // here, not in the charged latency) — is the fill time this
    // refill's miss-status entry stays live for.
    if (timingEnabled()) {
        const Cycles fill_done = now_ + (latency - miss_entry) + bank_wait;
        if (params_.mshrEntries)
            mshr_.allocate(line_addr, fill_done, now_);
        else
            lastMissReady_ = fill_done;
    }

    return resident;
}

void
MemorySystem::writeBackL1(Addr line_addr, const BitVectorLine &line,
                          bool dirty, Cycles *latency)
{
    // A clean L1 line matches what the rest of the hierarchy already
    // holds; dropping it is safe and models a silent eviction (the
    // directory is told so its sharer tracking stays exact).
    if (!dirty) {
        shared_->noteDropped(coreId_, line_addr);
        return;
    }
    if (line.califormed()) {
        ++stats_.spills;
        stats_.spillConvCycles += params_.spillConvLatency;
        if (latency)
            *latency += params_.spillConvLatency;
    }
    if (params_.wbQueueEntries)
        spillLine(line, enqueueWriteBack(line_addr));
    else
        spillBelowNow(line_addr, line);
}

SentinelLine &
MemorySystem::enqueueWriteBack(Addr line_addr)
{
    // A line can be pushed below twice without an intervening fetch
    // (the non-temporal CFORM path); the newer copy supersedes the
    // queued one.
    if (WbEntry *e = wbqFind(line_addr))
        return e->line;
    wbqIndex_[line_addr] = wbqHeadSeq_ + wbq_.size();
    WbEntry &entry = wbq_.emplace_back(WbEntry{line_addr, {}, true});
    ++wbqLive_;
    ++stats_.wbEnqueued;
    if (wbqLive_ > stats_.wbPeakOccupancy)
        stats_.wbPeakOccupancy = wbqLive_;
    if (wbqLive_ > params_.wbQueueEntries) {
        // Over capacity means at least one older live entry, so the
        // drain pops that one; popping the front of a deque leaves
        // references to the other entries valid.
        ++stats_.wbForcedDrains;
        drainOneWriteBack();
    }
    return entry.line;
}

void
MemorySystem::drainOneWriteBack()
{
    wbqTrimFront();
    if (wbq_.empty())
        return;
    // The spill reaches only the shared side, so the entry is read in
    // place and popped afterwards.
    const WbEntry &entry = wbq_.front();
    spillBelowNow(entry.lineAddr, entry.line);
    wbqIndex_.erase(entry.lineAddr);
    wbq_.pop_front();
    ++wbqHeadSeq_;
    --wbqLive_;
}

CoherencePeer::Surrender
MemorySystem::surrenderLine(Addr line_addr, bool invalidate)
{
    Surrender s;
    // An invalidated line leaves the core entirely, so a fill still
    // outstanding for it is cancelled: nothing can coalesce with it
    // afterwards (the requester's recall carries the data now).
    if (params_.mshrEntries && invalidate)
        mshr_.cancel(line_addr);
    if (BitVectorLine *line = l1_.peek(line_addr)) {
        s.hadCopy = true;
        if (l1_.dirtyAt(line_addr)) {
            s.dirty = true;
            if (line->califormed()) {
                // A live dirty califormed line must be encoded back to
                // the sentinel format during the coherence action
                // (Algorithm 1, on the remote access's critical path).
                ++stats_.spills;
                s.converted = true;
            }
            spillLine(*line, s.line);
        }
        if (invalidate) {
            BitVectorLine dropped;
            bool was_dirty = false;
            l1_.extract(line_addr, dropped, was_dirty);
        } else {
            // Downgrade: keep a clean copy; the recalled data is
            // deposited into the shared side by the caller, so the
            // retained copy matches the hierarchy below it again.
            l1_.markClean(line_addr);
            s.retained = true;
        }
        return s;
    }
    // Queue entries are dirty by construction and always leave the core
    // whole; they were encoded when evicted, so no new conversion.
    if (const WbEntry *e = wbqFind(line_addr)) {
        s.hadCopy = true;
        s.dirty = true;
        s.line = e->line;
        wbqErase(line_addr);
        return s;
    }
    return s;
}

MemorySystem::AccessResult
MemorySystem::accessSegment(Addr addr, unsigned size, bool is_store,
                            std::uint64_t value)
{
    assert(size >= 1 && size <= 8);
    const Addr la = lineBase(addr);
    const unsigned off = lineOffset(addr);
    assert(off + size <= lineBytes && "segment must not cross lines");

    noteIssue();
    AccessResult res;
    res.latency =
        params_.l1Latency + l1FormatExtraLatency(params_.l1Format);

    L1Ref line = l1_.access(la);
    if (!line) {
        line = refillL1(la, res.latency, is_store);
    } else {
        res.latency += coalesceWait(la);
        if (is_store && coherentMulti())
            shared_->upgrade(coreId_, la, res.latency);
    }

    const std::uint64_t range = bitRange(off, size);
    const std::uint64_t overlap = line->mask & range;
    if (overlap != 0) {
        // Precise exception: report the first security byte touched.
        ++stats_.securityFaults;
        res.faulted = true;
        CaliformsException e;
        e.faultAddr = la + findFirstOne(overlap);
        e.kind = is_store ? AccessKind::Store : AccessKind::Load;
        e.reason = is_store ? FaultReason::StoreSecurityByte
                            : FaultReason::LoadSecurityByte;
        const bool delivered = exceptions_.raise(e);
        if (is_store) {
            // A delivered fault: the store never becomes
            // non-speculative and does not commit (Section 5.1). A
            // whitelisted one commits only its data bytes, so the
            // security bytes keep reading zero.
            if (!delivered) {
                for (unsigned i = 0; i < size; ++i, value >>= 8)
                    if (!((overlap >> (off + i)) & 1))
                        line->data.bytes[off + i] =
                            static_cast<std::uint8_t>(value);
                line.markDirty();
            }
            return res;
        }
    }

    // Byte i of the value is data[off + i], so the value is the low
    // `size` bytes of a little-endian word. The constant-size branch
    // makes the common 8-byte segment one move.
    static_assert(std::endian::native == std::endian::little,
                  "word-wide segment data assumes a little-endian host");
    std::uint8_t *const bytes = line->data.bytes.data() + off;
    if (is_store) {
        // A fault-free store: every byte is a data byte. The blacklist
        // metadata is never modified by ordinary stores.
        if (size == 8)
            std::memcpy(bytes, &value, 8);
        else
            std::memcpy(bytes, &value, size);
        line.markDirty();
    } else {
        std::uint64_t v = 0;
        if (size == 8)
            std::memcpy(&v, bytes, 8);
        else
            std::memcpy(&v, bytes, size);
        // Security bytes are canonically zero, so the pre-determined
        // zero value of Section 5.1 falls out of the data itself.
        res.value = v;
    }
    return res;
}

MemorySystem::AccessResult
MemorySystem::load(Addr addr, unsigned size)
{
    if (size == 0 || size > 8)
        throw std::invalid_argument("load: size must be 1..8");
    const unsigned off = lineOffset(addr);
    if (off + size <= lineBytes)
        return accessSegment(addr, size, false, 0);

    // Line-crossing access: split, combine values, sum latencies.
    const unsigned first = lineBytes - off;
    AccessResult a = accessSegment(addr, first, false, 0);
    AccessResult b = accessSegment(addr + first, size - first, false, 0);
    AccessResult res;
    res.latency = a.latency + b.latency;
    res.faulted = a.faulted || b.faulted;
    res.value = a.value | (b.value << (8 * first));
    return res;
}

MemorySystem::AccessResult
MemorySystem::store(Addr addr, unsigned size, std::uint64_t value)
{
    if (size == 0 || size > 8)
        throw std::invalid_argument("store: size must be 1..8");
    const unsigned off = lineOffset(addr);
    if (off + size <= lineBytes)
        return accessSegment(addr, size, true, value);

    const unsigned first = lineBytes - off;
    AccessResult a = accessSegment(addr, first, true, value);
    AccessResult b = accessSegment(addr + first, size - first, true,
                                   value >> (8 * first));
    AccessResult res;
    res.latency = a.latency + b.latency;
    res.faulted = a.faulted || b.faulted;
    return res;
}

MemorySystem::WideAccessResult
MemorySystem::wideLoad(Addr addr, unsigned size, SimdPolicy policy)
{
    if (size != 16 && size != 32 && size != 64)
        throw std::invalid_argument("wideLoad: size must be 16/32/64");
    if (addr % size != 0)
        throw std::invalid_argument("wideLoad: unaligned vector access");

    const Addr la = lineBase(addr);
    const unsigned off = lineOffset(addr);

    noteIssue();
    WideAccessResult res;
    res.latency = params_.l1Latency;

    L1Ref line = l1_.access(la);
    if (!line)
        line = refillL1(la, res.latency, false);
    else
        res.latency += coalesceWait(la);

    const std::uint64_t range = bitRange(off, size);
    const std::uint64_t overlap = line->mask & range;

    switch (policy) {
    case SimdPolicy::PreciseGather:
        // One gather element per 8B lane; each lane checks precisely.
        // Model the micro-op expansion as one extra cycle per lane.
        res.latency += size / 8;
        [[fallthrough]];

    case SimdPolicy::LineException:
        // Both policies raise the same precise fault on any
        // blacklisted byte in range; only the gather pays lane cycles.
        if (overlap) {
            ++stats_.securityFaults;
            res.faulted = true;
            CaliformsException e;
            e.faultAddr = la + findFirstOne(overlap);
            e.kind = AccessKind::Load;
            e.reason = FaultReason::LoadSecurityByte;
            exceptions_.raise(e);
        }
        break;

    case SimdPolicy::PropagateMask:
        // No exception here: the poison bits travel with the register
        // (one bit per byte) and trap at first use.
        res.registerMask = overlap >> off;
        break;
    }
    return res;
}

MemorySystem::AccessResult
MemorySystem::cform(const CformOp &op)
{
    if (lineOffset(op.lineAddr) != 0)
        throw std::invalid_argument("cform: unaligned line address");
    ++stats_.cformOps;

    noteIssue();
    AccessResult res;
    res.latency = params_.l1Latency;

    L1Ref line = l1_.access(op.lineAddr);
    if (line) {
        // Both variants update an L1-resident line in place.
        res.latency += coalesceWait(op.lineAddr);
        if (coherentMulti())
            shared_->upgrade(coreId_, op.lineAddr, res.latency);
    } else if (op.nonTemporal) {
        // Non-temporal variant: update the line beneath the L1 without
        // polluting the L1 (footnote 3 of Section 6.1).
        bool dirty = false;
        const SentinelView below =
            fetchBelowL1(op.lineAddr, res.latency, dirty, true);
        BitVectorLine decoded = fillLine(below);
        if (auto fault = applyCform(decoded, op)) {
            raiseCformFault(*fault, res);
            // fetchBelowL1 may have pulled the only up-to-date copy
            // out of the write-back queue; a faulting op must not
            // destroy it. Re-queue the untouched encoded line (no new
            // conversion happened, so no spill accounting). A clean
            // line is simply not kept, so the directory entry the
            // write fetch created is dropped with it.
            if (!dirty)
                shared_->noteDropped(coreId_, op.lineAddr);
            else if (params_.wbQueueEntries)
                enqueueWriteBack(op.lineAddr) = below.copy();
            else
                spillBelowNow(op.lineAddr, below.copy());
            return res;
        }
        writeBackL1(op.lineAddr, decoded, true, &res.latency);
        return res;
    } else {
        // Regular CFORM: store-like with write-allocate (Section 4.1).
        line = refillL1(op.lineAddr, res.latency, true);
    }

    // applyCform is atomic: a faulting op leaves the line untouched, and
    // the dirty bit is set only when the op commits.
    if (auto fault = applyCform(*line, op))
        raiseCformFault(*fault, res);
    else
        line.markDirty();
    return res;
}

void
MemorySystem::raiseCformFault(const CaliformsException &fault,
                              AccessResult &res)
{
    ++stats_.securityFaults;
    res.faulted = true;
    exceptions_.raise(fault);
}

bool
MemorySystem::peekPrivateLine(Addr line_addr, BitVectorLine &out) const
{
    if (const BitVectorLine *l1 = l1_.peek(line_addr)) {
        out = *l1;
        return true;
    }
    if (const WbEntry *e = wbqFind(line_addr)) {
        out = fillLine(e->line);
        return true;
    }
    return false;
}

bool
MemorySystem::pokePrivateLine(Addr line_addr, const BitVectorLine &line)
{
    if (BitVectorLine *l1 = l1_.peek(line_addr)) {
        *l1 = line;
        return true;
    }
    if (WbEntry *e = wbqFind(line_addr)) {
        spillLine(line, e->line);
        return true;
    }
    return false;
}

void
MemorySystem::flushPrivate()
{
    // Queued write-backs are older than anything still resident; drain
    // them into the hierarchy first so the level sweep below sees them.
    while (wbqLive_ > 0)
        drainOneWriteBack();

    l1_.forEachLine([this](Addr la, BitVectorLine &line, bool dirty) {
        if (!dirty) {
            shared_->noteDropped(coreId_, la);
            return;
        }
        // Conversion events are counted, but no conv-cycles: nothing
        // is charged latency during a flush (same convention as the
        // uncounted DRAM writes below).
        if (line.califormed())
            ++stats_.spills;
        spillBelowNow(la, line);
    });
    l1_.reset();
}

MemSysStats
MemorySystem::privateStats() const
{
    MemSysStats out = stats_;
    out.l1 = l1_.stats();
    out.mshrAllocations = mshr_.stats().allocations;
    out.mshrCoalesced = mshr_.stats().coalesced;
    out.mshrStallCycles = mshr_.stats().stallCycles;
    out.mshrPeakOccupancy = mshr_.stats().peakOccupancy;
    return out;
}

void
MemorySystem::clearStats()
{
    stats_ = MemSysStats{};
    // The queue's high-water mark restarts at its current occupancy:
    // whatever is queued now is already "in" the new measurement
    // window, so a window that never enqueues still reports it. The
    // MSHR table follows the same convention for fills still in
    // flight. Clocks and bank/row state are machine state, not
    // statistics; they carry across the window boundary.
    stats_.wbPeakOccupancy = wbqLive_;
    l1_.clearStats();
    mshr_.clearStats(now_);
    shared_->clearStats();
}

} // namespace califorms
