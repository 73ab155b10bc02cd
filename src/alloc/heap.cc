#include "alloc/heap.hh"

#include <algorithm>
#include <stdexcept>

namespace califorms
{

namespace
{

/** Mark [start, start+len) in a per-line mask vector. */
void
markRange(std::vector<SecurityMask> &masks, std::size_t start,
          std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const std::size_t b = start + i;
        masks[b / lineBytes] |= 1ull << (b % lineBytes);
    }
}

} // namespace

HeapAllocator::HeapAllocator(Machine &machine, HeapParams params)
    : machine_(machine), params_(params),
      bump_(lineBase(params.heapBase + lineBytes - 1))
{
}

std::vector<std::pair<Addr, SecurityMask>>
HeapAllocator::blockSecurityMasks(const Block &block) const
{
    const std::size_t n_lines = block.footprint / lineBytes;
    std::vector<SecurityMask> masks(n_lines, 0);

    const std::size_t front = block.payload - block.blockBase;
    markRange(masks, 0, front);
    markRange(masks, front + block.payloadBytes,
              block.footprint - front - block.payloadBytes);

    if (block.layout) {
        for (std::size_t e = 0; e < block.count; ++e) {
            const std::size_t elem = front + e * block.layout->size;
            for (const auto &span : block.layout->securityBytes)
                markRange(masks, elem + span.offset, span.size);
        }
    }

    std::vector<std::pair<Addr, SecurityMask>> out;
    out.reserve(n_lines);
    for (std::size_t i = 0; i < n_lines; ++i)
        out.emplace_back(block.blockBase + i * lineBytes, masks[i]);
    return out;
}

void
HeapAllocator::issueCform(Addr line_addr, std::uint64_t set_bits,
                          std::uint64_t mask)
{
    if (!params_.useCform || mask == 0)
        return;
    CformOp op;
    op.lineAddr = line_addr;
    op.setBits = set_bits;
    op.mask = mask;
    op.nonTemporal = params_.nonTemporalCform;
    machine_.cform(op);
    ++stats_.cformsIssued;
}

void
HeapAllocator::califormBlock(const Block &block, bool reused)
{
    for (const auto &[la, desired] : blockSecurityMasks(block)) {
        if (reused) {
            // Clean before use: the whole line is currently blacklisted;
            // clear exactly the bytes that become data (Section 6.1).
            issueCform(la, 0, ~desired);
        } else {
            // Fresh memory: establish the security bytes.
            issueCform(la, desired, desired);
        }
    }
}

void
HeapAllocator::califormFree(const Block &block)
{
    for (const auto &[la, current] : blockSecurityMasks(block)) {
        // Blacklist every byte that is currently data; hardware zeroes
        // the bytes as it sets them (zero on free, Section 7.2).
        issueCform(la, ~current, ~current);
    }
}

Addr
HeapAllocator::carve(std::size_t footprint)
{
    auto it = freeLists_.find(footprint);
    if (it != freeLists_.end() && !it->second.empty()) {
        const Addr base = it->second.back().blockBase;
        it->second.pop_back();
        ++stats_.reuses;
        return base;
    }
    const Addr base = bump_;
    bump_ += footprint;
    stats_.peakHeapBytes =
        std::max<std::uint64_t>(stats_.peakHeapBytes,
                                bump_ - lineBase(params_.heapBase +
                                                 lineBytes - 1));
    return base;
}

Addr
HeapAllocator::allocate(std::shared_ptr<const SecureLayout> layout,
                        std::size_t count)
{
    if (!layout || count == 0)
        throw std::invalid_argument("allocate: bad layout/count");

    Block block;
    block.layout = layout;
    block.count = count;
    block.payloadBytes = layout->size * count;

    const std::size_t align = std::max<std::size_t>(layout->align, 8);
    const std::size_t front = roundUp(params_.guardBytes, align);
    block.footprint = roundUp(front + block.payloadBytes +
                                  params_.guardBytes,
                              lineBytes);

    const bool reused_candidate =
        freeLists_.count(block.footprint) &&
        !freeLists_.at(block.footprint).empty();
    block.blockBase = carve(block.footprint);
    block.payload = block.blockBase + front;

    califormBlock(block, reused_candidate);

    ++stats_.allocs;
    stats_.bytesAllocated += block.payloadBytes;
    liveBytes_ += block.payloadBytes;
    live_.emplace(block.payload, block);
    return block.payload;
}

Addr
HeapAllocator::allocateRaw(std::size_t bytes)
{
    if (bytes == 0)
        throw std::invalid_argument("allocateRaw: zero size");

    Block block;
    block.payloadBytes = bytes;
    const std::size_t front = roundUp(params_.guardBytes, 8);
    block.footprint =
        roundUp(front + bytes + params_.guardBytes, lineBytes);

    const bool reused_candidate =
        freeLists_.count(block.footprint) &&
        !freeLists_.at(block.footprint).empty();
    block.blockBase = carve(block.footprint);
    block.payload = block.blockBase + front;

    califormBlock(block, reused_candidate);

    ++stats_.allocs;
    stats_.bytesAllocated += bytes;
    liveBytes_ += bytes;
    live_.emplace(block.payload, block);
    return block.payload;
}

void
HeapAllocator::free(Addr addr)
{
    auto it = live_.find(addr);
    if (it == live_.end())
        throw std::invalid_argument("free: not a live allocation");
    Block block = it->second;
    live_.erase(it);

    califormFree(block);

    ++stats_.frees;
    liveBytes_ -= block.payloadBytes;
    quarantinedBytes_ += block.footprint;
    quarantine_.push_back(std::move(block));

    // Recycle the oldest quarantined blocks once the quarantine exceeds
    // its share of the heap high-water mark.
    const auto limit = static_cast<std::size_t>(
        params_.quarantineFraction *
        static_cast<double>(stats_.peakHeapBytes));
    while (!quarantine_.empty() && quarantinedBytes_ > limit) {
        Block old = std::move(quarantine_.front());
        quarantine_.pop_front();
        quarantinedBytes_ -= old.footprint;
        freeLists_[old.footprint].push_back(std::move(old));
    }
}

Addr
HeapAllocator::reallocate(Addr addr, std::size_t new_count)
{
    auto it = live_.find(addr);
    if (it == live_.end())
        throw std::invalid_argument("reallocate: not a live allocation");
    if (new_count == 0)
        throw std::invalid_argument("reallocate: zero size");
    const Block old = it->second;

    Addr moved;
    std::size_t copy_bytes;
    if (old.layout) {
        moved = allocate(old.layout, new_count);
        copy_bytes =
            std::min(old.payloadBytes, old.layout->size * new_count);
    } else {
        moved = allocateRaw(new_count);
        copy_bytes = std::min(old.payloadBytes, new_count);
    }

    // The instrumented memcpy skips the intra-object security bytes
    // (identical in both blocks: same layout); functional peek/poke —
    // the library copy is whitelisted, so no timing or exceptions.
    for (std::size_t i = 0; i < copy_bytes; ++i) {
        if (old.layout &&
            old.layout->isSecurityByte(i % old.layout->size))
            continue;
        machine_.pokeByte(moved + i, machine_.peekByte(addr + i));
    }

    free(addr);
    return moved;
}

bool
HeapAllocator::isLive(Addr addr) const
{
    for (const auto &[base, block] : live_)
        if (addr >= base && addr < base + block.payloadBytes)
            return true;
    return false;
}

} // namespace califorms
