#include "sim/main_memory.hh"

#include <stdexcept>
#include <string>

#include "core/sentinel.hh"

namespace califorms
{

namespace
{

constexpr unsigned kPageShift = 12;
static_assert(pageBytes == std::size_t{1} << kPageShift);

unsigned
slotOf(Addr line_addr)
{
    return static_cast<unsigned>((line_addr >> lineShift) &
                                 (linesPerPage - 1));
}

void
checkAligned(Addr line_addr, const char *what)
{
    if (lineOffset(line_addr) != 0)
        throw std::invalid_argument(
            std::string("MainMemory: unaligned line ") + what);
}

} // namespace

const MainMemory::PageEntry *
MainMemory::find(Addr line_addr, const char *what) const
{
    checkAligned(line_addr, what);
    return pages_.find(line_addr >> kPageShift);
}

SentinelView
MainMemory::peek(Addr line_addr) const
{
    static const LineData zero{};
    const PageEntry *entry = find(line_addr, "peek");
    if (!entry)
        return SentinelView{&zero, 0};
    const unsigned slot = slotOf(line_addr);
    const bool califormed = (entry->califormed >> slot) & 1;
    return SentinelView{&entry->page->data[slot],
                        califormed ? entry->page->masks[slot] : 0};
}

bool
MainMemory::califormed(Addr line_addr) const
{
    const PageEntry *entry = find(line_addr, "peek");
    return entry && ((entry->califormed >> slotOf(line_addr)) & 1);
}

MainMemory::Page &
MainMemory::backLine(Addr line_addr, bool califormed)
{
    checkAligned(line_addr, "write");
    PageEntry &entry = pages_[line_addr >> kPageShift];
    if (!entry.page)
        entry.page = std::make_unique<Page>();
    const std::uint64_t bit = std::uint64_t{1} << slotOf(line_addr);
    entry.califormed = califormed ? entry.califormed | bit
                                  : entry.califormed & ~bit;
    return *entry.page;
}

void
MainMemory::writeLine(Addr line_addr, const SentinelLine &line)
{
    Page &page = backLine(line_addr, line.califormed);
    const unsigned slot = slotOf(line_addr);
    page.data[slot] = line.raw;
    if (line.califormed)
        page.masks[slot] = decodeMask(line);
}

void
MainMemory::writeEncoded(Addr line_addr, const BitVectorLine &line)
{
    Page &page = backLine(line_addr, line.califormed());
    const unsigned slot = slotOf(line_addr);
    spillLine(line, page.data[slot]);
    if (line.califormed())
        page.masks[slot] = line.mask;
}

} // namespace califorms
