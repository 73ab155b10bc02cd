#include "sim/main_memory.hh"

#include <bit>
#include <stdexcept>
#include <string>

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

const SentinelLine *
MainMemory::find(Addr line_addr, const char *what) const
{
    checkAligned(line_addr, what);
    const auto *page = pages_.find(line_addr >> kPageShift);
    return page ? &(*page)->lines[slotOf(line_addr)] : nullptr;
}

SentinelLine
MainMemory::readLine(Addr line_addr)
{
    const SentinelLine *line = find(line_addr, "read");
    ++reads_;
    return line ? *line : SentinelLine{};
}

SentinelLine
MainMemory::peekLine(Addr line_addr) const
{
    const SentinelLine *line = find(line_addr, "peek");
    return line ? *line : SentinelLine{};
}

void
MainMemory::writeLine(Addr line_addr, const SentinelLine &line)
{
    checkAligned(line_addr, "write");
    ++writes_;
    std::unique_ptr<Page> &page = pages_[line_addr >> kPageShift];
    if (!page)
        page = std::make_unique<Page>();
    const unsigned slot = slotOf(line_addr);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if (!(page->present & bit)) {
        page->present |= bit;
        ++backed_;
    }
    page->lines[slot] = line;
}

std::size_t
MainMemory::califormedLines() const
{
    std::size_t n = 0;
    pages_.forEach([&n](Addr, const std::unique_ptr<Page> &page) {
        for (std::uint64_t rest = page->present; rest; rest &= rest - 1)
            if (page->lines[std::countr_zero(rest)].califormed)
                ++n;
    });
    return n;
}

} // namespace califorms
