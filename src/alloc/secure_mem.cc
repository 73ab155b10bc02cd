#include "alloc/secure_mem.hh"

namespace califorms
{

void
secureMemcpy(Machine &machine, Addr dst, Addr src, std::size_t n)
{
    WhitelistGuard guard(machine.exceptions());
    std::size_t i = 0;
    while (i < n) {
        // Copy in the widest chunks that stay line-contained on both
        // sides, like an optimized memcpy would.
        std::size_t chunk = std::min<std::size_t>(8, n - i);
        while (chunk > 1 &&
               (lineOffset(src + i) + chunk > lineBytes ||
                lineOffset(dst + i) + chunk > lineBytes))
            --chunk;
        const std::uint64_t v =
            machine.load(src + i, static_cast<unsigned>(chunk));
        machine.store(dst + i, static_cast<unsigned>(chunk), v);
        i += chunk;
    }
}

} // namespace califorms
