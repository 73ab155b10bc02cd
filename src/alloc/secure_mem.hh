/**
 * @file secure_mem.hh
 * Whitelisted memcpy (Sections 4.2 and 6.3).
 *
 * memcpy-style functions legitimately sweep entire objects — including
 * their security bytes — so the paper whitelists them by raising the
 * exception mask around their bodies. secureMemcpy models that: it runs
 * its copy loop under a WhitelistGuard, so any security byte touch is
 * recorded as suppressed instead of delivered. The whitelisted access
 * rule is MemorySystem's (memsys.hh): a load reads zero for a security
 * byte, and a store commits only the bytes that are not security bytes,
 * so every security byte keeps reading zero. Copying between two
 * layouts therefore carries each data byte that lands on a data byte,
 * writes zero where the source has a security byte, drops what lands on
 * a destination security byte, and leaves the destination's blacklist
 * as it was.
 */

#ifndef CALIFORMS_ALLOC_SECURE_MEM_HH
#define CALIFORMS_ALLOC_SECURE_MEM_HH

#include "sim/machine.hh"

namespace califorms
{

/** Whitelisted memcpy: byte-wise copy of [src, src+n) to dst. */
void secureMemcpy(Machine &machine, Addr dst, Addr src, std::size_t n);

} // namespace califorms

#endif // CALIFORMS_ALLOC_SECURE_MEM_HH
