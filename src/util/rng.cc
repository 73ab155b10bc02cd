#include "util/rng.hh"

namespace califorms
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state)
        s = splitmix64(sm);
}

} // namespace califorms
