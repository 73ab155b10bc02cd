/**
 * @file line_map.hh
 * A small open-addressed hash map keyed by a line address or a page
 * number: the per-line tables of the miss path (the MSI directory, the
 * write-back-queue index, the DRAM page table).
 *
 * Keys and values sit in two parallel power-of-two slot arrays probed
 * linearly from a Fibonacci-hashed home slot. The load factor stays at
 * or below 1/2 (the arrays double on growth), so a lookup touches one
 * or two cache lines of keys and never allocates. An empty slot holds
 * the key ~Addr{0}, which no line address (64-byte aligned) or page
 * number (an address shifted right) can take — the same trick as
 * CacheArray's empty tag. Erase shifts the rest of the probe chain
 * back instead of leaving a tombstone, so chains never lengthen with
 * churn.
 *
 * Pointer stability: operator[] may rehash and erase may move other
 * entries, so both invalidate every pointer returned by find or
 * operator[]. forEach walks slots in array order, which depends on the
 * insertion and erase history, so a caller must not let that order
 * reach a result (sums and counts are fine).
 */

#ifndef CALIFORMS_SIM_LINE_MAP_HH
#define CALIFORMS_SIM_LINE_MAP_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace califorms
{

template <typename V>
class LineMap
{
  public:
    /** The key no entry may use: it marks an empty slot. */
    static constexpr Addr kEmptyKey = ~Addr{0};

    LineMap() { rehash(kMinSlots); }

    /** The value stored under @p key, or null. */
    V *
    find(Addr key)
    {
        const std::size_t i = slotOf(key);
        return keys_[i] == key ? &values_[i] : nullptr;
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = slotOf(key);
        return keys_[i] == key ? &values_[i] : nullptr;
    }

    /** The value stored under @p key, default-inserted when absent. */
    V &
    operator[](Addr key)
    {
        std::size_t i = slotOf(key);
        if (keys_[i] == key)
            return values_[i];
        if (2 * (size_ + 1) > keys_.size()) {
            rehash(2 * keys_.size());
            i = slotOf(key);
        }
        keys_[i] = key;
        ++size_;
        return values_[i];
    }

    /** Remove @p key; a no-op when absent. */
    void
    erase(Addr key)
    {
        std::size_t hole = slotOf(key);
        if (keys_[hole] != key)
            return;
        --size_;
        // Backward shift: walk the chain after the hole and pull back
        // every entry whose home slot does not lie in (hole, j], so
        // each stays reachable from its home without a tombstone.
        for (std::size_t j = (hole + 1) & mask_; keys_[j] != kEmptyKey;
             j = (j + 1) & mask_) {
            const std::size_t home = homeOf(keys_[j]);
            if (((j - home) & mask_) < ((j - hole) & mask_))
                continue;
            keys_[hole] = keys_[j];
            values_[hole] = std::move(values_[j]);
            hole = j;
        }
        keys_[hole] = kEmptyKey;
        values_[hole] = V{};
    }

    std::size_t size() const { return size_; }

    /** Call @p fn(key, value) once per entry. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], values_[i]);
    }

  private:
    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    homeOf(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    /** The slot holding @p key, or the empty slot ending its chain. */
    std::size_t
    slotOf(Addr key) const
    {
        assert(key != kEmptyKey && "LineMap: reserved key");
        std::size_t i = homeOf(key);
        while (keys_[i] != key && keys_[i] != kEmptyKey)
            i = (i + 1) & mask_;
        return i;
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Addr> keys(slots, kEmptyKey);
        std::vector<V> values(slots);
        keys.swap(keys_);
        values.swap(values_);
        mask_ = slots - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == kEmptyKey)
                continue;
            const std::size_t j = slotOf(keys[i]);
            keys_[j] = keys[i];
            values_[j] = std::move(values[i]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> values_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace califorms

#endif // CALIFORMS_SIM_LINE_MAP_HH
