/**
 * @file cache_array.hh
 * A generic set-associative cache array parameterized on the stored
 * line payload. The L1 data cache stores BitVectorLine payloads
 * (califorms-bitvector); L2 and L3 store SentinelLine payloads
 * (califorms-sentinel). Timing lives in the hierarchy (memsys.hh);
 * this class is purely the tag/data array.
 *
 * Victim selection is delegated to a pluggable ReplacementPolicy
 * (sim/repl/policy.hh): the array owns tags, payloads, and dirty bits;
 * the policy owns all recency/prediction state and is driven through
 * onHit / onMiss / onInsert / victimWay / onInvalidate hooks. The
 * default Lru policy reproduces the historical hardwired true-LRU
 * byte for byte. Hooks carry LineMeta including whether the payload
 * is califormed, and evictions of califormed lines are counted in
 * CacheStats::cformEvictions so the policy laboratory can measure
 * whether scan-resistant policies preferentially evict
 * sentinel-carrying lines.
 */

#ifndef CALIFORMS_SIM_CACHE_ARRAY_HH
#define CALIFORMS_SIM_CACHE_ARRAY_HH

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/repl/policy.hh"
#include "util/types.hh"

namespace califorms
{

/** Hit/miss/eviction counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    /** Evictions whose victim payload carried blacklisted bytes. */
    std::uint64_t cformEvictions = 0;

    double
    missRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Whether @p line carries blacklisted bytes, for any payload shape:
 *  BitVectorLine exposes califormed() (mask != 0), SentinelLine a bool
 *  member; payloads with neither (the unit tests' int lines) are never
 *  califormed. */
template <typename LineT>
inline bool
lineCaliformed(const LineT &line)
{
    if constexpr (requires { static_cast<bool>(line.califormed()); })
        return static_cast<bool>(line.califormed());
    else if constexpr (requires { static_cast<bool>(line.califormed); })
        return static_cast<bool>(line.califormed);
    else
        return false;
}

template <typename LineT>
class CacheArray
{
  public:
    /** A line pushed out by insert(). */
    struct Evicted
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    CacheArray(std::size_t size_bytes, unsigned ways,
               ReplPolicy policy = ReplPolicy::Lru)
        : ways_(ways),
          sets_(ways ? size_bytes / (lineBytes * ways) : 0)
    {
        if (ways == 0 || sets_ == 0 ||
            size_bytes % (lineBytes * ways) != 0) {
            throw std::invalid_argument("CacheArray: bad geometry");
        }
        entries_.resize(sets_ * ways_);
        repl_ = repl::makePolicy(policy, sets_, ways_);
        cands_.resize(ways_);
    }

  private:
    struct Entry;

  public:
    /** A resident line: its payload and a handle on its dirty bit.
     *  Null on a miss. Valid until the next insert(), extract() or
     *  reset(). */
    class Ref
    {
      public:
        Ref() = default;

        explicit operator bool() const { return e_ != nullptr; }
        LineT &operator*() const { return e_->line; }
        LineT *operator->() const { return &e_->line; }

        /** Set the dirty bit. The owner calls this once the op that
         *  wrote the payload commits; a faulting op never does, so it
         *  leaves a clean line clean. */
        void markDirty() const { e_->dirty = true; }

      private:
        friend class CacheArray;
        explicit Ref(Entry *e) : e_(e) {}
        Entry *e_ = nullptr;
    };

    /** Demand lookup of @p line_addr: counts a hit or miss and notifies
     *  the policy. The returned Ref lets the caller set the dirty bit
     *  on commit without walking the set again. */
    Ref
    access(Addr line_addr)
    {
        Entry *e = lookup(line_addr);
        if (!e) {
            ++stats_.misses;
            repl_->onMiss(setIndex(line_addr));
            return Ref{};
        }
        ++stats_.hits;
        repl_->onHit(setIndex(line_addr), wayOf(e), metaOf(*e));
        return Ref{e};
    }

    /** Like access() but without touching stats or policy state: the
     *  line a caller just inserted, or a functional write. */
    Ref find(Addr line_addr) { return Ref{lookup(line_addr)}; }

    /** Look up without touching stats or policy state (functional
     *  peeks). */
    LineT *
    peek(Addr line_addr)
    {
        Entry *e = lookup(line_addr);
        return e ? &e->line : nullptr;
    }

    const LineT *
    peek(Addr line_addr) const
    {
        const Entry *e = lookup(line_addr);
        return e ? &e->line : nullptr;
    }

    /** Insert a line, evicting the policy's victim if the set is full.
     *  An existing copy of the same line is overwritten in place with
     *  the dirty bits merged; the overwrite counts as a reference
     *  (onHit), so an upgrade-write refreshes recency under every
     *  policy. */
    Evicted
    insert(Addr line_addr, LineT line, bool dirty)
    {
        const std::size_t set = setIndex(line_addr);
        Entry *match = nullptr;
        Entry *invalid = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[set * ways_ + w];
            if (e.valid && e.lineAddr == line_addr) {
                match = &e;
                break;
            }
            if (!e.valid && !invalid)
                invalid = &e;
        }

        Evicted out;
        if (match) {
            match->dirty = match->dirty || dirty;
            match->line = std::move(line);
            repl_->onHit(set, wayOf(match), metaOf(*match));
            return out;
        }

        Entry *slot = invalid;
        if (!slot) {
            for (unsigned w = 0; w < ways_; ++w)
                cands_[w] = metaOf(entries_[set * ways_ + w]);
            const unsigned victim =
                repl_->victimWay(set, cands_.data(), ways_);
            if (victim >= ways_)
                throw std::logic_error(
                    "ReplacementPolicy: victim way out of range");
            slot = &entries_[set * ways_ + victim];
            out.valid = true;
            out.dirty = slot->dirty;
            out.lineAddr = slot->lineAddr;
            out.line = std::move(slot->line);
            ++stats_.evictions;
            if (slot->dirty)
                ++stats_.dirtyEvictions;
            if (lineCaliformed(out.line))
                ++stats_.cformEvictions;
        }
        slot->valid = true;
        slot->dirty = dirty;
        slot->lineAddr = line_addr;
        slot->line = std::move(line);
        repl_->onInsert(set, wayOf(slot), metaOf(*slot));
        return out;
    }

    /** Clear the dirty bit of a resident line (coherence downgrade:
     *  the owner keeps a now-clean copy after its data was recalled). */
    void
    markClean(Addr line_addr)
    {
        if (Entry *e = lookup(line_addr))
            e->dirty = false;
    }

    /** Dirty bit of a resident line (false when absent). */
    bool
    dirtyAt(Addr line_addr) const
    {
        const Entry *e = lookup(line_addr);
        return e && e->dirty;
    }

    /** Remove @p line_addr if present; returns true and fills the outs. */
    bool
    extract(Addr line_addr, LineT &line_out, bool &dirty_out)
    {
        Entry *e = lookup(line_addr);
        if (!e)
            return false;
        line_out = std::move(e->line);
        dirty_out = e->dirty;
        e->valid = false;
        e->dirty = false;
        repl_->onInvalidate(setIndex(line_addr), wayOf(e));
        return true;
    }

    /** Visit every valid line (used by flush). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (auto &e : entries_)
            if (e.valid)
                fn(e.lineAddr, e.line, e.dirty);
    }

    /** Drop everything without write-back (only safe after a flush). */
    void
    reset()
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid)
                repl_->onInvalidate(i / ways_,
                                    static_cast<unsigned>(i % ways_));
            e.valid = false;
            e.dirty = false;
        }
    }

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }
    std::size_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    struct Entry
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>((line_addr >> lineShift) % sets_);
    }

    /** Shared body of the const and non-const lookup overloads: the
     *  constness of @p self propagates to the returned Entry pointer,
     *  so neither caller needs a const_cast. */
    template <typename Self>
    static auto
    lookupImpl(Self &self, Addr line_addr) -> decltype(self.entries_.data())
    {
        const std::size_t set = self.setIndex(line_addr);
        for (unsigned w = 0; w < self.ways_; ++w) {
            auto &e = self.entries_[set * self.ways_ + w];
            if (e.valid && e.lineAddr == line_addr)
                return &e;
        }
        return nullptr;
    }

    Entry *lookup(Addr line_addr) { return lookupImpl(*this, line_addr); }

    const Entry *
    lookup(Addr line_addr) const
    {
        return lookupImpl(*this, line_addr);
    }

    unsigned
    wayOf(const Entry *e) const
    {
        return static_cast<unsigned>(
            static_cast<std::size_t>(e - entries_.data()) % ways_);
    }

    repl::LineMeta
    metaOf(const Entry &e) const
    {
        return {e.lineAddr, e.dirty, lineCaliformed(e.line)};
    }

    unsigned ways_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    std::unique_ptr<repl::ReplacementPolicy> repl_;
    std::vector<repl::LineMeta> cands_; //!< victimWay scratch
    CacheStats stats_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_CACHE_ARRAY_HH
