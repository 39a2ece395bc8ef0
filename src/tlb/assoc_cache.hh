/**
 * @file
 * Generic set-associative cache with true-LRU replacement.
 *
 * Shared machinery for the TLBs, page-walk caches, nested TLB, and the
 * sptr hardware cache. Keys are 64-bit; the set index is the low bits
 * of the key, the tag is the remainder.
 *
 * This is the inner loop of every simulated memory access, so the
 * layout is tuned for the probe path: each way's key sits next to its
 * generation in one 16-byte tag, the tag array starts on a host cache
 * line, so a 4-way set scan reads exactly one line; LRU stamps and
 * payloads live in their own flat arrays, touched only on a hit or an
 * insert. Bulk invalidation bumps a generation counter instead of
 * clearing lines — a line is live only when its stored generation
 * matches the cache's.
 */

#ifndef AGILEPAGING_TLB_ASSOC_CACHE_HH
#define AGILEPAGING_TLB_ASSOC_CACHE_HH

#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace ap
{

/** Allocator that starts every array on a 64-byte host cache line. */
template <typename T>
struct LineAlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    LineAlignedAllocator() = default;
    template <typename U>
    LineAlignedAllocator(const LineAlignedAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, kAlign);
    }

    bool operator==(const LineAlignedAllocator &) const { return true; }
    bool operator!=(const LineAlignedAllocator &) const { return false; }
};

/**
 * @tparam V payload stored per entry.
 */
template <typename V>
class AssocCache
{
  public:
    /**
     * @param entries total entry count (> 0)
     * @param ways    associativity; entries must divide evenly into
     *                sets. ways == entries gives a fully-associative
     *                cache.
     */
    AssocCache(std::size_t entries, std::size_t ways)
        : ways_(ways), sets_(entries / ways), entries_(entries)
    {
        ap_assert(entries > 0 && ways > 0, "bad cache geometry");
        ap_assert(entries % ways == 0, "entries not divisible by ways");
        // Every real TLB/PWC geometry has a power-of-two set count, so
        // the probe path indexes with a mask instead of a division; a
        // non-power-of-two geometry (tests, exotic configs) falls back
        // to the modulo path.
        if ((sets_ & (sets_ - 1)) == 0)
            set_mask_ = sets_ - 1;
        tags_.resize(entries); // generation 0 < gen_ = never live
        last_use_.resize(entries, 0);
        values_.resize(entries);
    }

    /**
     * Look up @p key; refreshes LRU on hit.
     * @return pointer to the payload, or nullptr on miss.
     */
    V *
    lookup(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNotFound)
            return nullptr;
        last_use_[i] = ++use_clock_;
        return &values_[i];
    }

    /** Look up without disturbing LRU state (for inspection). */
    const V *
    peek(std::uint64_t key) const
    {
        std::size_t i = findIndex(key);
        return i == kNotFound ? nullptr : &values_[i];
    }

    /**
     * Insert (or overwrite) @p key, evicting the set's LRU victim if
     * the set is full.
     * @return true if a valid entry was evicted.
     */
    bool
    insert(std::uint64_t key, V value)
    {
        std::size_t base = setBase(key);
        std::size_t victim = base;
        bool victim_live = false;
        bool first = true;
        for (std::size_t i = base; i < base + ways_; ++i) {
            bool live = tags_[i].gen == gen_;
            if (live && tags_[i].key == key) {
                values_[i] = std::move(value);
                last_use_[i] = ++use_clock_;
                return false;
            }
            // Victim choice (matches true LRU): the first dead way,
            // else the live way with the oldest use stamp.
            if (first) {
                victim = i;
                victim_live = live;
                first = false;
            } else if (victim_live &&
                       (!live || last_use_[i] < last_use_[victim])) {
                victim = i;
                victim_live = live;
            }
        }
        tags_[victim] = {key, gen_};
        values_[victim] = std::move(value);
        last_use_[victim] = ++use_clock_;
        return victim_live;
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNotFound)
            return false;
        tags_[i].gen = 0;
        return true;
    }

    /** Remove every entry matching @p pred(key, value). */
    template <typename Pred>
    void
    eraseIf(const Pred &pred)
    {
        for (std::size_t i = 0; i < entries_; ++i) {
            if (tags_[i].gen == gen_ && pred(tags_[i].key, values_[i]))
                tags_[i].gen = 0;
        }
    }

    /**
     * Remove every entry whose key lies in [@p first, @p last]
     * (first <= last). A range of fewer keys than the cache has sets
     * erases key by key, one set probe each; a wider one is a single
     * branch-free pass over the tags. Both kill exactly the live lines
     * with a key in range (insert never duplicates a key) and touch no
     * key, LRU stamp or other line, so the choice is invisible to every
     * later probe, insert and snapshot.
     */
    void
    eraseRange(std::uint64_t first, std::uint64_t last)
    {
        if (last - first < sets_ - 1) {
            for (std::uint64_t k = first;; ++k) {
                erase(k);
                if (k == last)
                    return;
            }
        }
        // Locals, not members: a store to a tag's generation could
        // alias gen_ or entries_ and would force a reload of both on
        // every line. The unsigned distance puts a key below first
        // out of range too, so one compare tests both bounds.
        Tag *tags = tags_.data();
        const std::size_t n = entries_;
        const std::uint64_t gen = gen_;
        const std::uint64_t span = last - first;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t kill =
                (tags[i].gen == gen) & (tags[i].key - first <= span);
            tags[i].gen &= kill - 1;
        }
    }

    /** Drop everything: O(1) generation bump, no line is touched. */
    void
    clear()
    {
        ++gen_;
    }

    /** Visit every live entry as @p fn(key, value) without disturbing
     *  LRU state (invariant sweeps, debugging). */
    template <typename Fn>
    void
    forEach(const Fn &fn) const
    {
        for (std::size_t i = 0; i < entries_; ++i) {
            if (tags_[i].gen == gen_)
                fn(tags_[i].key, values_[i]);
        }
    }

    /** Number of valid entries. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < entries_; ++i)
            n += tags_[i].gen == gen_;
        return n;
    }

    std::size_t capacity() const { return entries_; }
    std::size_t ways() const { return ways_; }

    /**
     * Snapshot support. Dead lines are serialized along with live ones
     * — their contents are unobservable through the probe path, but
     * copying them raw keeps future replacement decisions (which read
     * last_use_ of dead ways' successors) byte-for-byte identical.
     * Keys and generations go out as two length-prefixed arrays, so
     * the snapshot format does not depend on the in-memory tag layout.
     */
    void
    saveState(Serializer &s) const
    {
        static_assert(std::is_trivially_copyable_v<V>,
                      "AssocCache payload must be trivially copyable "
                      "to snapshot");
        s.putU64(entries_);
        s.putU64(ways_);
        s.putU64(use_clock_);
        s.putU64(gen_);
        s.putU64(entries_);
        for (const Tag &t : tags_)
            s.putU64(t.key);
        s.putU64(entries_);
        for (const Tag &t : tags_)
            s.putU64(t.gen);
        s.putPodVector(last_use_);
        s.putPodVector(values_);
    }

    void
    restoreState(Deserializer &d)
    {
        if (d.getU64() != entries_ || d.getU64() != ways_) {
            d.fail();
            return;
        }
        use_clock_ = d.getU64();
        gen_ = d.getU64();
        std::vector<std::uint64_t> keys, gens;
        d.getPodVector(keys);
        d.getPodVector(gens);
        d.getPodVector(last_use_);
        d.getPodVector(values_);
        if (keys.size() != entries_ || gens.size() != entries_ ||
            last_use_.size() != entries_ || values_.size() != entries_) {
            d.fail();
            return;
        }
        for (std::size_t i = 0; i < entries_; ++i)
            tags_[i] = {keys[i], gens[i]};
    }

  private:
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    /** First index of the set @p key maps to. */
    std::size_t
    setBase(std::uint64_t key) const
    {
        std::size_t set = set_mask_ != kNoMask ? (key & set_mask_)
                                               : (key % sets_);
        return set * ways_;
    }

    /**
     * Branch-free scan of one set: every way's tag and generation are
     * compared unconditionally and the hit (unique — insert never
     * duplicates a key) is selected arithmetically, so the compare loop
     * has no data-dependent branches and vectorizes.
     */
    std::size_t
    findIndex(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        const Tag *tags = tags_.data() + base;
        const std::uint64_t gen = gen_;
        std::size_t hit = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            std::size_t match = (tags[w].key == key) & (tags[w].gen == gen);
            hit |= match * (base + w + 1);
        }
        return hit == 0 ? kNotFound : hit - 1;
    }

    /** One way's key and the generation it was written under. */
    struct Tag
    {
        std::uint64_t key = 0;
        std::uint64_t gen = 0;
    };

    std::size_t ways_;
    std::size_t sets_;
    std::size_t entries_;
    static constexpr std::size_t kNoMask = ~std::size_t{0};
    /** sets_ - 1 when sets_ is a power of two, else kNoMask. */
    std::size_t set_mask_ = kNoMask;
    std::uint64_t use_clock_ = 0;
    /** Current generation; lines written under an older one are dead. */
    std::uint64_t gen_ = 1;
    std::vector<Tag, LineAlignedAllocator<Tag>> tags_;
    std::vector<std::uint64_t> last_use_;
    std::vector<V> values_;
};

/** Bits of a TLB/PWC key below the ASID tag: key = asid << 40 | prefix. */
constexpr unsigned kAsidKeyShift = 40;

/**
 * Erase the keys of @p asid whose prefix (page number or walk prefix)
 * lies in [@p lo, @p hi], in the tagged-key layout the TLBs and PWCs
 * share. Prefixes too wide for a key match nothing.
 */
template <typename V>
void
eraseTaggedRange(AssocCache<V> &cache, std::uint32_t asid, std::uint64_t lo,
                 std::uint64_t hi)
{
    constexpr std::uint64_t kPrefixMask =
        (std::uint64_t{1} << kAsidKeyShift) - 1;
    if (hi > kPrefixMask)
        hi = kPrefixMask;
    if (lo > hi)
        return;
    std::uint64_t tag = std::uint64_t{asid} << kAsidKeyShift;
    cache.eraseRange(tag | lo, tag | hi);
}

} // namespace ap

#endif // AGILEPAGING_TLB_ASSOC_CACHE_HH
