/**
 * @file
 * Open-addressing hash map for the simulator's hot lookup tables.
 *
 * Every directory consultation, busy-window check and backing-store
 * access sits on a map lookup, and std::unordered_map pays a pointer
 * chase per node plus an allocation per insert.  FlatMap stores
 * key/value slots in one contiguous power-of-two array with linear
 * probing and backward-shift deletion (no tombstones), so the common
 * probe touches one or two cache lines and inserts amortise to plain
 * array writes.
 *
 * Contract differences from std::unordered_map that callers must
 * respect (audited across dir2b; see docs/PERFORMANCE.md):
 *
 *  - references and iterators are invalidated by ANY insert or erase
 *    (growth rehashes; backward-shift relocates neighbours);
 *  - iteration order is the probe order, not insertion order — only
 *    order-insensitive walks (invariant checks, diagnostics) may
 *    iterate.
 *
 * Keys are integral (block addresses, chunk indices); hashing is the
 * SplitMix64 finalizer, which is cheap and mixes low bits well enough
 * for power-of-two masking.
 */

#ifndef DIR2B_UTIL_FLAT_MAP_HH
#define DIR2B_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/logging.hh"

namespace dir2b
{

/** Mixes an integral key into a well-distributed 64-bit hash. */
inline std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Open-addressing map from an integral key to V. */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "FlatMap keys must be integral");

  public:
    using value_type = std::pair<K, V>;

  private:
    /** One slot: raw storage for the pair plus an occupancy flag, so
     *  V needs no default constructor and empty slots cost nothing.
     *  The raw bytes are zero-initialised so the branch-light double
     *  probe in indexOf may read a vacant slot's key bytes without
     *  touching indeterminate memory (the result is discarded via the
     *  used flag). */
    struct Slot
    {
        alignas(value_type) unsigned char raw[sizeof(value_type)] = {};
        bool used = false;

        value_type &kv() { return *reinterpret_cast<value_type *>(raw); }
        const value_type &
        kv() const
        {
            return *reinterpret_cast<const value_type *>(raw);
        }
    };

  public:
    /** Forward iterator over occupied slots (probe order). */
    template <bool Const>
    class Iter
    {
        using SlotPtr = std::conditional_t<Const, const Slot *, Slot *>;
        using Ref = std::conditional_t<Const, const value_type &,
                                       value_type &>;

      public:
        Iter() = default;
        Iter(SlotPtr p, SlotPtr end) : p_(p), end_(end) { skip(); }

        Ref operator*() const { return p_->kv(); }
        auto *operator->() const { return &p_->kv(); }

        Iter &
        operator++()
        {
            ++p_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return p_ == o.p_; }
        bool operator!=(const Iter &o) const { return p_ != o.p_; }

      private:
        friend class FlatMap;

        void
        skip()
        {
            while (p_ != end_ && !p_->used)
                ++p_;
        }

        SlotPtr p_ = nullptr;
        SlotPtr end_ = nullptr;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    FlatMap(FlatMap &&other) noexcept { swap(other); }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            slots_ = nullptr;
            mask_ = 0;
            size_ = 0;
            swap(other);
        }
        return *this;
    }

    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    ~FlatMap() { destroyAll(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    iterator begin() { return {slots_, slotsEnd()}; }
    iterator end() { return {slotsEnd(), slotsEnd()}; }
    const_iterator begin() const { return {slots_, slotsEnd()}; }
    const_iterator end() const { return {slotsEnd(), slotsEnd()}; }

    iterator
    find(K key)
    {
        const std::size_t i = indexOf(key);
        return i == npos ? end() : iterAt(i);
    }

    const_iterator
    find(K key) const
    {
        const std::size_t i = indexOf(key);
        if (i == npos)
            return end();
        return {slots_ + i, slotsEnd()};
    }

    std::size_t count(K key) const { return indexOf(key) == npos ? 0 : 1; }
    bool contains(K key) const { return indexOf(key) != npos; }

    /** Find or value-initialise (like std::unordered_map::operator[]). */
    V &
    operator[](K key)
    {
        return tryEmplace(key).first->second;
    }

    /** Emplace with constructor args if absent; returns {iter, fresh}. */
    template <typename... Args>
    std::pair<iterator, bool>
    tryEmplace(K key, Args &&...args)
    {
        reserveOne();
        std::size_t i = probeStart(key);
        for (;;) {
            Slot &s = slots_[i];
            if (!s.used) {
                ::new (s.raw) value_type(
                    std::piecewise_construct,
                    std::forward_as_tuple(key),
                    std::forward_as_tuple(std::forward<Args>(args)...));
                s.used = true;
                ++size_;
                return {iterAt(i), true};
            }
            if (s.kv().first == key)
                return {iterAt(i), false};
            i = (i + 1) & mask_;
        }
    }

    /** Erase by key; returns true if an entry was removed. */
    bool
    erase(K key)
    {
        const std::size_t i = indexOf(key);
        if (i == npos)
            return false;
        eraseAt(i);
        return true;
    }

    /** Erase the entry an iterator points at. */
    void
    erase(iterator it)
    {
        DIR2B_ASSERT(it != end(), "FlatMap::erase(end())");
        eraseAt(static_cast<std::size_t>(it.p_ - slots_));
    }

    void
    clear()
    {
        if (!slots_)
            return;
        for (std::size_t i = 0; i <= mask_; ++i) {
            if (slots_[i].used) {
                slots_[i].kv().~value_type();
                slots_[i].used = false;
            }
        }
        size_ = 0;
    }

    /**
     * Size the table once so that growing to n entries never rehashes
     * (and so never allocates or moves an entry).  Never shrinks.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = minCapacity;
        while (n * 4 > cap * 3)
            cap *= 2;
        if (!slots_ || cap > mask_ + 1)
            rehash(cap);
    }

    /** Hint that key will be looked up, inserted or erased soon:
     *  start loading its home slot into the cache. */
    void
    prefetch(K key) const
    {
        if (slots_)
            __builtin_prefetch(&slots_[probeStart(key)]);
    }

    /** Bytes of slot storage currently allocated (capacity metric). */
    std::size_t
    capacityBytes() const
    {
        return slots_ ? (mask_ + 1) * sizeof(Slot) : 0;
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::size_t minCapacity = 16;

    void
    swap(FlatMap &other) noexcept
    {
        std::swap(slots_, other.slots_);
        std::swap(mask_, other.mask_);
        std::swap(size_, other.size_);
    }

    std::size_t
    probeStart(K key) const
    {
        return static_cast<std::size_t>(
                   mixHash(static_cast<std::uint64_t>(key))) &
               mask_;
    }

    /** Slot index of key, or npos. */
    std::size_t
    indexOf(K key) const
    {
        if (!slots_)
            return npos;
        // Branch-light double probe: at our load factor the answer is
        // in the first two slots for ~95% of lookups, so both are
        // checked unconditionally (bitwise &, no short-circuit) and
        // the index is selected without a data-dependent branch.
        // Mispredicted probe-length branches, not probe count, are
        // what make open addressing lose to chained buckets on
        // lookup-heavy mixes.  Vacant slots hold zero-initialised (or
        // stale destroyed) key bytes, masked off by the used flag.
        const std::size_t i0 = probeStart(key);
        const std::size_t i1 = (i0 + 1) & mask_;
        const Slot &s0 = slots_[i0];
        const Slot &s1 = slots_[i1];
        const auto u0 = static_cast<std::size_t>(s0.used);
        const auto u1 = static_cast<std::size_t>(s1.used);
        const std::size_t m0 =
            u0 & static_cast<std::size_t>(s0.kv().first == key);
        const std::size_t m1 =
            u1 & static_cast<std::size_t>(s1.kv().first == key);
        const std::size_t hit = m0 | m1;
        // One highly-predictable branch: resolved iff a slot matched
        // or a vacancy ends the probe (~99% of lookups).  The result
        // is then selected arithmetically — hit picks i0/i1 via a
        // mask, miss ORs in all-ones, which IS npos.  Written with +
        // so the compiler cannot split it back into two data-dependent
        // jumps.
        if (hit + ((u0 & u1) ^ 1) != 0)
            return (i1 ^ ((i0 ^ i1) & (std::size_t{0} - m0))) |
                   (hit - 1);
        std::size_t i = (i1 + 1) & mask_;
        for (;;) {
            const Slot &s = slots_[i];
            if (!s.used)
                return npos;
            if (s.kv().first == key)
                return i;
            i = (i + 1) & mask_;
        }
    }

    iterator iterAt(std::size_t i) { return {slots_ + i, slotsEnd()}; }

    Slot *slotsEnd() { return slots_ ? slots_ + mask_ + 1 : nullptr; }
    const Slot *slotsEnd() const
    {
        return slots_ ? slots_ + mask_ + 1 : nullptr;
    }

    /** Grow to keep the load factor under 0.75. */
    void
    reserveOne()
    {
        if (!slots_) {
            rehash(minCapacity);
            return;
        }
        if ((size_ + 1) * 4 > (mask_ + 1) * 3)
            rehash((mask_ + 1) * 2);
    }

    void
    rehash(std::size_t newCap)
    {
        Slot *old = slots_;
        const std::size_t oldCap = old ? mask_ + 1 : 0;
        slots_ = new Slot[newCap];
        mask_ = newCap - 1;
        size_ = 0;
        for (std::size_t i = 0; i < oldCap; ++i) {
            if (old[i].used) {
                tryEmplace(old[i].kv().first,
                           std::move(old[i].kv().second));
                old[i].kv().~value_type();
                old[i].used = false;
            }
        }
        delete[] old;
    }

    void
    eraseAt(std::size_t i)
    {
        // Backward-shift deletion: relocate displaced neighbours into
        // the hole so probes never need tombstones.  An entry at j may
        // fill the hole iff its home slot is cyclically at or before
        // the hole (otherwise moving it would break its probe chain).
        std::size_t hole = i;
        slots_[hole].kv().~value_type();
        slots_[hole].used = false;
        std::size_t j = (hole + 1) & mask_;
        while (slots_[j].used) {
            const std::size_t home = probeStart(slots_[j].kv().first);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                ::new (slots_[hole].raw)
                    value_type(std::move(slots_[j].kv()));
                slots_[hole].used = true;
                slots_[j].kv().~value_type();
                slots_[j].used = false;
                hole = j;
            }
            j = (j + 1) & mask_;
        }
        --size_;
    }

    void
    destroyAll()
    {
        clear();
        delete[] slots_;
    }

    Slot *slots_ = nullptr;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace dir2b

#endif // DIR2B_UTIL_FLAT_MAP_HH
