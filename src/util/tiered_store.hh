/**
 * @file
 * Tiered sparse array: hot raw pages, cold compressed pages, coldest
 * pages spilled to an anonymous on-disk segment.
 *
 * The store is a dense array indexed by a 64-bit position whose pages
 * of 2^PageBits elements materialise on first write: get() of a never
 * written position returns a value-initialised T without allocating,
 * and ref() allocates the page, zero-filled, on demand.  That keeps the
 * two-bit directory sparse and lets it survive address spaces far
 * larger than RAM, carrying the paper's economy argument (2 bits per
 * block instead of n+1) to its logical conclusion.  Three tiers, all
 * behind the one get/ref interface:
 *
 *  - **Hot**: raw zero-initialised pages, found through a hash map
 *    from position >> PageBits to the page's record.  A one-entry
 *    inline cache makes the repeated-touch common case one compare
 *    plus an indexed load.
 *  - **Cold**: pages demoted from the hot tier by a clock
 *    (second-chance) sweep when the RAM budget is exceeded, compressed
 *    in place with run-length encoding.  Directory pages are almost
 *    always homogeneous (`Absent` everywhere, or `Present1` across a
 *    private region), so a page typically collapses to ~13 bytes; a
 *    page that will not compress is kept as a raw copy so the blob is
 *    never materially larger than the page.
 *  - **Disk**: when hot + cold together still exceed the budget, the
 *    cold blobs demoted longest ago are appended to an unlinked
 *    temporary file (`std::tmpfile`) and only a {offset, length} index
 *    entry stays in RAM.  If the environment cannot create a temporary
 *    file the store degrades gracefully: blobs stay compressed in RAM
 *    and the overrun is counted, never hidden.
 *
 * A budget of 0 (the default) disables demotion entirely: every
 * materialised page stays hot and raw.  All tier movement is fully
 * deterministic — driven only by the access sequence, never by clocks
 * or randomness — so simulations are bit-identical at any budget.
 *
 * A budgeted store cycles pages between the tiers about once per
 * access on a scattered workload, so the cycle makes no heap allocation
 * in the steady state and costs only the page's live words:
 *
 *  - **Live-word mask.**  Each hot page carries a bitmask, one bit per
 *    word, of the words that may be nonzero: ref() sets the word's bit
 *    and decoding sets the bit of every nonzero word it writes (a word
 *    written back to zero keeps its bit).  Words outside the mask are
 *    zero, so the encoder jumps over unmasked stretches with ctz and
 *    emits exactly the blob a word-by-word encoder would.  The mask is
 *    dead while the page is cold or on disk, so it shares storage with
 *    the inline blob and the disk offset: pages hold at most 128 words
 *    and the page record stays 56 bytes.
 *  - **Zeroed page pool.**  Demotion zeroes the masked words of the raw
 *    buffer and hands it to a free list of at most two pages;
 *    promotion and fresh pages take from it.  Pooled and newly
 *    allocated buffers are therefore all zero: a fresh page needs no
 *    fill, and decoding writes only the nonzero runs.  The cap keeps
 *    the pool from holding the warm-up peak's spare pages forever.
 *  - **Inline cold blobs.**  A blob of up to 16 bytes (any one-run
 *    page of words up to 8 bytes) lives inside the page record;
 *    longer ones take a heap buffer of exactly their length.  The
 *    encoder writes into one per-store scratch page and the blob is
 *    copied out at its exact length.
 *  - **Logical bytes.**  Every byte count (residentBytes(),
 *    compressedBytes(), the disk segment) and therefore every budget
 *    decision uses the blob's logical length, never what the
 *    allocator or the inline buffer actually holds: a 13-byte inline
 *    blob counts 13 bytes, the record's pooled buffers count nothing.
 *
 * Spill order is tracked by a queue of {page, demotion generation}
 * entries; an entry whose page has been promoted or demoted again
 * since is dead, and dead entries are dropped in order once they
 * outnumber the live ones, so the queue stays within about twice the
 * cold page count.
 *
 * The store is not thread-safe: reads promote pages and so mutate
 * internal state, although get() is const so that read-only callers
 * can hold a const store.  References returned by ref() are valid only until
 * the next store operation, which may demote the page.
 */

#ifndef DIR2B_UTIL_TIERED_STORE_HH
#define DIR2B_UTIL_TIERED_STORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/ring_fifo.hh"

namespace dir2b
{

/** Operation counters for one TieredStore (see also the accessors). */
struct TieredStoreStats
{
    std::uint64_t compressions = 0;     ///< hot -> cold demotions
    std::uint64_t decompressions = 0;   ///< cold/disk -> hot promotions
    std::uint64_t diskPageWrites = 0;   ///< cold -> disk spills
    std::uint64_t diskPageReads = 0;    ///< disk -> hot reloads
    std::uint64_t diskBytesWritten = 0; ///< cumulative appended bytes
    std::uint64_t diskBytesRead = 0;    ///< cumulative reloaded bytes
    std::uint64_t budgetOverruns = 0;   ///< times resident > budget stuck
    std::uint64_t diskUnavailable = 0;  ///< tmpfile() failures (0 or 1)
};

namespace detail
{

// Page blob layout: [tag u8] then
//   tag 0: raw page copy (n * sizeof(T) bytes)
//   tag 1: [nRuns u16] then nRuns x ([count u16][value T])
// All fields little-endian via memcpy (portable, alignment-free).  A
// page whose RLE form would be at least as long as the raw copy is
// stored raw, so no blob exceeds 1 + n * sizeof(T) bytes.
//
// The codec works on live words.  Bit i of mask[i / 64] is set when
// word i of the page may be nonzero; every word outside the mask must
// be zero.  A caller that knows nothing passes an all-ones mask.

/** First word at or after `from` whose mask bit equals `live`, or n. */
inline std::size_t
nextMaskBit(const std::uint64_t *mask, std::size_t from, std::size_t n,
            bool live)
{
    while (from < n) {
        const std::uint64_t word = live ? mask[from / 64] : ~mask[from / 64];
        const std::uint64_t bits = word >> (from % 64);
        if (bits != 0)
            return std::min(n, from + std::countr_zero(bits));
        from = (from / 64 + 1) * 64;
    }
    return n;
}

/** Set the mask bits of words [lo, hi). */
inline void
setMaskRange(std::uint64_t *mask, std::size_t lo, std::size_t hi)
{
    while (lo < hi) {
        const std::size_t shift = lo % 64;
        const std::size_t k = std::min<std::size_t>(hi - lo, 64 - shift);
        const std::uint64_t ones =
            k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
        mask[lo / 64] |= ones << shift;
        lo += k;
    }
}

/** RLE-encode the n words of page (1 <= n <= 2^15), whose nonzero
 *  words all lie in mask, into out, which must hold 1 + n * sizeof(T)
 *  bytes; returns the blob length. */
template <typename T>
std::size_t
rleEncode(const T *page, std::size_t n, const std::uint64_t *mask,
          std::uint8_t *out)
{
    constexpr std::size_t runBytes = 2 + sizeof(T);
    const std::size_t rawBytes = 1 + n * sizeof(T);
    std::size_t pos = 3;
    std::size_t i = 0;
    while (i < n) {
        // The RLE size only grows, so once the next run would reach
        // the raw size the final one would too: store the page raw.
        if (pos + runBytes >= rawBytes) {
            out[0] = 0;
            std::memcpy(out + 1, page, n * sizeof(T));
            return rawBytes;
        }
        const T value = page[i];
        std::size_t j = i + 1;
        if (value == 0) {
            // Only a masked word can end a zero run: jump to each.
            while ((j = nextMaskBit(mask, j, n, true)) < n && page[j] == 0)
                ++j;
        } else if (j < n && page[j] == value) {
            // A nonzero run ends at the next unmasked word at the
            // latest.  Long runs dominate: skip matching 8-word blocks
            // with a branch-free (vectorisable) test, then word-wise.
            const std::size_t end = nextMaskBit(mask, j, n, false);
            for (; j + 8 <= end; j += 8) {
                T diff = 0;
                for (std::size_t k = 0; k < 8; ++k)
                    diff |= page[j + k] ^ value;
                if (diff != 0)
                    break;
            }
            while (j < end && page[j] == value)
                ++j;
        }
        const auto count = static_cast<std::uint16_t>(j - i);
        std::memcpy(out + pos, &count, 2);
        std::memcpy(out + pos + 2, &value, sizeof(T));
        pos += runBytes;
        i = j;
    }
    out[0] = 1;
    const auto runs = static_cast<std::uint16_t>((pos - 3) / runBytes);
    std::memcpy(out + 1, &runs, 2);
    return pos;
}

/** Decode a blob of len bytes into the n words of page, which must be
 *  all zero, writing only its nonzero runs and setting their bits in
 *  mask.  Reads stay within blob[0, len): a truncated or malformed
 *  blob decodes as far as it is intact and the rest of the page stays
 *  zero. */
template <typename T>
void
rleDecode(const std::uint8_t *blob, std::size_t len, T *page,
          std::size_t n, std::uint64_t *mask)
{
    constexpr std::size_t runBytes = 2 + sizeof(T);
    if (len >= 1 && blob[0] == 0) {
        const std::size_t bytes = std::min(len - 1, n * sizeof(T));
        std::memcpy(page, blob + 1, bytes);
        setMaskRange(mask, 0, (bytes + sizeof(T) - 1) / sizeof(T));
        return;
    }
    if (len >= 3 && blob[0] == 1) {
        std::uint16_t nRuns = 0;
        std::memcpy(&nRuns, blob + 1, 2);
        std::size_t out = 0;
        std::size_t in = 3;
        for (std::uint16_t r = 0;
             r < nRuns && out < n && in + runBytes <= len;
             ++r, in += runBytes) {
            std::uint16_t count = 0;
            T value{};
            std::memcpy(&count, blob + in, 2);
            std::memcpy(&value, blob + in + 2, sizeof(T));
            const std::size_t k = std::min<std::size_t>(count, n - out);
            if (value != 0) {
                std::fill_n(page + out, k, value);
                setMaskRange(mask, out, out + k);
            }
            out += k;
        }
    }
}

} // namespace detail

/** Sparse tiered array of unsigned words in 2^PageBits-element pages. */
template <typename T, unsigned PageBits>
class TieredStore
{
    static_assert(std::is_unsigned_v<T>,
                  "TieredStore elements must be unsigned integers");
    static_assert(PageBits >= 1 && PageBits <= 7,
                  "a page's live-word mask must fit in its record");

  public:
    static constexpr std::size_t pageElems = std::size_t{1} << PageBits;
    static constexpr std::size_t rawPageBytes = pageElems * sizeof(T);

    /** budgetBytes caps hot + cold resident bytes; 0 = unlimited. */
    explicit TieredStore(std::uint64_t budgetBytes = 0)
        : budget_(budgetBytes)
    {}

    TieredStore(TieredStore &&) = default;
    TieredStore &operator=(TieredStore &&) = default;

    /** Element at idx, or a value-initialised T if never touched. */
    T
    get(std::uint64_t idx) const
    {
        // Promotion mutates tier state; const for read-only callers.
        return const_cast<TieredStore *>(this)->getMut(idx);
    }

    /** get() without the value: the same recency bit, promotion and
     *  budget enforcement, for a caller that must not perturb the
     *  tiering but has no use for the element. */
    void touch(std::uint64_t idx) { getMut(idx); }

    /** Mutable element at idx; materialises its page zero-filled.
     *  The reference is valid only until the next store operation. */
    T &
    ref(std::uint64_t idx)
    {
        const std::uint64_t pageIdx = idx >> PageBits;
        if (pageIdx != cachedIdx_)
            materialise(pageIdx);
        const std::size_t word = idx & (pageElems - 1);
        Page &pg = pages_[cachedSlot_];
        pg.refBit = true;
        pg.markLive(word);
        return cached_[word];
    }

    /** Number of materialised pages, across all tiers. */
    std::size_t pageCount() const { return pages_.size(); }

    /** Pages currently raw in RAM / compressed in RAM / on disk. */
    std::size_t hotPages() const { return hot_.size(); }
    std::size_t coldPages() const { return coldCount_; }
    std::size_t diskPages() const { return diskCount_; }

    /** Bytes of page data resident in RAM (hot raw + cold blobs). */
    std::uint64_t
    residentBytes() const
    {
        return hot_.size() * rawPageBytes + coldBytes_;
    }

    /** Bytes of compressed (cold, in-RAM) page data. */
    std::uint64_t compressedBytes() const { return coldBytes_; }

    /** Current end offset of the on-disk segment (appended bytes). */
    std::uint64_t segmentBytes() const { return segEnd_; }

    /** The configured RAM budget (0 = unlimited). */
    std::uint64_t budgetBytes() const { return budget_; }

    /** Entries in the spill queue, live and dead (see the file
     *  comment); at most about twice coldPages(). */
    std::size_t spillQueueLength() const { return coldQ_.size(); }

    /** Operation counters. */
    const TieredStoreStats &stats() const { return stats_; }

  private:
    enum class Tier : std::uint8_t { Hot, Cold, Disk };

    /** Raw buffers kept for reuse between a demotion and the next
     *  promotion; see the file comment. */
    static constexpr std::size_t maxPooledPages = 2;

    /** Longest blob kept inside the page record (a one-run page of
     *  words up to 8 bytes needs 3 + 2 + 8 = 13). */
    static constexpr std::size_t inlineBlobBytes = 16;

    /** Dead spill-queue entries may outnumber the live ones by this
     *  many before the queue is compacted. */
    static constexpr std::size_t spillQueueSlack = 16;

    /** One bit per word of a hot page: set where the word may be
     *  nonzero (see the file comment). */
    using WordMask = std::array<std::uint64_t, (pageElems + 63) / 64>;
    static_assert(sizeof(WordMask) <= inlineBlobBytes,
                  "the live-word mask shares the inline blob's storage");

    struct Page
    {
        std::uint64_t pageIdx = 0;
        std::unique_ptr<T[]> raw; ///< Hot tier storage
        /** Cold blob longer than inlineBlobBytes. */
        std::unique_ptr<std::uint8_t[]> heapBlob;
        /** One member per tier; each is written before it is read. */
        union
        {
            WordMask mask{}; ///< Hot tier live words
            std::uint8_t inlineBlob[inlineBlobBytes]; ///< short cold blob
            std::uint64_t diskOff; ///< Disk tier location
        };
        std::uint32_t blobLen = 0; ///< logical cold / disk blob length
        std::uint32_t gen = 0;     ///< demotions so far (spill queue tag)
        Tier tier = Tier::Hot;
        bool refBit = false; ///< clock second-chance recency bit

        const std::uint8_t *
        blob() const
        {
            return blobLen <= inlineBlobBytes ? inlineBlob : heapBlob.get();
        }

        void
        markLive(std::size_t word)
        {
            mask[word / 64] |= std::uint64_t{1} << (word % 64);
        }
    };
    static_assert(sizeof(void *) != 8 || sizeof(Page) == 56,
                  "the page record is 56 bytes on LP64");

    /** A demotion awaiting its turn to spill; live while the page is
     *  still cold from that same demotion. */
    struct SpillEntry
    {
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };

    struct FileCloser
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    T
    getMut(std::uint64_t idx)
    {
        const std::uint64_t pageIdx = idx >> PageBits;
        if (pageIdx == cachedIdx_) {
            pages_[cachedSlot_].refBit = true;
            return cached_[idx & (pageElems - 1)];
        }
        auto it = dir_.find(pageIdx);
        if (it == dir_.end())
            return T{};
        const T *page = promote(it->second);
        return page[idx & (pageElems - 1)];
    }

    /** ref()'s slow path: create the page if it is new, then promote
     *  it.  Kept out of ref() so that the cached path stays small. */
    void
    materialise(std::uint64_t pageIdx)
    {
        auto [it, fresh] =
            dir_.tryEmplace(pageIdx, static_cast<std::uint32_t>(pages_.size()));
        const std::uint32_t slot = it->second;
        if (fresh) {
            // A new record is hot with an empty mask; the buffer is zero.
            pages_.emplace_back();
            Page &pg = pages_.back();
            pg.pageIdx = pageIdx;
            pg.raw = takeBuffer();
            hot_.push_back(slot);
        }
        promote(slot);
    }

    /** Bring the page to the hot tier, pin it in the inline cache,
     *  then demote/spill others until the budget holds. */
    T *
    promote(std::uint32_t slot)
    {
        Page &pg = pages_[slot];
        switch (pg.tier) {
          case Tier::Hot:
            break;
          case Tier::Cold:
            if (pg.heapBlob) {
                decode(pg, pg.heapBlob.get());
                pg.heapBlob.reset();
            } else {
                // The mask overwrites the inline blob: decode a copy.
                std::uint8_t blob[inlineBlobBytes];
                std::memcpy(blob, pg.inlineBlob, pg.blobLen);
                decode(pg, blob);
            }
            coldBytes_ -= pg.blobLen;
            --coldCount_;
            pg.tier = Tier::Hot;
            hot_.push_back(slot);
            ++stats_.decompressions;
            break;
          case Tier::Disk:
            readSegment(pg.diskOff, scratch(), pg.blobLen);
            decode(pg, scratch());
            --diskCount_;
            pg.tier = Tier::Hot;
            hot_.push_back(slot);
            ++stats_.decompressions;
            ++stats_.diskPageReads;
            stats_.diskBytesRead += pg.blobLen;
            break;
        }
        pg.refBit = true;
        cachedIdx_ = pg.pageIdx;
        cachedSlot_ = slot;
        cached_ = pg.raw.get();
        enforceBudget(slot);
        return cached_;
    }

    /** Make pg's blob its hot page: a zero pooled buffer with only the
     *  nonzero runs written, and the mask of those runs. */
    void
    decode(Page &pg, const std::uint8_t *blob)
    {
        pg.raw = takeBuffer();
        pg.mask = WordMask{};
        detail::rleDecode(blob, pg.blobLen, pg.raw.get(), pageElems,
                          pg.mask.data());
    }

    void
    enforceBudget(std::uint32_t protect)
    {
        if (budget_ == 0)
            return;
        // First demote hot pages (clock sweep) into the cold tier...
        while (residentBytes() > budget_ && hot_.size() > 1)
            demoteOne(protect);
        // ...then spill the oldest cold blobs to the disk segment.
        while (coldBytes_ > 0 && residentBytes() > budget_) {
            if (!spillOne())
                break;
        }
        if (residentBytes() > budget_)
            ++stats_.budgetOverruns;
    }

    /** Clock (second chance) over the hot tier; never evicts
     *  `protect`, which is the page the caller is touching. */
    void
    demoteOne(std::uint32_t protect)
    {
        for (;;) {
            if (hand_ >= hot_.size())
                hand_ = 0;
            const std::uint32_t slot = hot_[hand_];
            Page &pg = pages_[slot];
            if (slot == protect) {
                ++hand_;
                continue;
            }
            if (pg.refBit) {
                pg.refBit = false;
                ++hand_;
                continue;
            }
            // The inline blob overwrites the mask: keep a copy.
            const WordMask mask = pg.mask;
            const std::size_t len = detail::rleEncode(
                pg.raw.get(), pageElems, mask.data(), scratch());
            pg.blobLen = static_cast<std::uint32_t>(len);
            if (len <= inlineBlobBytes) {
                std::memcpy(pg.inlineBlob, scratch(), len);
            } else {
                pg.heapBlob =
                    std::make_unique_for_overwrite<std::uint8_t[]>(len);
                std::memcpy(pg.heapBlob.get(), scratch(), len);
            }
            recycle(std::move(pg.raw), mask);
            pg.tier = Tier::Cold;
            coldBytes_ += len;
            ++coldCount_;
            queueSpill(slot, ++pg.gen);
            ++stats_.compressions;
            hot_[hand_] = hot_.back();
            hot_.pop_back();
            return;
        }
    }

    bool
    live(const SpillEntry &e) const
    {
        const Page &pg = pages_[e.slot];
        return pg.tier == Tier::Cold && pg.gen == e.gen;
    }

    /** Queue a demotion for spilling.  Each cold page has exactly one
     *  live entry, so once the dead ones (pages promoted or demoted
     *  again since) outnumber the live ones, drop them in order: each
     *  dead entry is dropped once, keeping this amortised O(1). */
    void
    queueSpill(std::uint32_t slot, std::uint32_t gen)
    {
        coldQ_.push_back({slot, gen});
        if (coldQ_.size() > 2 * coldCount_ + spillQueueSlack) {
            coldQ_.eraseIf(
                [this](const SpillEntry &e) { return !live(e); });
        }
    }

    /** Append the cold blob demoted longest ago to the disk segment.
     *  Returns false when no spill is possible (no tmpfile). */
    bool
    spillOne()
    {
        while (!coldQ_.empty()) {
            const SpillEntry e = coldQ_[0];
            if (!live(e)) {
                coldQ_.erase(0);
                continue;
            }
            Page &pg = pages_[e.slot];
            if (!ensureSegment())
                return false;
            std::fseek(seg_.get(), 0, SEEK_END);
            const std::size_t len = pg.blobLen;
            if (std::fwrite(pg.blob(), 1, len, seg_.get()) != len) {
                // Treat a failed write like an absent disk tier.
                seg_.reset();
                segFailed_ = true;
                ++stats_.diskUnavailable;
                return false;
            }
            // diskOff shares storage with the inline blob just written.
            pg.diskOff = segEnd_;
            pg.heapBlob.reset();
            segEnd_ += len;
            coldBytes_ -= len;
            --coldCount_;
            ++diskCount_;
            pg.tier = Tier::Disk;
            coldQ_.erase(0);
            ++stats_.diskPageWrites;
            stats_.diskBytesWritten += len;
            return true;
        }
        return false;
    }

    bool
    ensureSegment()
    {
        if (seg_)
            return true;
        if (segFailed_)
            return false;
        seg_.reset(std::tmpfile());
        if (!seg_) {
            segFailed_ = true;
            ++stats_.diskUnavailable;
            return false;
        }
        return true;
    }

    void
    readSegment(std::uint64_t off, std::uint8_t *out, std::size_t len)
    {
        DIR2B_ASSERT(len <= 1 + rawPageBytes, "disk blob longer than a page");
        std::fseek(seg_.get(), static_cast<long>(off), SEEK_SET);
        const std::size_t got = std::fread(out, 1, len, seg_.get());
        // The segment is append-only and written by this object, so a
        // short read can only mean the file was tampered with; zero
        // the tail rather than reading garbage.
        if (got < len)
            std::memset(out + got, 0, len - got);
    }

    // --- page buffers ----------------------------------------------

    /** An all-zero raw page buffer: pooled if one is spare. */
    std::unique_ptr<T[]>
    takeBuffer()
    {
        if (pooled_ > 0)
            return std::move(pool_[--pooled_]);
        return std::make_unique<T[]>(pageElems);
    }

    /** Return a demoted page's buffer to the pool, zeroing the words
     *  its mask names, or free it. */
    void
    recycle(std::unique_ptr<T[]> buf, const WordMask &mask)
    {
        if (pooled_ == maxPooledPages)
            return;
        for (std::size_t w = 0; w < mask.size(); ++w) {
            for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
                buf[64 * w + std::countr_zero(bits)] = T{};
        }
        pool_[pooled_++] = std::move(buf);
    }

    /** Encoder output and disk staging: one blob of the largest size,
     *  allocated at the first demotion. */
    std::uint8_t *
    scratch()
    {
        if (!scratch_)
            scratch_ = std::make_unique_for_overwrite<std::uint8_t[]>(
                1 + rawPageBytes);
        return scratch_.get();
    }

    FlatMap<std::uint64_t, std::uint32_t> dir_;
    std::vector<Page> pages_;

    std::vector<std::uint32_t> hot_; ///< slots in the hot tier
    std::size_t hand_ = 0;           ///< clock hand into hot_
    RingFifo<SpillEntry> coldQ_;     ///< spill order (lazy entries)
    std::size_t coldCount_ = 0;
    std::size_t diskCount_ = 0;
    std::uint64_t coldBytes_ = 0;

    std::unique_ptr<T[]> pool_[maxPooledPages];
    std::size_t pooled_ = 0;
    std::unique_ptr<std::uint8_t[]> scratch_;

    std::unique_ptr<std::FILE, FileCloser> seg_;
    std::uint64_t segEnd_ = 0;
    bool segFailed_ = false;

    std::uint64_t budget_;
    TieredStoreStats stats_;

    /** One-entry lookup cache; always pins the last-touched page,
     *  which the clock sweep never evicts. */
    mutable std::uint64_t cachedIdx_ = ~std::uint64_t{0};
    mutable std::uint32_t cachedSlot_ = 0;
    mutable T *cached_ = nullptr;
};

} // namespace dir2b

#endif // DIR2B_UTIL_TIERED_STORE_HH
