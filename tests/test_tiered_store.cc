/**
 * @file
 * Differential and directed tests for the tiered page store
 * (util/tiered_store.hh): random access patterns against a plain
 * std::vector oracle at several RAM budgets, compression round-trips
 * on homogeneous and mixed pages, eviction-then-reload identity
 * through the cold and disk tiers, the RLE codec on blob-size
 * boundaries, on truncated or tampered blobs and against a naive
 * word-by-word encoder under random live-word masks, spill order, and
 * the page cycle's heap allocations (counted by a global operator new).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/global_state.hh"
#include "core/two_bit_directory.hh"
#include "util/tiered_store.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace dir2b
{
namespace
{

// Small pages (8 words) so a few KiB of budget spans many pages.
using SmallStore = TieredStore<std::uint64_t, 3>;

// 16 four-byte words (64 raw bytes): one-, two- and three-run blobs
// are 9, 15 and 21 bytes, straddling the 16-byte inline limit.
using WordStore = TieredStore<std::uint32_t, 4>;

// A live-word mask naming every word of pages up to 128 words long,
// for codec calls that know nothing about which words are live.
constexpr std::uint64_t allWords[2] = {~std::uint64_t{0}, ~std::uint64_t{0}};

/** Random get/ref stream vs a dense std::vector oracle. */
void
differential(std::uint64_t budget, std::uint64_t space, int ops,
             std::uint32_t seed)
{
    SmallStore store(budget);
    std::vector<std::uint64_t> oracle(space, 0);
    std::mt19937_64 rng(seed);

    for (int i = 0; i < ops; ++i) {
        // Skewed index stream: half the traffic on a hot eighth of
        // the space, the rest uniform, so pages have unequal heat.
        std::uint64_t idx = rng() % space;
        if (rng() % 2)
            idx %= std::max<std::uint64_t>(space / 8, 1);
        if (rng() % 3 == 0) {
            const std::uint64_t v = rng();
            store.ref(idx) = v;
            oracle[idx] = v;
        } else {
            ASSERT_EQ(store.get(idx), oracle[idx])
                << "idx " << idx << " budget " << budget << " op " << i;
        }
    }
    // Full final sweep: every element, including never-touched ones.
    for (std::uint64_t idx = 0; idx < space; ++idx)
        ASSERT_EQ(store.get(idx), oracle[idx]) << "final idx " << idx;
}

TEST(TieredStore, DifferentialUnlimitedBudget)
{
    differential(/*budget=*/0, /*space=*/1 << 12, /*ops=*/20000, 1);
}

TEST(TieredStore, DifferentialTinyBudgetConstantEviction)
{
    // Budget of two raw pages over a 512-page space: nearly every
    // access demotes something, and the overflow must hit the disk
    // tier (or count an honest overrun if tmpfile is unavailable).
    const std::uint64_t budget = 2 * SmallStore::rawPageBytes;
    differential(budget, /*space=*/1 << 12, /*ops=*/20000, 2);
}

TEST(TieredStore, DifferentialMidBudget)
{
    differential(16 * SmallStore::rawPageBytes, 1 << 12, 20000, 3);
}

TEST(TieredStore, TinyBudgetReachesDiskTier)
{
    SmallStore store(2 * SmallStore::rawPageBytes);
    for (std::uint64_t p = 0; p < 256; ++p)
        store.ref(p * SmallStore::pageElems) = p + 1;
    const auto &st = store.stats();
    EXPECT_GT(st.compressions, 0u);
    if (st.diskUnavailable == 0) {
        EXPECT_GT(st.diskPageWrites, 0u);
        EXPECT_GT(store.diskPages(), 0u);
    } else {
        EXPECT_GT(st.budgetOverruns, 0u);
    }
    // Everything written is still readable, wherever it lives now.
    for (std::uint64_t p = 0; p < 256; ++p)
        EXPECT_EQ(store.get(p * SmallStore::pageElems), p + 1);
}

TEST(TieredStore, BudgetBoundsResidentBytes)
{
    const std::uint64_t budget = 4 * SmallStore::rawPageBytes;
    SmallStore store(budget);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 5000; ++i)
        store.ref(rng() % (1 << 14)) = rng();
    if (store.stats().diskUnavailable == 0) {
        EXPECT_LE(store.residentBytes(), budget);
    }
    EXPECT_EQ(store.hotPages() + store.coldPages() + store.diskPages(),
              store.pageCount());
}

TEST(TieredStore, HomogeneousPageCompressionRoundTrip)
{
    // A page holding one repeated value must survive demotion and
    // reload exactly, and its compressed form must be tiny.
    SmallStore store(2 * SmallStore::rawPageBytes);
    const std::uint64_t v = 0x5555555555555555ULL; // all-Present1 words
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        store.ref(i) = v;
    // Touch enough other pages to force page 0 through the cold tier.
    for (std::uint64_t p = 1; p < 64; ++p)
        store.ref(p * SmallStore::pageElems) = p;
    EXPECT_GT(store.stats().compressions, 0u);
    EXPECT_LT(store.compressedBytes() + store.segmentBytes(),
              63 * SmallStore::rawPageBytes / 2);
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        EXPECT_EQ(store.get(i), v);
}

TEST(TieredStore, MixedPageCompressionRoundTrip)
{
    // An incompressible page (distinct value per word) falls back to
    // the raw-copy blob and still round-trips bit-exactly.
    SmallStore store(2 * SmallStore::rawPageBytes);
    std::mt19937_64 rng(11);
    std::vector<std::uint64_t> vals;
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i) {
        vals.push_back(rng());
        store.ref(i) = vals.back();
    }
    for (std::uint64_t p = 1; p < 64; ++p)
        store.ref(p * SmallStore::pageElems) = p;
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        EXPECT_EQ(store.get(i), vals[i]);
}

TEST(TieredStore, EvictReloadEvictReloadIdentity)
{
    // Ping-pong two working sets through a one-set budget so the same
    // pages are demoted and promoted repeatedly, including rewrites
    // between round trips (the disk segment is append-only; stale
    // copies must never be served).
    SmallStore store(4 * SmallStore::rawPageBytes);
    const std::uint64_t setB = 64 * SmallStore::pageElems;
    for (int round = 0; round < 6; ++round) {
        for (std::uint64_t i = 0; i < 8 * SmallStore::pageElems; ++i) {
            const std::uint64_t want =
                round == 0 ? 0 : i * 31 + (round - 1);
            ASSERT_EQ(store.get(i), want) << "round " << round;
            store.ref(i) = i * 31 + round;
        }
        for (std::uint64_t i = 0; i < 8 * SmallStore::pageElems; ++i)
            store.ref(setB + i) = ~i + round;
    }
    EXPECT_GT(store.stats().decompressions, 0u);
}

TEST(TieredStore, UnlimitedBudgetNeverTiers)
{
    SmallStore store; // budget 0
    std::mt19937_64 rng(13);
    for (int i = 0; i < 5000; ++i)
        store.ref(rng() % (1 << 14)) = rng();
    EXPECT_EQ(store.stats().compressions, 0u);
    EXPECT_EQ(store.coldPages(), 0u);
    EXPECT_EQ(store.diskPages(), 0u);
    EXPECT_EQ(store.hotPages(), store.pageCount());
}

TEST(TieredStore, MoveTransfersAllTiers)
{
    SmallStore a(2 * SmallStore::rawPageBytes);
    for (std::uint64_t p = 0; p < 64; ++p)
        a.ref(p * SmallStore::pageElems) = p ^ 0xabcdef;
    SmallStore b(std::move(a));
    std::vector<SmallStore> vec;
    vec.push_back(std::move(b));
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(vec[0].get(p * SmallStore::pageElems), p ^ 0xabcdef);
}

TEST(TieredStore, PinnedCountersAtMidBudget)
{
    // A fixed mixed sequence (reads, whole-page fills, single-word
    // writes) over 96 pages at a budget of 32 raw pages, which never
    // spills.  The counters and byte counts drive every tier decision,
    // so they are pinned to the values of the store before its page
    // cycle was made allocation-free.
    const std::uint64_t pages = 96;
    SmallStore store(32 * SmallStore::rawPageBytes);
    std::mt19937_64 rng(23);
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t page = rng() % pages;
        if (rng() % 2)
            page %= 12;
        const std::uint64_t base = page * SmallStore::pageElems;
        const unsigned op = rng() % 10;
        if (op < 5) {
            sum += store.get(base + rng() % SmallStore::pageElems);
        } else if (op < 9) {
            const std::uint64_t v = rng() % 3;
            for (std::uint64_t e = 0; e < SmallStore::pageElems; ++e)
                store.ref(base + e) = v;
        } else {
            store.ref(base + rng() % SmallStore::pageElems) = rng() % 5;
        }
    }
    const auto &st = store.stats();
    EXPECT_EQ(st.diskPageWrites, 0u);
    EXPECT_EQ(st.budgetOverruns, 0u);
    EXPECT_EQ(st.compressions, 14671u);
    EXPECT_EQ(st.decompressions, 14587u);
    EXPECT_EQ(store.compressedBytes(), 1252u);
    EXPECT_EQ(store.residentBytes(), 2020u);
    EXPECT_EQ(sum, 9944u);
}

/** Fill page p of store s with v, then set its first word to first
 *  (one run if first == v, else two). */
template <typename Store, typename T>
void
fillPage(Store &s, std::uint64_t p, T v, T first)
{
    const std::uint64_t base = p * Store::pageElems;
    for (std::uint64_t e = 0; e < Store::pageElems; ++e)
        s.ref(base + e) = v;
    s.ref(base) = first;
}

TEST(TieredStore, PageCycleMakesNoHeapAllocation)
{
    // Twelve one- and two-run pages round-robin through a 4-page
    // budget: one page is hot, the other eleven are cold inline blobs
    // (9 or 15 bytes), and every access demotes one page and promotes
    // another.  Past the warm-up the cycle must not allocate.
    constexpr std::uint64_t pages = 12;
    WordStore store(4 * WordStore::rawPageBytes);
    for (std::uint64_t p = 0; p < pages; ++p)
        fillPage<WordStore, std::uint32_t>(
            store, p, p + 1, p % 2 ? 0x80000000u : p + 1);
    for (std::uint64_t i = 0; i < 1000; ++i)
        store.get((i % pages) * WordStore::pageElems + 3);

    const std::uint64_t cyclesBefore = store.stats().compressions;
    const std::uint64_t before = allocations.load();
    for (std::uint32_t i = 0; i < 100000; ++i) {
        const std::uint64_t p = i % pages;
        const std::uint64_t base = p * WordStore::pageElems;
        ASSERT_EQ(store.get(base + 5), p + 1);
        if (p % 2)
            store.ref(base) = 0x80000000u | i;
    }
    const std::uint64_t allocs = allocations.load() - before;
    const std::uint64_t cycles = store.stats().compressions - cyclesBefore;
    ASSERT_GE(cycles, 99000u);
    EXPECT_EQ(store.stats().diskPageWrites, 0u);
    const double perCycle =
        static_cast<double>(allocs) / static_cast<double>(cycles);
    std::printf("%.4f allocations per page cycle (%llu in %llu cycles)\n",
                perCycle, static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(cycles));
    EXPECT_LT(perCycle, 0.01);
}

TEST(TieredStore, StalePooledBufferReadsBackExactly)
{
    // One hot page at a time (budget below two raw pages).  Page A is
    // full of mixed nonzero words; once it is demoted its raw buffer
    // is pooled, and the next promotion (one-run page B) decodes into
    // that buffer.  Every word must come back as written.  Then a
    // fresh page F takes A's pooled buffer and must read all zero.
    WordStore store(127);
    const std::uint64_t pa = 1, pb = 2, pe = 3, pf = 4;
    const auto aWord = [](std::uint64_t e) {
        return static_cast<std::uint32_t>(0x9e3779b9u * (e / 2 + 1));
    };
    fillPage<WordStore, std::uint32_t>(store, pb, 7, 7);
    for (std::uint64_t e = 0; e < WordStore::pageElems; ++e)
        store.ref(pa * WordStore::pageElems + e) = aWord(e);
    const std::uint32_t *aBuf = &store.ref(pa * WordStore::pageElems);
    fillPage<WordStore, std::uint32_t>(store, pe, 5, 5); // demotes A

    const std::uint64_t decompressions = store.stats().decompressions;
    const std::uint32_t *bBuf = &store.ref(pb * WordStore::pageElems);
    EXPECT_EQ(store.stats().decompressions, decompressions + 1);
    EXPECT_EQ(bBuf, aBuf) << "B was not promoted into A's pooled buffer";
    EXPECT_EQ(store.stats().diskPageWrites, 0u);
    for (std::uint64_t e = 0; e < WordStore::pageElems; ++e)
        EXPECT_EQ(store.get(pb * WordStore::pageElems + e), 7u) << e;
    for (std::uint64_t e = 0; e < WordStore::pageElems; ++e) {
        EXPECT_EQ(store.get(pa * WordStore::pageElems + e), aWord(e)) << e;
        EXPECT_EQ(store.get(pe * WordStore::pageElems + e), 5u) << e;
    }

    // Promote A, then demote it by promoting E: A's buffer is the last
    // one pooled, so the fresh page F takes it.
    const std::uint32_t *aBuf2 = &store.ref(pa * WordStore::pageElems);
    EXPECT_EQ(store.get(pe * WordStore::pageElems), 5u);
    const std::uint32_t *fBuf = &store.ref(pf * WordStore::pageElems);
    EXPECT_EQ(fBuf, aBuf2) << "F did not take A's pooled buffer";
    for (std::uint64_t e = 0; e < WordStore::pageElems; ++e)
        EXPECT_EQ(store.get(pf * WordStore::pageElems + e), 0u) << e;
}

TEST(TieredStore, BlobSizesStraddleTheInlineLimit)
{
    // Pages of 1, 2 and 3 runs of 4-byte words make 9-, 15- and
    // 21-byte blobs (inline, inline, heap); one- and two-run pages of
    // 8-byte words make 13 and 23.  The store counts each at its
    // logical length and reads each back exactly.
    for (std::uint64_t runs = 1; runs <= 3; ++runs) {
        WordStore store(127); // one hot page
        const std::uint64_t base = 4 * WordStore::pageElems;
        for (std::uint64_t e = 0; e < WordStore::pageElems; ++e)
            store.ref(base + e) = 1 + static_cast<std::uint32_t>(
                                          std::min(e, runs - 1));
        store.ref(0) = 0; // demote the page under test
        EXPECT_EQ(store.coldPages(), 1u);
        EXPECT_EQ(store.compressedBytes(), 3 + runs * 6) << runs;
        for (std::uint64_t e = 0; e < WordStore::pageElems; ++e)
            EXPECT_EQ(store.get(base + e), 1 + std::min(e, runs - 1));
    }
    for (std::uint64_t runs = 1; runs <= 2; ++runs) {
        SmallStore store(127);
        fillPage<SmallStore, std::uint64_t>(store, 4, 9, runs == 1 ? 9 : 1);
        store.ref(0) = 0;
        EXPECT_EQ(store.compressedBytes(), 3 + runs * 10) << runs;
        EXPECT_EQ(store.get(4 * SmallStore::pageElems), runs == 1 ? 9u : 1u);
        EXPECT_EQ(store.get(4 * SmallStore::pageElems + 1), 9u);
    }
}

TEST(TieredStore, RleExactlyRawSizeTakesTheRawForm)
{
    // Eight 4-byte words: raw blob 1 + 32 = 33 bytes; five runs make
    // an RLE blob of 3 + 5 * 6 = 33 bytes, which must take the raw
    // form, while four runs (27 bytes) stay RLE.
    using Store = TieredStore<std::uint32_t, 3>;
    std::uint8_t out[1 + Store::rawPageBytes];
    const std::uint32_t five[8] = {1, 1, 2, 2, 3, 3, 4, 5};
    const std::uint32_t four[8] = {1, 1, 2, 2, 3, 3, 4, 4};
    EXPECT_EQ(detail::rleEncode(five, 8, allWords, out), 33u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(detail::rleEncode(four, 8, allWords, out), 27u);
    EXPECT_EQ(out[0], 1u);

    // In the store the demoted blob spills at once (two raw pages
    // exceed the budget); cold or on disk, it counts 33 bytes.
    Store store(63);
    for (std::uint64_t e = 0; e < 8; ++e)
        store.ref(8 + e) = five[e];
    store.ref(0) = 0;
    EXPECT_EQ(store.compressedBytes() + store.segmentBytes(), 33u);
    for (std::uint64_t e = 0; e < 8; ++e)
        EXPECT_EQ(store.get(8 + e), five[e]);
}

/** Decode blob[0, len) from an exactly sized heap copy (so a sanitizer
 *  catches any read past len) into a zero page; the decoder's mask must
 *  name every nonzero word it wrote. */
std::vector<std::uint32_t>
decodeCopy(const std::vector<std::uint8_t> &blob, std::size_t len)
{
    const std::vector<std::uint8_t> copy(blob.begin(),
                                         blob.begin() + len);
    std::vector<std::uint32_t> page(16, 0);
    std::uint64_t mask = 0;
    detail::rleDecode(copy.data(), copy.size(), page.data(), page.size(),
                      &mask);
    for (std::size_t i = 0; i < page.size(); ++i) {
        if (page[i] != 0) {
            EXPECT_TRUE(mask >> i & 1) << "word " << i << " not in mask";
        }
    }
    return page;
}

TEST(TieredStoreCodec, TruncatedBlobsDecodeTheIntactPrefix)
{
    // Three runs: 5 x 1, 7 x 2, 4 x 3.  Every prefix of the blob
    // decodes the runs it holds completely and zeroes the rest.
    std::vector<std::uint32_t> page(16, 3);
    std::fill_n(page.begin(), 12, 2u);
    std::fill_n(page.begin(), 5, 1u);
    std::vector<std::uint8_t> blob(1 + 16 * 4);
    const std::size_t len =
        detail::rleEncode(page.data(), 16, allWords, blob.data());
    ASSERT_EQ(len, 21u);
    for (std::size_t cut = 0; cut <= len; ++cut) {
        const std::size_t whole = cut < 3 ? 0 : (cut - 3) / 6;
        std::vector<std::uint32_t> want(16, 0);
        const std::size_t covered = whole == 0 ? 0
                                    : whole == 1 ? 5
                                    : whole == 2 ? 12
                                                 : 16;
        std::copy_n(page.begin(), covered, want.begin());
        EXPECT_EQ(decodeCopy(blob, cut), want) << "cut " << cut;
    }

    // A raw blob cut short copies what it holds, bytes included.
    std::vector<std::uint32_t> mixed(16);
    for (std::size_t i = 0; i < 16; ++i)
        mixed[i] = 0x01010101u * static_cast<std::uint32_t>(i + 1);
    const std::size_t rawLen =
        detail::rleEncode(mixed.data(), 16, allWords, blob.data());
    ASSERT_EQ(rawLen, 65u);
    ASSERT_EQ(blob[0], 0u);
    const auto partial = decodeCopy(blob, 1 + 4 * 5 + 2);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(partial[i], mixed[i]);
    EXPECT_EQ(partial[5], mixed[5] & 0xffffu); // little-endian half
    for (std::size_t i = 6; i < 16; ++i)
        EXPECT_EQ(partial[i], 0u);
}

TEST(TieredStoreCodec, TamperedBlobsStayInBoundsAndFillThePage)
{
    const auto put16 = [](std::vector<std::uint8_t> &b, std::uint16_t v) {
        b.push_back(static_cast<std::uint8_t>(v));
        b.push_back(static_cast<std::uint8_t>(v >> 8));
    };
    const auto put32 = [](std::vector<std::uint8_t> &b, std::uint32_t v) {
        for (int k = 0; k < 4; ++k)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    };
    // Claims 1000 runs but holds two: decodes the two, zeroes the rest.
    std::vector<std::uint8_t> blob{1};
    put16(blob, 1000);
    put16(blob, 3);
    put32(blob, 8);
    put16(blob, 2);
    put32(blob, 9);
    auto page = decodeCopy(blob, blob.size());
    EXPECT_EQ(page, (std::vector<std::uint32_t>{8, 8, 8, 9, 9, 0, 0, 0,
                                                0, 0, 0, 0, 0, 0, 0, 0}));

    // A run longer than the page is clipped to the page.
    blob = {1};
    put16(blob, 2);
    put16(blob, 60000);
    put32(blob, 4);
    put16(blob, 60000);
    put32(blob, 6);
    EXPECT_EQ(decodeCopy(blob, blob.size()),
              std::vector<std::uint32_t>(16, 4));

    // A raw blob longer than the page copies one page's worth.
    blob = {0};
    for (std::uint32_t i = 0; i < 40; ++i)
        put32(blob, i + 100);
    page = decodeCopy(blob, blob.size());
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(page[i], i + 100);

    // Empty blobs, an RLE header cut inside its run count, and
    // unknown tags decode as an all-zero page.
    const std::vector<std::uint32_t> zeros(16, 0);
    EXPECT_EQ(decodeCopy(std::vector<std::uint8_t>{}, 0), zeros);
    EXPECT_EQ(decodeCopy(std::vector<std::uint8_t>{1, 5}, 2), zeros);
    EXPECT_EQ(decodeCopy(std::vector<std::uint8_t>{7, 1, 0, 16, 0, 1, 0,
                                                   0, 0},
                         9),
              zeros);
}

/** The encoder's contract, restated word by word: maximal runs of equal
 *  words, or the raw copy when the runs would take at least as many
 *  bytes. */
template <typename T>
std::vector<std::uint8_t>
naiveRle(const std::vector<T> &page)
{
    std::vector<std::pair<std::uint16_t, T>> runs;
    for (const T w : page) {
        if (!runs.empty() && runs.back().second == w)
            ++runs.back().first;
        else
            runs.emplace_back(1, w);
    }
    const std::size_t rawBytes = 1 + page.size() * sizeof(T);
    std::vector<std::uint8_t> out;
    const auto put = [&out](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        out.insert(out.end(), b, b + n);
    };
    if (3 + runs.size() * (2 + sizeof(T)) >= rawBytes) {
        out.push_back(0);
        put(page.data(), page.size() * sizeof(T));
        return out;
    }
    out.push_back(1);
    const auto nRuns = static_cast<std::uint16_t>(runs.size());
    put(&nRuns, 2);
    for (const auto &[count, value] : runs) {
        put(&count, 2);
        put(&value, sizeof(T));
    }
    return out;
}

/** A page of exactly `runs` runs (at most its length) at random cut
 *  points, each value zero half the time and else one of a few small
 *  values or a random word, always unequal to its neighbour's. */
template <typename T>
std::vector<T>
randomPage(std::size_t n, std::size_t runs, std::mt19937_64 &rng)
{
    std::vector<std::size_t> cuts{0, n};
    while (cuts.size() < runs + 1) {
        const std::size_t c = 1 + rng() % (n - 1);
        if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
            cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<T> page(n);
    for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
        const unsigned kind = rng() % 4;
        T v = kind < 2 ? T{0}
              : kind == 2 ? static_cast<T>(1 + rng() % 3)
                          : static_cast<T>(rng());
        if (r > 0 && v == page[cuts[r] - 1])
            ++v;
        std::fill(page.begin() + cuts[r], page.begin() + cuts[r + 1], v);
    }
    return page;
}

/** Runs whose RLE blob is at least as long as the raw copy. */
template <typename T>
constexpr std::size_t
rawRuns(std::size_t n)
{
    const std::size_t rawBytes = 1 + n * sizeof(T);
    return (rawBytes - 3 + (2 + sizeof(T)) - 1) / (2 + sizeof(T));
}

template <typename Store>
class TieredStoreCodecProperty : public ::testing::Test
{};

using CodecStores =
    ::testing::Types<TieredStore<std::uint32_t, 3>,
                     TieredStore<std::uint32_t, 4>,
                     TieredStore<std::uint64_t, 7>>;
TYPED_TEST_SUITE(TieredStoreCodecProperty, CodecStores);

TYPED_TEST(TieredStoreCodecProperty, MaskGuidedEncoderMatchesNaive)
{
    // Random pages under random superset masks: every nonzero word is
    // masked, and so are random zero words.  The blob must be the naive
    // encoder's byte for byte, and must decode back into a zero page.
    using T = std::remove_cvref_t<decltype(std::declval<TypeParam &>().get(0))>;
    constexpr std::size_t n = TypeParam::pageElems;
    const std::size_t boundary = rawRuns<T>(n);
    std::mt19937_64 rng(29 + n);
    std::vector<std::uint8_t> out(1 + n * sizeof(T));
    for (int trial = 0; trial < 3000; ++trial) {
        // A third of the pages sit at the raw-fallback boundary.
        const std::size_t runs =
            trial % 3 == 0
                ? std::min(n, boundary - 1 + rng() % 3)
                : 1 + rng() % std::min<std::size_t>(n, 2 * boundary);
        const std::vector<T> page = randomPage<T>(n, runs, rng);
        std::uint64_t mask[2] = {0, 0};
        const unsigned extra = rng() % 3; // none, some or all words
        for (std::size_t i = 0; i < n; ++i) {
            const bool live = page[i] != 0 || extra == 2 ||
                              (extra == 1 && rng() % 4 == 0);
            if (live)
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        const std::size_t len =
            detail::rleEncode(page.data(), n, mask, out.data());
        const std::vector<std::uint8_t> want = naiveRle(page);
        ASSERT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + len),
                  want)
            << "trial " << trial << " runs " << runs;

        std::vector<T> back(n, 0);
        std::uint64_t backMask[2] = {0, 0};
        detail::rleDecode(out.data(), len, back.data(), n, backMask);
        ASSERT_EQ(back, page) << "trial " << trial;
        for (std::size_t i = 0; i < n; ++i) {
            if (page[i] != 0) {
                ASSERT_TRUE(backMask[i / 64] >> (i % 64) & 1)
                    << "trial " << trial << " word " << i;
            }
        }
    }
}

TYPED_TEST(TieredStoreCodecProperty, StoreBlobsMatchNaiveWithZeroedWords)
{
    // Through the store: write a random page with ref(), write some of
    // its words back to 0 with ref() (masked but zero), then demote it
    // (one hot page at a time).  Its blob must take exactly the naive
    // length, and the page must read back exactly, every cycle.
    using T = std::remove_cvref_t<decltype(std::declval<TypeParam &>().get(0))>;
    constexpr std::size_t n = TypeParam::pageElems;
    const std::size_t boundary = rawRuns<T>(n);
    std::mt19937_64 rng(31 + n);
    TypeParam store(2 * TypeParam::rawPageBytes - 1);
    std::vector<std::vector<T>> pages;
    for (std::uint64_t p = 0; p < 40; ++p) {
        const std::size_t runs =
            p % 4 == 0 ? std::min(n, boundary - 1 + p / 4 % 3)
                       : 1 + rng() % std::min<std::size_t>(n, 2 * boundary);
        std::vector<T> page = randomPage<T>(n, runs, rng);
        const std::uint64_t base = (p + 1) * n;
        // Page 0 is hot here and again after the demotion below.
        const std::uint64_t before =
            store.compressedBytes() + store.segmentBytes();
        for (std::size_t i = 0; i < n; ++i) {
            if (page[i] != 0)
                store.ref(base + i) = page[i];
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (rng() % 3 == 0) {
                store.ref(base + i) = static_cast<T>(rng() | 1);
                store.ref(base + i) = 0;
                page[i] = 0;
            }
        }
        store.ref(0) = 0; // demotes page p
        EXPECT_EQ(store.compressedBytes() + store.segmentBytes() - before,
                  naiveRle(page).size())
            << "page " << p;
        pages.push_back(std::move(page));
    }
    for (std::uint64_t p = 0; p < pages.size(); ++p) {
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(store.get((p + 1) * n + i), pages[p][i])
                << "page " << p << " word " << i;
    }
}

TEST(TieredStore, SpillQueueStaysBoundedWithoutSpills)
{
    // 100 k page cycles at a budget that never spills: dead queue
    // entries (pages promoted since their demotion) must not pile up.
    constexpr std::uint64_t pages = 12;
    WordStore store(4 * WordStore::rawPageBytes);
    for (std::uint64_t p = 0; p < pages; ++p)
        store.ref(p * WordStore::pageElems) = static_cast<std::uint32_t>(p);
    std::size_t worst = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        store.get((i % pages) * WordStore::pageElems);
        worst = std::max(worst, store.spillQueueLength());
        ASSERT_LE(store.spillQueueLength(), 2 * store.coldPages() + 17)
            << "after access " << i;
    }
    EXPECT_GE(store.stats().compressions, 99000u);
    EXPECT_EQ(store.stats().diskPageWrites, 0u);
    EXPECT_LE(worst, 2 * pages + 17);
}

TEST(TieredStore, SpillTakesTheLongestColdPage)
{
    // One hot page (budget 64 + two 9-byte blobs).  Demote P, promote
    // P, demote Q, demote P: the queue holds P's stale first demotion
    // ahead of Q, but Q has been cold longest, so Q spills first.
    WordStore store(WordStore::rawPageBytes + 2 * 9);
    const std::uint64_t e = WordStore::pageElems;
    const std::uint64_t P = 1, Q = 2, R = 3, S = 4;
    fillPage<WordStore, std::uint32_t>(store, P, 11, 11);
    fillPage<WordStore, std::uint32_t>(store, Q, 22, 22); // demote P
    EXPECT_EQ(store.get(P * e), 11u);        // promote P, demote Q
    fillPage<WordStore, std::uint32_t>(store, R, 33, 33); // demote P
    EXPECT_EQ(store.coldPages(), 2u);
    EXPECT_EQ(store.stats().diskPageWrites, 0u);
    fillPage<WordStore, std::uint32_t>(store, S, 44, 44); // spill one
    if (store.stats().diskUnavailable != 0)
        GTEST_SKIP() << "no temporary file for the disk tier";
    ASSERT_EQ(store.stats().diskPageWrites, 1u);
    EXPECT_EQ(store.get(Q * e + 3), 22u);
    EXPECT_EQ(store.stats().diskPageReads, 1u) << "Q was not on disk";
    EXPECT_EQ(store.get(P * e + 3), 11u);
    EXPECT_EQ(store.get(R * e + 3), 33u);
    EXPECT_EQ(store.get(S * e + 3), 44u);
}

TEST(TwoBitDirectoryTiered, BudgetedDirectoryMatchesUnlimited)
{
    // The directory's get/set semantics must be identical at any
    // budget — this is the property the golden digests rely on.
    TwoBitDirectory plain;
    TwoBitDirectory tiny(2048); // two 1 KiB pages
    std::mt19937_64 rng(17);
    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng() % (1 << 22);
        if (rng() % 2) {
            const auto st = static_cast<GlobalState>(rng() % 4);
            plain.set(a, st);
            tiny.set(a, st);
        } else {
            ASSERT_EQ(plain.get(a), tiny.get(a)) << "addr " << a;
        }
    }
    EXPECT_EQ(plain.setstateCount(), tiny.setstateCount());
    EXPECT_EQ(plain.materialisedBits(), tiny.materialisedBits());
    EXPECT_GT(tiny.storeStats().compressions, 0u);
    EXPECT_EQ(tiny.ramBudgetBytes(), 2048u);
}

TEST(TwoBitDirectoryTiered, HugeSparseSpaceStaysWithinBudget)
{
    // 2^32 block addresses scattered across the space: materialises
    // thousands of pages yet stays within a 64 KiB resident budget
    // (pages are homogeneous, so the cold tier is almost free).
    TwoBitDirectory dir(64 * 1024);
    std::mt19937_64 rng(19);
    std::vector<Addr> touched;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = rng() % (Addr{1} << 32);
        dir.set(a, GlobalState::Present1);
        touched.push_back(a);
    }
    if (dir.storeStats().diskUnavailable == 0) {
        EXPECT_LE(dir.residentBytes(), 64u * 1024u);
    }
    for (const Addr a : touched)
        EXPECT_EQ(dir.get(a), GlobalState::Present1);
}

} // namespace
} // namespace dir2b
