/**
 * @file
 * The two-bit-per-block directory storage itself.
 *
 * This is the data structure whose economy the paper is named for: a
 * packed array holding exactly two bits of global state per memory
 * block, independent of the number of processors.  For comparison, the
 * full map needs n+1 bits per block (~15% of memory for 16 processors
 * and 16-byte blocks, §2.4.2); this map needs 2 bits per block
 * regardless of n (~0.8% for the same geometry).
 *
 * The words are held in a TieredStore so that sparse reference streams
 * do not materialise state for untouched regions, and so that address
 * spaces far larger than RAM still fit: under a RAM budget, cold pages
 * are run-length compressed in place (directory pages are almost
 * always homogeneous Absent or Present1) and the coldest spill to an
 * anonymous disk segment.  With the default unlimited budget every
 * page stays raw, so a lookup is a cached page probe plus a
 * shift/mask, and either way the get/set semantics are
 * bit-identical, so every protocol, the model checker and the timed
 * tier are oblivious to the tiering.  bitsPerBlock() still exposes the
 * true hardware cost.
 */

#ifndef DIR2B_CORE_TWO_BIT_DIRECTORY_HH
#define DIR2B_CORE_TWO_BIT_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "core/global_state.hh"
#include "sim/stats.hh"
#include "util/tiered_store.hh"
#include "util/types.hh"

namespace dir2b
{

/** Packed 2-bit/block global-state map (one per memory module). */
class TwoBitDirectory
{
  public:
    /** ramBudgetBytes caps resident directory storage for this module
     *  (hot raw + cold compressed pages); 0 = unlimited, no tiering. */
    explicit TwoBitDirectory(std::uint64_t ramBudgetBytes = 0)
        : words_(ramBudgetBytes)
    {}

    /** Global state of block a (Absent until first touched). */
    GlobalState
    get(Addr a) const
    {
        // Untouched words read as zero, which is Absent by
        // construction (GlobalState::Absent == 0).
        const std::uint64_t word = words_.get(a / blocksPerWord);
        return static_cast<GlobalState>((word >> bitOffset(a)) & 0x3);
    }

    /** get(a) without the value: keeps a budgeted store's clock and
     *  page tiers exactly as a read would leave them. */
    void touch(Addr a) { words_.touch(a / blocksPerWord); }

    /** The paper's SETSTATE(a, st). */
    void
    set(Addr a, GlobalState st)
    {
        ++setstates_;
        std::uint64_t &word = words_.ref(a / blocksPerWord);
        word &= ~(0x3ULL << bitOffset(a));
        word |= static_cast<std::uint64_t>(st) << bitOffset(a);
    }

    /** Number of SETSTATE operations performed. */
    std::uint64_t setstateCount() const { return setstates_.value(); }

    /** Hardware cost of this scheme, per block, in bits. */
    static constexpr unsigned bitsPerBlock() { return 2; }

    /** Bits of directory storage currently materialised. */
    std::uint64_t
    materialisedBits() const
    {
        return words_.pageCount() * blocksPerPage * bitsPerBlock();
    }

    /** Bytes of directory state resident in RAM right now. */
    std::uint64_t residentBytes() const { return words_.residentBytes(); }

    /** Bytes of compressed (cold, in-RAM) directory state. */
    std::uint64_t compressedBytes() const { return words_.compressedBytes(); }

    /** Bytes appended to the on-disk spill segment. */
    std::uint64_t segmentBytes() const { return words_.segmentBytes(); }

    /** Pages per tier (hot raw / cold compressed / on disk). */
    std::uint64_t hotPages() const { return words_.hotPages(); }
    std::uint64_t coldPages() const { return words_.coldPages(); }
    std::uint64_t diskPages() const { return words_.diskPages(); }

    /** The configured per-module RAM budget (0 = unlimited). */
    std::uint64_t ramBudgetBytes() const { return words_.budgetBytes(); }

    /** Tier-movement counters of the backing store. */
    const TieredStoreStats &storeStats() const { return words_.stats(); }

  private:
    /** One 64-bit word packs 32 blocks at two bits each. */
    static constexpr std::uint64_t blocksPerWord = 32;
    // 128 words (1 KiB of directory, 4096 blocks) per page — the same
    // materialisation granularity as the previous chunked map.
    static constexpr unsigned pageBits = 7;
    static constexpr std::uint64_t blocksPerPage =
        (std::uint64_t{1} << pageBits) * blocksPerWord;

    static unsigned
    bitOffset(Addr a)
    {
        return static_cast<unsigned>((a % blocksPerWord) * 2);
    }

    TieredStore<std::uint64_t, pageBits> words_;
    Counter setstates_;
};

/**
 * The DirStoreCounters field list: member, kind, description, in the
 * key order of the dir2b.sweep v3 "dirStore" object.
 */
#define DIR2B_DIR_STORE_COUNTERS(X)                                         \
    X(ramBudgetBytes, Gauge, "total configured RAM budget")                 \
    X(residentBytes, Gauge, "hot raw + cold compressed bytes")              \
    X(compressedBytes, Gauge, "cold compressed bytes")                      \
    X(segmentBytes, Gauge, "bytes appended to disk segments")               \
    X(hotPages, Gauge, "pages held raw")                                    \
    X(coldPages, Gauge, "pages held compressed")                            \
    X(diskPages, Gauge, "pages held on disk")                               \
    X(compressions, Counter, "hot -> cold demotions")                       \
    X(decompressions, Counter, "cold/disk -> hot promotions")               \
    X(diskPageWrites, Counter, "cold -> disk spills")                       \
    X(diskPageReads, Counter, "disk -> hot reloads")

/** Aggregated tiered-storage counters across a system's directories
 *  (the dirStore object of the dir2b.sweep v3 schema). */
struct DirStoreCounters
{
#define X(m, kind, desc) std::uint64_t m = 0;
    DIR2B_DIR_STORE_COUNTERS(X)
#undef X

    void
    add(const TwoBitDirectory &dir)
    {
        ramBudgetBytes += dir.ramBudgetBytes();
        residentBytes += dir.residentBytes();
        compressedBytes += dir.compressedBytes();
        segmentBytes += dir.segmentBytes();
        hotPages += dir.hotPages();
        coldPages += dir.coldPages();
        diskPages += dir.diskPages();
        const TieredStoreStats &st = dir.storeStats();
        compressions += st.compressions;
        decompressions += st.decompressions;
        diskPageWrites += st.diskPageWrites;
        diskPageReads += st.diskPageReads;
    }
};

/** The DirStoreCounters field list as data. */
inline constexpr StatField<DirStoreCounters, std::uint64_t>
    dirStoreFields[] = {
#define X(m, kind, desc) {&DirStoreCounters::m, #m, desc, MetricKind::kind},
        DIR2B_DIR_STORE_COUNTERS(X)
#undef X
};

/** Series probe shared by both tiers: field `f` of
 *  `src.dirStoreCounters()`, where ctx is a `const Src *`. */
template <class Src>
std::uint64_t
dirStoreField(const void *ctx, std::size_t f)
{
    return static_cast<const Src *>(ctx)->dirStoreCounters().*
           dirStoreFields[f].member;
}

/** Split a total directory RAM budget evenly across modules
 *  (0 stays 0 = unlimited). */
constexpr std::uint64_t
perModuleDirBudget(std::uint64_t totalBytes, std::uint64_t modules)
{
    return modules ? totalBytes / modules : totalBytes;
}

/** One budgeted directory per memory module. */
inline std::vector<TwoBitDirectory>
makeTwoBitDirectories(ModuleId modules, std::uint64_t totalRamBudget)
{
    std::vector<TwoBitDirectory> dirs;
    dirs.reserve(modules);
    for (ModuleId m = 0; m < modules; ++m)
        dirs.emplace_back(perModuleDirBudget(totalRamBudget, modules));
    return dirs;
}

} // namespace dir2b

#endif // DIR2B_CORE_TWO_BIT_DIRECTORY_HH
