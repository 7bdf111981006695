/**
 * @file
 * Zero-copy binary trace format (ROADMAP item 2's substrate).
 *
 * The text format in trace_io.hh decodes one reference at a time
 * through an istringstream — fine for debugging, hopeless for the
 * billion-reference workload-zoo sweeps.  This file defines the
 * `.d2t` binary format those sweeps stream instead:
 *
 *   [TraceFileHeader]                               64 bytes
 *   [TraceBlockHeader][TraceRecord x records] ...   repeated
 *
 * All fields are little-endian, all structs are fixed-width PODs, and
 * every block starts at a 16-byte-aligned offset, so an mmap()ed file
 * IS the record array: TraceReader hands out whole blocks as
 * AccessBatch spans with zero per-record parsing.  Integrity comes in
 * layers — a magic/version/endianness guard in the file header,
 * per-block record counts and FNV-1a digests (plus a running digest,
 * so corruption is localised to a block), and a whole-file digest in
 * the header that TraceReader::verify() recomputes.
 *
 * Writers never see this layout: TraceWriter buffers one block of
 * records and emits header+payload together, patching the file header
 * on finish().  tools/trace_pack converts text <-> binary and dumps
 * headers/digests; dir2bsim records with --trace-out and replays with
 * --trace-in (functional tier via batched dispatch, timed tier via
 * per-processor cursors).  Replay is bit-identical to the run that
 * recorded the stream — tests/test_trace_replay.cc holds all seven
 * timed golden digests and the pinned table-engine digests to that.
 */

#ifndef DIR2B_TRACE_TRACE_BINARY_HH
#define DIR2B_TRACE_TRACE_BINARY_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/reference.hh"

namespace dir2b
{

/** FNV-1a offset basis (the digest chain's seed). */
constexpr std::uint64_t traceDigestSeed = 0xcbf29ce484222325ULL;

/** One reference, as stored on disk.  16 bytes, naturally aligned. */
struct TraceRecord
{
    Addr addr = 0;
    ProcId proc = 0;
    /** Bit 0: write.  Remaining bits reserved (must be zero). */
    std::uint32_t flags = 0;

    bool write() const { return flags & 1u; }

    MemRef
    toRef() const
    {
        return MemRef{proc, addr, write()};
    }

    static TraceRecord
    fromRef(const MemRef &r)
    {
        return TraceRecord{r.addr, r.proc, r.write ? 1u : 0u};
    }
};

static_assert(sizeof(TraceRecord) == 16, "record layout is the format");

/**
 * Fold one record's 16 on-disk bytes into two FNV-1a chains at once:
 * a block's digest and the running digest.  The chains are
 * independent, so the two multiplies per byte overlap and one pass
 * costs about one chain's latency.  The bytes are taken from the
 * fields in the format's little-endian order.
 */
inline void
traceDigestRecord(const TraceRecord &r, std::uint64_t &a,
                  std::uint64_t &b)
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    const std::uint64_t words[2] = {
        r.addr, r.proc | std::uint64_t{r.flags} << 32};
    for (const std::uint64_t w : words) {
        for (int i = 0; i < 64; i += 8) {
            const std::uint64_t byte = (w >> i) & 0xff;
            a = (a ^ byte) * prime;
            b = (b ^ byte) * prime;
        }
    }
}

/** Eight-byte file magic: "DIR2BTRC". */
constexpr char traceMagic[8] = {'D', 'I', 'R', '2', 'B', 'T', 'R', 'C'};

/** Format version this build reads and writes. */
constexpr std::uint32_t traceFormatVersion = 1;

/** Byte-order tag as written by a little-endian host; a big-endian
 *  writer would store these four bytes reversed, which the reader
 *  rejects. */
constexpr std::uint32_t traceEndianTag = 0x01020304;

/** Per-block header magic ("D2TB"). */
constexpr std::uint32_t traceBlockMagic = 0x42543244;

/** Records per block by default: 64 Ki records = 1 MiB of payload. */
constexpr std::uint32_t traceDefaultBlockRecords = 1u << 16;

/** File header; 64 bytes, patched in place by TraceWriter::finish(). */
struct TraceFileHeader
{
    char magic[8];             ///< traceMagic
    std::uint32_t version;     ///< traceFormatVersion
    std::uint32_t endianTag;   ///< traceEndianTag (byte-order guard)
    std::uint32_t headerBytes; ///< sizeof(TraceFileHeader)
    std::uint32_t recordBytes; ///< sizeof(TraceRecord)
    std::uint32_t blockRecords; ///< capacity of every non-final block
    std::uint32_t numProcs;    ///< max ProcId seen + 1 (0 for empty)
    std::uint64_t totalRecords;
    std::uint64_t numBlocks;
    /** FNV-1a over every record's bytes, in file order. */
    std::uint64_t fileDigest;
    std::uint64_t reserved;
};

static_assert(sizeof(TraceFileHeader) == 64, "header layout is the format");

/** Block header; 32 bytes, immediately followed by `records` records. */
struct TraceBlockHeader
{
    std::uint32_t magic;   ///< traceBlockMagic
    std::uint32_t records; ///< records in this block (> 0)
    std::uint64_t firstIndex; ///< global index of the first record
    /** FNV-1a over this block's record bytes (seeded fresh). */
    std::uint64_t blockDigest;
    /** FNV-1a over all record bytes from the file start through this
     *  block — corruption is localised to the first bad block. */
    std::uint64_t runningDigest;
};

static_assert(sizeof(TraceBlockHeader) == 32, "header layout is the format");

/** A span of trace records decoded as one unit — the batch the
 *  replay frontends dispatch instead of one reference at a time. */
struct AccessBatch
{
    const TraceRecord *recs = nullptr;
    std::size_t count = 0;

    const TraceRecord *begin() const { return recs; }
    const TraceRecord *end() const { return recs + count; }
    bool empty() const { return count == 0; }
};

/**
 * Buffered block-at-a-time writer.  Records accumulate in memory,
 * folded into the block and running digests as they arrive, until a
 * block fills; then header+payload are written.  finish() (or the
 * destructor) flushes the tail block and patches the file header with
 * the totals.  Fatal on I/O errors.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path,
                         std::uint32_t blockRecords =
                             traceDefaultBlockRecords);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void
    append(const MemRef &r)
    {
        const TraceRecord rec = TraceRecord::fromRef(r);
        buf_.push_back(rec);
        traceDigestRecord(rec, blockDigest_, runningDigest_);
        if (r.proc >= numProcs_)
            numProcs_ = r.proc + 1;
        if (buf_.size() == blockRecords_)
            flushBlock();
    }

    void append(const MemRef *refs, std::size_t n);

    /** Flush the tail block and patch the file header.  Idempotent;
     *  no appends are allowed afterwards. */
    void finish();

    std::uint64_t recordsWritten() const { return totalRecords_; }
    std::uint64_t blocksWritten() const { return numBlocks_; }
    /** Whole-file digest (valid after finish()). */
    std::uint64_t fileDigest() const { return runningDigest_; }

  private:
    void flushBlock();

    std::string path_;
    std::FILE *f_ = nullptr;
    std::uint32_t blockRecords_;
    std::vector<TraceRecord> buf_;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t numBlocks_ = 0;
    /** Both digest chains advance as each record is appended. */
    std::uint64_t blockDigest_ = traceDigestSeed;
    std::uint64_t runningDigest_ = traceDigestSeed;
    std::uint32_t numProcs_ = 0;
    bool finished_ = false;
};

/**
 * mmap-backed reader.  The constructor maps the file read-only,
 * validates the magic/version/endianness/geometry guards and walks
 * every block header (bounds, counts, index continuity) — but never
 * touches record payload, so opening a billion-reference trace is
 * O(blocks).  block(i) returns the i-th record span straight out of
 * the mapping.  Fatal on any structural problem.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceFileHeader &header() const { return *header_; }
    const std::string &path() const { return path_; }
    std::uint64_t totalRecords() const { return header_->totalRecords; }
    std::size_t numBlocks() const { return blocks_.size(); }
    std::size_t mappedBytes() const { return mapBytes_; }

    const TraceBlockHeader &
    blockHeader(std::size_t i) const
    {
        return *blocks_.at(i);
    }

    /** The i-th block's records, zero-copy out of the mapping. */
    AccessBatch
    block(std::size_t i) const
    {
        const TraceBlockHeader *h = blocks_.at(i);
        return AccessBatch{
            reinterpret_cast<const TraceRecord *>(h + 1), h->records};
    }

    /** Recompute every block digest, the running chain and the file
     *  digest in one pass over the records; fatal (naming the first
     *  bad block) on any mismatch.  Returns the file digest. */
    std::uint64_t verify() const;

  private:
    std::string path_;
    const std::uint8_t *map_ = nullptr;
    std::size_t mapBytes_ = 0;
    const TraceFileHeader *header_ = nullptr;
    std::vector<const TraceBlockHeader *> blocks_;
};

/** Sequential batch cursor over a reader (the replay frontends' input). */
class TraceBatchStream
{
  public:
    explicit TraceBatchStream(const TraceReader &r) : reader_(&r) {}

    /** Next block span, or an empty batch at end of trace. */
    AccessBatch
    nextBatch()
    {
        if (block_ >= reader_->numBlocks())
            return {};
        return reader_->block(block_++);
    }

  private:
    const TraceReader *reader_;
    std::size_t block_ = 0;
};

/** One-record-at-a-time RefStream over a reader: the compatibility
 *  path (and the replay tests' per-record reference) — every consumer
 *  of the old VectorStream interface works unchanged, just without the
 *  text parse. */
class MmapTraceStream : public RefStream
{
  public:
    explicit MmapTraceStream(const TraceReader &r) : reader_(&r) {}

    std::optional<MemRef>
    next() override
    {
        while (pos_ >= batch_.count) {
            if (block_ >= reader_->numBlocks())
                return std::nullopt;
            batch_ = reader_->block(block_++);
            pos_ = 0;
        }
        return batch_.recs[pos_++].toRef();
    }

    void
    rewind()
    {
        block_ = 0;
        batch_ = {};
        pos_ = 0;
    }

  private:
    const TraceReader *reader_;
    AccessBatch batch_{};
    std::size_t block_ = 0;
    std::size_t pos_ = 0;
};

/**
 * Per-processor replay cursors for the timed tier: next(p) returns
 * processor p's subsequence of the merged trace, in trace order.
 * Each cursor only mutates its own state over the shared read-only
 * mapping, so concurrent next() calls for DISTINCT processors are
 * safe — the same contract SyntheticStream::nextFor gives.
 */
class TraceProcSource
{
  public:
    TraceProcSource(const TraceReader &r, ProcId numProcs);

    std::optional<MemRef> next(ProcId p);

  private:
    struct Cursor
    {
        std::size_t block = 0;
        std::size_t pos = 0;
        /** Pad to a cache line: distinct procs advance concurrently. */
        char pad[64 - 2 * sizeof(std::size_t)];
    };

    const TraceReader *reader_;
    std::vector<Cursor> cursors_;
};

} // namespace dir2b

#endif // DIR2B_TRACE_TRACE_BINARY_HH
