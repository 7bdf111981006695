/**
 * @file
 * Binary trace format tests: write/read round trips (including the
 * empty, single-record, exact-block-boundary and multi-block cases),
 * the structural guards (magic, version, endianness, truncation) and
 * the digest layers (trace_binary.hh, docs/TRACES.md).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "temp_path.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

/** Temp path private to the running test; removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
    {
        path_ = testTempPath("trace_binary_" + tag + ".d2t");
        std::remove(path_.c_str());
    }

    ~TempTrace() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Deterministic but irregular reference sequence. */
std::vector<MemRef>
someRefs(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<MemRef> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        MemRef r;
        r.proc = static_cast<ProcId>(rng.range(5));
        r.addr = rng.range(std::uint64_t{1} << 40);
        r.write = rng.range(4) == 0;
        refs.push_back(r);
    }
    return refs;
}

void
writeAll(const std::string &path, const std::vector<MemRef> &refs,
         std::uint32_t blockRecords)
{
    TraceWriter w(path, blockRecords);
    w.append(refs.data(), refs.size());
    w.finish();
}

/** Round trip `n` records at block capacity `blockRecords` and check
 *  every header field, block shape and record against the source. */
void
roundTrip(std::size_t n, std::uint32_t blockRecords)
{
    TempTrace t("roundtrip");
    const std::vector<MemRef> refs = someRefs(n);
    writeAll(t.path(), refs, blockRecords);

    TraceReader reader(t.path());
    const TraceFileHeader &h = reader.header();
    EXPECT_EQ(h.version, traceFormatVersion);
    EXPECT_EQ(h.recordBytes, sizeof(TraceRecord));
    EXPECT_EQ(h.blockRecords, blockRecords);
    EXPECT_EQ(reader.totalRecords(), n);
    const std::size_t wantBlocks =
        (n + blockRecords - 1) / blockRecords;
    EXPECT_EQ(reader.numBlocks(), wantBlocks);

    std::size_t i = 0;
    for (std::size_t b = 0; b < reader.numBlocks(); ++b) {
        EXPECT_EQ(reader.blockHeader(b).firstIndex, i);
        for (const TraceRecord &rec : reader.block(b)) {
            ASSERT_LT(i, refs.size());
            EXPECT_EQ(rec.addr, refs[i].addr);
            EXPECT_EQ(rec.proc, refs[i].proc);
            EXPECT_EQ(rec.write(), refs[i].write);
            ++i;
        }
    }
    EXPECT_EQ(i, n);
    EXPECT_EQ(reader.verify(), h.fileDigest);
}

TEST(TraceBinary, RoundTripSingleRecord) { roundTrip(1, 8); }

TEST(TraceBinary, RoundTripPartialBlock) { roundTrip(5, 8); }

TEST(TraceBinary, RoundTripExactBlockBoundary) { roundTrip(16, 8); }

TEST(TraceBinary, RoundTripManyBlocksWithTail) { roundTrip(1003, 64); }

TEST(TraceBinary, RoundTripDefaultBlockSize)
{
    roundTrip(2000, traceDefaultBlockRecords);
}

TEST(TraceBinary, EmptyTrace)
{
    TempTrace t("empty");
    {
        TraceWriter w(t.path(), 8);
        w.finish();
        EXPECT_EQ(w.recordsWritten(), 0u);
        EXPECT_EQ(w.blocksWritten(), 0u);
    }
    TraceReader reader(t.path());
    EXPECT_EQ(reader.totalRecords(), 0u);
    EXPECT_EQ(reader.numBlocks(), 0u);
    EXPECT_EQ(reader.header().numProcs, 0u);
    EXPECT_EQ(reader.verify(), traceDigestSeed);
}

TEST(TraceBinary, HeaderRecordsProcCount)
{
    TempTrace t("procs");
    std::vector<MemRef> refs = someRefs(50);
    refs.push_back(MemRef{11, 0x1234, false});
    writeAll(t.path(), refs, 16);
    TraceReader reader(t.path());
    EXPECT_EQ(reader.header().numProcs, 12u);
}

TEST(TraceBinary, DestructorFinishes)
{
    TempTrace t("dtor");
    const std::vector<MemRef> refs = someRefs(30);
    {
        TraceWriter w(t.path(), 8);
        w.append(refs.data(), refs.size());
        // no finish(): the destructor must flush and patch.
    }
    TraceReader reader(t.path());
    EXPECT_EQ(reader.totalRecords(), 30u);
    reader.verify();
}

/** A record's 16 on-disk bytes, laid out from its fields as the
 *  format defines them (little-endian addr, proc, flags). */
void
appendRecordBytes(std::vector<unsigned char> &out, const MemRef &r)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(r.addr >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(r.proc >> (8 * i)));
    out.push_back(r.write ? 1 : 0);
    out.insert(out.end(), 3, 0);
}

/** Byte-at-a-time FNV-1a, written out independently of the writer. */
std::uint64_t
naiveFnv(const unsigned char *b, std::size_t n,
         std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001b3ULL;
    return h;
}

/** Property: the writer's digest equals a straight FNV-1a fold over
 *  the record bytes, independent of block capacity. */
TEST(TraceBinary, DigestIndependentOfBlockSize)
{
    const std::vector<MemRef> refs = someRefs(500, 7);
    std::vector<unsigned char> bytes;
    for (const MemRef &r : refs)
        appendRecordBytes(bytes, r);
    const std::uint64_t want = naiveFnv(bytes.data(), bytes.size());

    for (const std::uint32_t blockRecords : {1u, 7u, 100u, 512u}) {
        TempTrace t("digest");
        writeAll(t.path(), refs, blockRecords);
        TraceReader reader(t.path());
        EXPECT_EQ(reader.header().fileDigest, want);
        EXPECT_EQ(reader.verify(), want);
    }
}

/** Every block header's blockDigest (seeded fresh) and runningDigest
 *  (chained from the file start), and the file header's fileDigest,
 *  equal a naive FNV-1a over the records' bytes. */
TEST(TraceBinary, BlockDigestsMatchNaiveFnv)
{
    // Every capacity above 1 ends in a partial tail block.
    const std::pair<std::uint32_t, std::size_t> shapes[] = {
        {1u, 50}, {7u, 1003}, {64u, 1003},
        {traceDefaultBlockRecords, traceDefaultBlockRecords + 77}};
    for (const auto &[blockRecords, n] : shapes) {
        SCOPED_TRACE(blockRecords);
        const std::vector<MemRef> refs = someRefs(n, 11);
        std::vector<unsigned char> bytes;
        for (const MemRef &r : refs)
            appendRecordBytes(bytes, r);

        TempTrace t("naive");
        writeAll(t.path(), refs, blockRecords);
        TraceReader reader(t.path());
        ASSERT_EQ(reader.numBlocks(),
                  (n + blockRecords - 1) / blockRecords);

        std::uint64_t running = 0xcbf29ce484222325ULL;
        for (std::size_t b = 0; b < reader.numBlocks(); ++b) {
            const TraceBlockHeader &h = reader.blockHeader(b);
            const unsigned char *p = bytes.data() + h.firstIndex * 16;
            const std::size_t len = std::size_t{h.records} * 16;
            EXPECT_EQ(h.blockDigest, naiveFnv(p, len)) << "block " << b;
            running = naiveFnv(p, len, running);
            EXPECT_EQ(h.runningDigest, running) << "block " << b;
        }
        EXPECT_EQ(reader.header().fileDigest,
                  naiveFnv(bytes.data(), bytes.size()));
        EXPECT_EQ(reader.verify(), reader.header().fileDigest);
    }
}

// ------------------------------------------------------------- guards

/** Clobber `len` bytes at `off` in the file at `path`. */
void
clobber(const std::string &path, long off, const void *bytes,
        std::size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
    std::fclose(f);
}

TEST(TraceBinaryDeath, RejectsMissingFile)
{
    EXPECT_DEATH(TraceReader("/nonexistent/no_such_trace.d2t"),
                 "cannot open trace");
}

TEST(TraceBinaryDeath, RejectsCorruptMagic)
{
    TempTrace t("badmagic");
    writeAll(t.path(), someRefs(20), 8);
    clobber(t.path(), 0, "NOTATRCE", 8);
    EXPECT_DEATH(TraceReader r(t.path()), "bad magic");
}

TEST(TraceBinaryDeath, RejectsUnsupportedVersion)
{
    TempTrace t("badversion");
    writeAll(t.path(), someRefs(20), 8);
    const std::uint32_t v = traceFormatVersion + 9;
    clobber(t.path(), 8, &v, sizeof(v));
    EXPECT_DEATH(TraceReader r(t.path()), "format version");
}

TEST(TraceBinaryDeath, RejectsBigEndianHeader)
{
    TempTrace t("bigendian");
    writeAll(t.path(), someRefs(20), 8);
    // The four endian-tag bytes as a big-endian writer would lay
    // them out.
    const unsigned char swapped[4] = {0x01, 0x02, 0x03, 0x04};
    clobber(t.path(), 12, swapped, sizeof(swapped));
    EXPECT_DEATH(TraceReader r(t.path()), "endianness tag");
}

TEST(TraceBinaryDeath, RejectsTruncatedFile)
{
    TempTrace t("truncated");
    writeAll(t.path(), someRefs(100), 16);
    ASSERT_EQ(::truncate(t.path().c_str(),
                         static_cast<long>(sizeof(TraceFileHeader) +
                                           sizeof(TraceBlockHeader) +
                                           5 * sizeof(TraceRecord))),
              0);
    EXPECT_DEATH(TraceReader r(t.path()), "truncated");
}

TEST(TraceBinaryDeath, RejectsFileShorterThanHeader)
{
    TempTrace t("stub");
    std::ofstream(t.path()) << "short";
    EXPECT_DEATH(TraceReader r(t.path()), "file too short");
}

TEST(TraceBinaryDeath, VerifyCatchesPayloadCorruption)
{
    TempTrace t("corrupt");
    writeAll(t.path(), someRefs(64), 16);
    // Flip one record byte in the third block; open still succeeds
    // (structure is intact), verify() must name block 2.
    const long off = static_cast<long>(
        sizeof(TraceFileHeader) +
        3 * sizeof(TraceBlockHeader) +
        (2 * 16 + 3) * sizeof(TraceRecord) + 1);
    const unsigned char junk = 0xa5;
    clobber(t.path(), off, &junk, 1);
    TraceReader reader(t.path());
    EXPECT_DEATH(reader.verify(), "block 2 digest mismatch");
}

TEST(TraceBinaryDeath, VerifyCatchesRunningDigestMismatch)
{
    TempTrace t("running");
    writeAll(t.path(), someRefs(64), 16);
    // Block 1's payload and block digest stay intact; only the chain
    // value in its header is wrong.
    const std::uint64_t bogus = 0x1234;
    const long off = static_cast<long>(
        sizeof(TraceFileHeader) + sizeof(TraceBlockHeader) +
        16 * sizeof(TraceRecord) +
        offsetof(TraceBlockHeader, runningDigest));
    clobber(t.path(), off, &bogus, sizeof(bogus));
    TraceReader reader(t.path());
    EXPECT_DEATH(reader.verify(), "block 1 running digest mismatch");
}

TEST(TraceBinaryDeath, VerifyCatchesFileDigestMismatch)
{
    TempTrace t("filedigest");
    writeAll(t.path(), someRefs(64), 16);
    // Every block checks out; only the header's whole-file digest is
    // wrong.
    const std::uint64_t bogus = 0x1234;
    clobber(t.path(),
            static_cast<long>(offsetof(TraceFileHeader, fileDigest)),
            &bogus, sizeof(bogus));
    TraceReader reader(t.path());
    EXPECT_DEATH(reader.verify(), "file digest mismatch");
}

TEST(TraceBinaryDeath, RejectsBrokenBlockChain)
{
    TempTrace t("chain");
    writeAll(t.path(), someRefs(64), 16);
    // Corrupt the second block header's firstIndex.
    const std::uint64_t bogus = 999;
    const long off = static_cast<long>(
        sizeof(TraceFileHeader) + sizeof(TraceBlockHeader) +
        16 * sizeof(TraceRecord) + 8);
    clobber(t.path(), off, &bogus, sizeof(bogus));
    EXPECT_DEATH(TraceReader r(t.path()), "starts at record 999");
}

TEST(TraceBinaryDeath, WriterRejectsZeroBlockCapacity)
{
    TempTrace t("zerocap");
    EXPECT_DEATH(TraceWriter w(t.path(), 0), "block size");
}

// --------------------------------------------------- replay frontends

TEST(TraceBinary, MmapStreamMatchesSource)
{
    TempTrace t("stream");
    const std::vector<MemRef> refs = someRefs(200, 3);
    writeAll(t.path(), refs, 32);
    TraceReader reader(t.path());
    MmapTraceStream stream(reader);
    for (const MemRef &want : refs) {
        const auto got = stream.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->addr, want.addr);
        EXPECT_EQ(got->proc, want.proc);
        EXPECT_EQ(got->write, want.write);
    }
    EXPECT_FALSE(stream.next().has_value());
    stream.rewind();
    EXPECT_TRUE(stream.next().has_value());
}

TEST(TraceBinary, BatchStreamCoversEveryRecordOnce)
{
    TempTrace t("batches");
    const std::vector<MemRef> refs = someRefs(150, 9);
    writeAll(t.path(), refs, 32);
    TraceReader reader(t.path());
    TraceBatchStream batches(reader);
    std::size_t i = 0;
    for (AccessBatch b = batches.nextBatch(); !b.empty();
         b = batches.nextBatch())
        for (const TraceRecord &rec : b) {
            EXPECT_EQ(rec.addr, refs[i].addr);
            ++i;
        }
    EXPECT_EQ(i, refs.size());
    EXPECT_TRUE(batches.nextBatch().empty());
}

TEST(TraceBinary, AnalyzeCapsAtMaxRefsInTraceOrder)
{
    TempTrace t("analyze_cap");
    const std::vector<MemRef> refs = someRefs(150, 11);
    writeAll(t.path(), refs, 32);
    TraceReader reader(t.path());
    for (const std::size_t cap : {0, 10, 32, 33, 150}) {
        const TraceStats got = analyzeTrace(reader, cap);
        const TraceStats want = analyzeTrace(std::vector<MemRef>(
            refs.begin(), refs.begin() + static_cast<long>(cap)));
        EXPECT_EQ(got.refs, cap);
        EXPECT_EQ(got.writes, want.writes) << cap;
        EXPECT_EQ(got.distinctBlocks, want.distinctBlocks) << cap;
    }
    EXPECT_EQ(analyzeTrace(reader, 1000).refs, refs.size());
    EXPECT_EQ(analyzeTrace(reader).refs, refs.size());
}

TEST(TraceBinary, ProcSourceSplitsByProcessor)
{
    TempTrace t("procsrc");
    const std::vector<MemRef> refs = someRefs(300, 11);
    writeAll(t.path(), refs, 64);
    TraceReader reader(t.path());
    TraceProcSource src(reader, 5);
    for (ProcId p = 0; p < 5; ++p) {
        for (const MemRef &want : refs) {
            if (want.proc != p)
                continue;
            const auto got = src.next(p);
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(got->addr, want.addr);
            EXPECT_EQ(got->write, want.write);
        }
        EXPECT_FALSE(src.next(p).has_value());
    }
}

TEST(TraceBinaryDeath, ProcSourceRejectsUndersizedSystem)
{
    TempTrace t("procovf");
    std::vector<MemRef> refs = someRefs(10);
    refs.push_back(MemRef{7, 0x40, true});
    writeAll(t.path(), refs, 16);
    TraceReader reader(t.path());
    EXPECT_DEATH(TraceProcSource s(reader, 4), "8 processors");
}

} // namespace
} // namespace dir2b
