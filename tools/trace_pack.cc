/**
 * @file
 * Binary-trace converter and inspector (docs/TRACES.md).
 *
 *   trace_pack pack   IN.trc  OUT.d2t [--buffer BYTES]
 *   trace_pack unpack IN.d2t  OUT.trc
 *   trace_pack info   FILE.d2t [--blocks]
 *   trace_pack verify FILE.d2t
 *
 * `pack` converts the line-oriented text format (trace_io.hh) into
 * the mmap-able block format (trace_binary.hh); `unpack` goes the
 * other way, so any binary trace can be eyeballed or diffed.  `info`
 * prints the file header (and with --blocks every block header with
 * its digests) without touching record payload; `verify` recomputes
 * every digest layer and fails loudly on the first corrupt block.
 * Exits 0 on success; structural problems are fatal with a
 * diagnostic naming the offending offset or block.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_binary.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/parse_args.hh"

using namespace dir2b;

namespace
{

int
doPack(const std::string &in, const std::string &out,
       std::uint64_t bufferBytes)
{
    std::ifstream is(in);
    if (!is)
        DIR2B_FATAL("cannot open '", in, "'");
    const std::vector<MemRef> refs = readTrace(is);

    std::uint32_t blockRecords = traceDefaultBlockRecords;
    if (bufferBytes) {
        const std::uint64_t recs =
            std::max<std::uint64_t>(1,
                                    bufferBytes / sizeof(TraceRecord));
        blockRecords = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(recs, 1u << 28));
    }
    TraceWriter w(out, blockRecords);
    w.append(refs.data(), refs.size());
    w.finish();
    std::printf("packed %llu records into %llu blocks (digest "
                "%016llx): %s\n",
                static_cast<unsigned long long>(w.recordsWritten()),
                static_cast<unsigned long long>(w.blocksWritten()),
                static_cast<unsigned long long>(w.fileDigest()),
                out.c_str());
    return 0;
}

int
doUnpack(const std::string &in, const std::string &out)
{
    TraceReader reader(in);
    std::vector<MemRef> refs;
    refs.reserve(static_cast<std::size_t>(reader.totalRecords()));
    for (std::size_t b = 0; b < reader.numBlocks(); ++b)
        for (const TraceRecord &rec : reader.block(b))
            refs.push_back(rec.toRef());
    std::ofstream os(out);
    if (!os)
        DIR2B_FATAL("cannot open '", out, "' for writing");
    writeTrace(os, refs);
    std::printf("unpacked %zu records: %s\n", refs.size(),
                out.c_str());
    return 0;
}

int
doInfo(const std::string &in, bool blocks)
{
    TraceReader reader(in);
    const TraceFileHeader &h = reader.header();
    std::printf("%-16s %.8s\n", "magic", h.magic);
    std::printf("%-16s %u\n", "version", h.version);
    std::printf("%-16s %08x\n", "endianTag", h.endianTag);
    std::printf("%-16s %u\n", "recordBytes", h.recordBytes);
    std::printf("%-16s %u\n", "blockRecords", h.blockRecords);
    std::printf("%-16s %u\n", "numProcs", h.numProcs);
    std::printf("%-16s %llu\n", "totalRecords",
                static_cast<unsigned long long>(h.totalRecords));
    std::printf("%-16s %llu\n", "numBlocks",
                static_cast<unsigned long long>(h.numBlocks));
    std::printf("%-16s %016llx\n", "fileDigest",
                static_cast<unsigned long long>(h.fileDigest));
    std::printf("%-16s %zu\n", "mappedBytes", reader.mappedBytes());
    if (blocks) {
        std::printf("%8s %10s %12s %16s %16s\n", "block", "records",
                    "firstIndex", "blockDigest", "runningDigest");
        for (std::size_t b = 0; b < reader.numBlocks(); ++b) {
            const TraceBlockHeader &bh = reader.blockHeader(b);
            std::printf(
                "%8zu %10u %12llu %016llx %016llx\n", b, bh.records,
                static_cast<unsigned long long>(bh.firstIndex),
                static_cast<unsigned long long>(bh.blockDigest),
                static_cast<unsigned long long>(bh.runningDigest));
        }
    }
    return 0;
}

int
doVerify(const std::string &in)
{
    TraceReader reader(in);
    const std::uint64_t digest = reader.verify();
    std::printf("verified %llu records in %zu blocks (digest "
                "%016llx): %s\n",
                static_cast<unsigned long long>(reader.totalRecords()),
                reader.numBlocks(),
                static_cast<unsigned long long>(digest), in.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t bufferBytes = 0;
    bool blocks = false;
    // Mode indices, in the order of the mode list below.
    enum { Pack, Unpack, Info, Verify };
    const ParsedArgs args = parseArgs(
        argc, argv,
        {"MODE ...",
         "Convert and inspect binary traces (docs/TRACES.md).",
         {
             {"--buffer", arg::byteSize(bufferBytes),
              "pack: writer block size (k/m/g suffixes; default 1M = "
              "64Ki records per block)",
              1u << Pack},
             {"--blocks", arg::on(blocks),
              "info: add per-block headers and digests (never reads "
              "record payload)",
              1u << Info},
         },
         {{"pack", "IN.trc OUT.d2t",
           "convert a text trace to the binary block format"},
          {"unpack", "IN.d2t OUT.trc", "convert a binary trace back to text"},
          {"info", "FILE.d2t", "print the file header"},
          {"verify", "FILE.d2t", "recompute every block/running/file digest"}},
         ModeBy::Word});
    const std::vector<std::string> &paths = args.operands;
    switch (args.mode) {
      case Pack:
        return doPack(paths[0], paths[1], bufferBytes);
      case Unpack:
        return doUnpack(paths[0], paths[1]);
      case Info:
        return doInfo(paths[0], blocks);
      default:
        return doVerify(paths[0]);
    }
}
