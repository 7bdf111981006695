#include "trace/trace_stats.hh"

#include <algorithm>
#include <iomanip>

#include "trace/trace_binary.hh"

namespace dir2b
{

void
TraceStatsBuilder::add(ProcId proc, Addr addr, bool write)
{
    TraceStats &s = partial_;
    ++s.refs;
    if (proc >= s.perProc.size())
        s.perProc.resize(proc + 1, 0);
    ++s.perProc[proc];
    if (write)
        ++s.writes;
    if (addr >= sharedRegionBase) {
        ++s.sharedRefs;
        if (write)
            ++s.sharedWrites;
    }

    BlockInfo &b = blocks_[addr];
    ++b.refs;
    if (b.firstToucher == invalidProc)
        b.firstToucher = proc;
    else if (b.firstToucher != proc)
        b.manyTouchers = true;
    if (write) {
        if (b.firstWriter == invalidProc)
            b.firstWriter = proc;
        else if (b.firstWriter != proc)
            b.manyWriters = true;
    }
}

TraceStats
TraceStatsBuilder::finish() const
{
    TraceStats s = partial_;
    s.distinctBlocks = blocks_.size();
    std::uint64_t hottest = 0;
    for (const auto &[a, b] : blocks_) {
        hottest = std::max(hottest, b.refs);
        if (b.manyTouchers)
            ++s.readSharedBlocks;
        // Write-shared: somebody wrote it and somebody else touched it.
        if (b.firstWriter != invalidProc &&
            (b.manyWriters || b.manyTouchers)) {
            ++s.writeSharedBlocks;
        }
    }
    if (s.refs)
        s.hottestBlockFrac =
            static_cast<double>(hottest) / static_cast<double>(s.refs);
    return s;
}

TraceStats
analyzeTrace(const std::vector<MemRef> &refs)
{
    TraceStatsBuilder b;
    for (const MemRef &r : refs)
        b.add(r.proc, r.addr, r.write);
    return b.finish();
}

TraceStats
analyzeTrace(const TraceReader &reader, std::uint64_t maxRefs)
{
    TraceStatsBuilder b;
    for (std::size_t i = 0; i < reader.numBlocks() && maxRefs; ++i) {
        const AccessBatch batch = reader.block(i);
        for (const TraceRecord &rec : batch) {
            if (maxRefs == 0)
                break;
            --maxRefs;
            b.add(rec.proc, rec.addr, rec.write());
        }
    }
    return b.finish();
}

void
printTraceStats(std::ostream &os, const TraceStats &s)
{
    os << "references          " << s.refs << "\n"
       << "writes              " << s.writes << " ("
       << std::fixed << std::setprecision(3) << s.writeFrac() << ")\n"
       << "shared refs (q)     " << s.sharedRefs << " (" << s.q()
       << ")\n"
       << "shared writes (w)   " << s.sharedWrites << " (" << s.w()
       << ")\n"
       << "distinct blocks     " << s.distinctBlocks << "\n"
       << "read-shared blocks  " << s.readSharedBlocks << "\n"
       << "write-shared blocks " << s.writeSharedBlocks << "\n"
       << "hottest block share " << s.hottestBlockFrac << "\n";
    os << "per-processor refs ";
    for (std::size_t p = 0; p < s.perProc.size(); ++p)
        os << " P" << p << "=" << s.perProc[p];
    os << "\n";
}

} // namespace dir2b
