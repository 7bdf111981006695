#include "trace/trace_binary.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace dir2b
{

// ---------------------------------------------------------------- writer

TraceWriter::TraceWriter(const std::string &path,
                         std::uint32_t blockRecords)
    : path_(path), blockRecords_(blockRecords)
{
    if (blockRecords_ == 0)
        DIR2B_FATAL("trace '", path_, "': block size must be >= 1 record");
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_)
        DIR2B_FATAL("cannot open trace '", path_,
                    "' for writing: ", std::strerror(errno));
    buf_.reserve(blockRecords_);

    // Reserve the header slot; finish() patches the real totals in.
    TraceFileHeader h{};
    if (std::fwrite(&h, sizeof(h), 1, f_) != 1)
        DIR2B_FATAL("trace '", path_, "': header write failed");
}

TraceWriter::~TraceWriter()
{
    if (!finished_)
        finish();
}

void
TraceWriter::append(const MemRef *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        append(refs[i]);
}

void
TraceWriter::flushBlock()
{
    if (buf_.empty())
        return;
    const std::size_t bytes = buf_.size() * sizeof(TraceRecord);

    TraceBlockHeader h{};
    h.magic = traceBlockMagic;
    h.records = static_cast<std::uint32_t>(buf_.size());
    h.firstIndex = totalRecords_;
    h.blockDigest = blockDigest_;
    h.runningDigest = runningDigest_;
    blockDigest_ = traceDigestSeed;

    if (std::fwrite(&h, sizeof(h), 1, f_) != 1 ||
        std::fwrite(buf_.data(), 1, bytes, f_) != bytes)
        DIR2B_FATAL("trace '", path_,
                    "': block write failed: ", std::strerror(errno));

    totalRecords_ += buf_.size();
    ++numBlocks_;
    buf_.clear();
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    flushBlock();

    TraceFileHeader h{};
    std::memcpy(h.magic, traceMagic, sizeof(h.magic));
    h.version = traceFormatVersion;
    h.endianTag = traceEndianTag;
    h.headerBytes = sizeof(TraceFileHeader);
    h.recordBytes = sizeof(TraceRecord);
    h.blockRecords = blockRecords_;
    h.numProcs = numProcs_;
    h.totalRecords = totalRecords_;
    h.numBlocks = numBlocks_;
    h.fileDigest = runningDigest_;

    if (std::fseek(f_, 0, SEEK_SET) != 0 ||
        std::fwrite(&h, sizeof(h), 1, f_) != 1)
        DIR2B_FATAL("trace '", path_, "': header patch failed: ",
                    std::strerror(errno));
    if (std::fclose(f_) != 0)
        DIR2B_FATAL("trace '", path_, "': close failed: ",
                    std::strerror(errno));
    f_ = nullptr;
    finished_ = true;
}

// ---------------------------------------------------------------- reader

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        DIR2B_FATAL("cannot open trace '", path_,
                    "': ", std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        DIR2B_FATAL("cannot stat trace '", path_,
                    "': ", std::strerror(errno));
    }
    mapBytes_ = static_cast<std::size_t>(st.st_size);
    if (mapBytes_ < sizeof(TraceFileHeader)) {
        ::close(fd);
        DIR2B_FATAL("trace '", path_, "': file too short (", mapBytes_,
                    " bytes) to hold a trace header — truncated or not "
                    "a dir2b binary trace");
    }
    void *m = ::mmap(nullptr, mapBytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED)
        DIR2B_FATAL("cannot mmap trace '", path_,
                    "': ", std::strerror(errno));
    map_ = static_cast<const std::uint8_t *>(m);
    header_ = reinterpret_cast<const TraceFileHeader *>(map_);

    if (std::memcmp(header_->magic, traceMagic, sizeof(traceMagic)) != 0)
        DIR2B_FATAL("trace '", path_, "': bad magic — not a dir2b "
                    "binary trace (tools/trace_pack converts text "
                    "traces)");
    if (header_->endianTag != traceEndianTag)
        DIR2B_FATAL("trace '", path_, "': endianness tag 0x", std::hex,
                    header_->endianTag, " != 0x", traceEndianTag,
                    " — written on a big-endian host; the format is "
                    "little-endian only");
    if (header_->version != traceFormatVersion)
        DIR2B_FATAL("trace '", path_, "': format version ",
                    header_->version, " unsupported (this build reads "
                    "version ", traceFormatVersion, ")");
    if (header_->headerBytes != sizeof(TraceFileHeader) ||
        header_->recordBytes != sizeof(TraceRecord))
        DIR2B_FATAL("trace '", path_, "': header/record geometry ",
                    header_->headerBytes, "/", header_->recordBytes,
                    " != ", sizeof(TraceFileHeader), "/",
                    sizeof(TraceRecord));
    if (header_->blockRecords == 0)
        DIR2B_FATAL("trace '", path_, "': zero block capacity");

    // Walk the block chain: structure is validated up front (counts,
    // bounds, index continuity), payload is not touched.
    blocks_.reserve(header_->numBlocks);
    std::size_t off = sizeof(TraceFileHeader);
    std::uint64_t records = 0;
    for (std::uint64_t b = 0; b < header_->numBlocks; ++b) {
        if (off + sizeof(TraceBlockHeader) > mapBytes_)
            DIR2B_FATAL("trace '", path_, "': truncated at block ", b,
                        " header (offset ", off, " of ", mapBytes_,
                        " bytes)");
        const auto *h =
            reinterpret_cast<const TraceBlockHeader *>(map_ + off);
        if (h->magic != traceBlockMagic)
            DIR2B_FATAL("trace '", path_, "': block ", b,
                        " has bad magic — corrupt or truncated file");
        if (h->records == 0 || h->records > header_->blockRecords)
            DIR2B_FATAL("trace '", path_, "': block ", b, " claims ",
                        h->records, " records (capacity ",
                        header_->blockRecords, ")");
        if (h->firstIndex != records)
            DIR2B_FATAL("trace '", path_, "': block ", b,
                        " starts at record ", h->firstIndex,
                        ", expected ", records);
        off += sizeof(TraceBlockHeader);
        const std::size_t payload =
            std::size_t{h->records} * sizeof(TraceRecord);
        if (off + payload > mapBytes_)
            DIR2B_FATAL("trace '", path_, "': truncated inside block ",
                        b, " payload");
        off += payload;
        records += h->records;
        blocks_.push_back(h);
    }
    if (records != header_->totalRecords)
        DIR2B_FATAL("trace '", path_, "': blocks hold ", records,
                    " records but the header claims ",
                    header_->totalRecords);
}

TraceReader::~TraceReader()
{
    if (map_)
        ::munmap(const_cast<std::uint8_t *>(map_), mapBytes_);
}

std::uint64_t
TraceReader::verify() const
{
    std::uint64_t running = traceDigestSeed;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const TraceBlockHeader *h = blocks_[b];
        std::uint64_t blockDigest = traceDigestSeed;
        for (const TraceRecord &rec : block(b))
            traceDigestRecord(rec, blockDigest, running);
        if (blockDigest != h->blockDigest)
            DIR2B_FATAL("trace '", path_, "': block ", b,
                        " digest mismatch (payload corrupt): 0x",
                        std::hex, blockDigest, " != 0x",
                        h->blockDigest);
        if (running != h->runningDigest)
            DIR2B_FATAL("trace '", path_, "': block ", b,
                        " running digest mismatch");
    }
    if (running != header_->fileDigest)
        DIR2B_FATAL("trace '", path_, "': file digest mismatch: 0x",
                    std::hex, running, " != 0x", header_->fileDigest);
    return running;
}

// ---------------------------------------------------------- proc source

TraceProcSource::TraceProcSource(const TraceReader &r, ProcId numProcs)
    : reader_(&r), cursors_(numProcs)
{
    if (r.header().numProcs > numProcs)
        DIR2B_FATAL("trace '", r.path(), "' references ",
                    r.header().numProcs, " processors but the system "
                    "has ", numProcs);
}

std::optional<MemRef>
TraceProcSource::next(ProcId p)
{
    Cursor &c = cursors_.at(p);
    while (c.block < reader_->numBlocks()) {
        const AccessBatch b = reader_->block(c.block);
        while (c.pos < b.count) {
            const TraceRecord &rec = b.recs[c.pos++];
            if (rec.proc == p)
                return rec.toRef();
        }
        ++c.block;
        c.pos = 0;
    }
    return std::nullopt;
}

} // namespace dir2b
