#include "proto/protocol_factory.hh"

#include "core/two_bit_protocol.hh"
#include "core/two_bit_tb_protocol.hh"
#include "core/two_bit_wt_protocol.hh"
#include "proto/classical.hh"
#include "proto/dup_dir.hh"
#include "proto/full_map_local.hh"
#include "proto/illinois.hh"
#include "proto/software.hh"
#include "proto/table_defs.hh"
#include "proto/table_engine.hh"
#include "proto/write_once.hh"
#include "util/logging.hh"

namespace dir2b
{

std::unique_ptr<Protocol>
makeProtocol(const std::string &name, const ProtoConfig &cfg)
{
    if (name == "two_bit")
        return std::make_unique<TwoBitProtocol>(cfg);
    if (name == "two_bit_nop1") {
        ProtoConfig ablated = cfg;
        ablated.noPresent1 = true;
        return std::make_unique<TwoBitProtocol>("two_bit_nop1",
                                                ablated);
    }
    if (name == "two_bit_tb")
        return std::make_unique<TwoBitTbProtocol>(cfg);
    if (name == "two_bit_wt")
        return std::make_unique<TwoBitWtProtocol>(cfg);
    if (name == "full_map_local")
        return std::make_unique<FullMapLocalProtocol>(cfg);
    if (name == "dup_dir")
        return std::make_unique<DupDirProtocol>(cfg);
    if (name == "classical")
        return std::make_unique<ClassicalProtocol>(cfg);
    if (name == "write_once")
        return std::make_unique<WriteOnceProtocol>(cfg);
    if (name == "illinois")
        return std::make_unique<IllinoisProtocol>(cfg);
    if (name == "software")
        return std::make_unique<SoftwareProtocol>(cfg);
    // Table-driven protocols: same interpreter, different data.  The
    // full-map table is the only full map; full_map_table is the name
    // perfbench times it under.
    if (name == "full_map" || name == "full_map_table")
        return std::make_unique<TableProtocol>(fullMapTable(), cfg,
                                               name);
    if (name == "two_bit_table")
        return std::make_unique<TableProtocol>(twoBitTable(), cfg);
    if (name == "moesi")
        return std::make_unique<TableProtocol>(moesiTable(), cfg);
    DIR2B_FATAL("unknown protocol '", name, "'");
}

std::vector<std::string>
protocolNames()
{
    return {"two_bit",    "two_bit_tb", "two_bit_wt",
            "full_map",   "full_map_local", "dup_dir",
            "classical",  "write_once", "illinois", "software",
            "two_bit_table", "full_map_table", "moesi"};
}

} // namespace dir2b
