#include "system/func_telemetry.hh"

#include "obs/telemetry.hh"
#include "proto/protocol.hh"

namespace dir2b
{

void
registerFunctionalMetrics(MetricRegistry &reg, const Protocol &p)
{
    // Progress coordinate (also the sample domain, but having it as a
    // metric keeps series self-describing and rate tools uniform).
    reg.add("refs.completed", MetricKind::Counter,
            +[](const void *ctx, std::size_t) {
                return static_cast<const Protocol *>(ctx)->counts().refs();
            },
            &p);

    // counts.useless_cmds over refs is the §4.2 useless-command rate,
    // time-resolved.
    const AccessCounts &c = p.counts();
    for (const auto &f : accessCountFields)
        reg.add(statName("counts", f.name), f.kind, &(c.*f.member));

    // Tiered directory storage (all-zero for protocols without one).
    addStatFields(reg, "dirstore", dirStoreFields,
                  &dirStoreField<Protocol>, &p);
}

} // namespace dir2b
