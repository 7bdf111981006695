#include "core/two_bit_protocol.hh"

#include "util/logging.hh"

namespace dir2b
{

TwoBitProtocol::TwoBitProtocol(const ProtoConfig &cfg)
    : TwoBitProtocol("two_bit", cfg)
{}

TwoBitProtocol::TwoBitProtocol(const std::string &name,
                               const ProtoConfig &cfg)
    : Protocol(name, cfg),
      dirs_(makeTwoBitDirectories(cfg.numModules, cfg.dirRamBudget))
{}

void
TwoBitProtocol::sendRemoteInvalidate(Addr a, ProcId except)
{
    broadcastInvalidate(a, except, cfg_.snoopFilter);
}

Value
TwoBitProtocol::sendRemoteQuery(Addr a, ProcId requester, RW rw)
{
    return broadcastQuery(a, requester, rw, cfg_.snoopFilter);
}

void
TwoBitProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;

    const Addr olda = victim.addr;
    TwoBitDirectory &dir = dirFor(olda);
    ++counts_.ejects;
    ++counts_.netMessages;

    bool toAbsent = false;
    if (victim.dirty()) {
        // EJECT(k, olda, "write") followed by put(b_k, olda).
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        mem_.write(olda, victim.value);
        ++counts_.memWrites;
        ++counts_.writebacks;
        DIR2B_ASSERT(dir.get(olda) == GlobalState::PresentM,
                     "dirty eject of ", olda, " but directory says ",
                     toString(dir.get(olda)));
        dir.set(olda, GlobalState::Absent);
        ++counts_.setstates;
        toAbsent = true;
    } else {
        // EJECT(k, olda, "read"): only Present1 can be reclaimed.
        const GlobalState st = dir.get(olda);
        if (st == GlobalState::Present1) {
            dir.set(olda, GlobalState::Absent);
            ++counts_.setstates;
            toAbsent = true;
        } else {
            DIR2B_ASSERT(st == GlobalState::PresentStar,
                         "clean eject of ", olda,
                         " but directory says ", toString(st));
        }
    }
    caches_.invalidate(k, olda);
    noteEject(k, olda, toAbsent);
}

void
TwoBitProtocol::flushCache(ProcId k)
{
    // Collect first: invalidation mutates the array under iteration.
    std::vector<CacheLine> lines;
    caches_.forEachValid(
        k, [&](const CacheLine &l) { lines.push_back(l); });

    for (const CacheLine &l : lines) {
        TwoBitDirectory &dir = dirFor(l.addr);
        ++counts_.ejects;
        ++counts_.netMessages;
        bool toAbsent = false;
        if (l.dirty()) {
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(l.addr, l.value);
            ++counts_.memWrites;
            ++counts_.writebacks;
            dir.set(l.addr, GlobalState::Absent);
            ++counts_.setstates;
            toAbsent = true;
        } else if (dir.get(l.addr) == GlobalState::Present1) {
            dir.set(l.addr, GlobalState::Absent);
            ++counts_.setstates;
            toAbsent = true;
        }
        caches_.invalidate(k, l.addr);
        noteEject(k, l.addr, toAbsent);
    }
}

Value
TwoBitProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    TwoBitDirectory &dir = dirFor(a);

    if (CacheLine *l = caches_.lookup(k, a)) {
        if (!write) {
            ++counts_.readHits;
            return l->value;
        }
        if (l->dirty()) {
            // Write hit on an already-modified block: purely local.
            ++counts_.writeHits;
            l->value = wval;
            return wval;
        }

        // §3.2.4: write hit on a previously unmodified block.
        ++counts_.writeHits;
        ++counts_.writeHitsClean;
        ++counts_.mrequests;
        counts_.netMessages += 2; // MREQUEST + MGRANTED
        const GlobalState st = dir.get(a);
        switch (st) {
          case GlobalState::Present1:
            // MGRANTED(k, true) with no broadcast.
            break;
          case GlobalState::PresentStar:
            sendRemoteInvalidate(a, k);
            break;
          default:
            DIR2B_PANIC("MREQUEST(", k, ",", a, ") with global state ",
                        toString(st));
        }
        dir.set(a, GlobalState::PresentM);
        ++counts_.setstates;
        l->state = LineState::Modified;
        l->value = wval;
        noteUpgrade(k, a);
        return wval;
    }

    // Miss: replacement first (§3.2.1), then REQUEST (§3.2.2/3.2.3).
    if (write)
        ++counts_.writeMisses;
    else
        ++counts_.readMisses;
    replaceVictim(k, a);
    ++counts_.requests;
    ++counts_.netMessages;

    const GlobalState st = dir.get(a);
    Value v = 0;

    if (!write) {
        // §3.2.2 read miss.
        switch (st) {
          case GlobalState::Absent:
            v = mem_.read(a);
            ++counts_.memReads;
            // The noPresent1 ablation folds Present1 into Present*.
            dir.set(a, cfg_.noPresent1 ? GlobalState::PresentStar
                                       : GlobalState::Present1);
            break;
          case GlobalState::Present1:
          case GlobalState::PresentStar:
            v = mem_.read(a);
            ++counts_.memReads;
            dir.set(a, GlobalState::PresentStar);
            break;
          case GlobalState::PresentM:
            v = sendRemoteQuery(a, k, RW::Read);
            dir.set(a, GlobalState::PresentStar);
            break;
        }
        ++counts_.setstates;
        // get(k, a)
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        noteFill(k, a, st, false);
        return v;
    }

    // §3.2.3 write miss.
    switch (st) {
      case GlobalState::Absent:
        v = mem_.read(a);
        ++counts_.memReads;
        break;
      case GlobalState::Present1:
      case GlobalState::PresentStar:
        sendRemoteInvalidate(a, k);
        v = mem_.read(a);
        ++counts_.memReads;
        break;
      case GlobalState::PresentM:
        v = sendRemoteQuery(a, k, RW::Write);
        break;
    }
    dir.set(a, GlobalState::PresentM);
    ++counts_.setstates;
    // get(k, a)
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    caches_.fill(k, a, LineState::Modified, wval);
    noteFill(k, a, st, true);
    return wval;
}

void
TwoBitProtocol::checkInvariants() const
{
    // For every block resident in some cache, the directory state must
    // be consistent with the holder set and dirtiness.
    std::unordered_map<Addr, std::pair<unsigned, unsigned>> seen;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            auto &[copies, dirty] = seen[l.addr];
            ++copies;
            if (l.dirty())
                ++dirty;
        });
    }
    for (const auto &[a, cd] : seen) {
        const auto [copies, dirty] = cd;
        const GlobalState st = dirFor(a).get(a);
        DIR2B_ASSERT(dirty <= 1, "block ", a, " dirty in ", dirty,
                     " caches");
        if (dirty == 1) {
            DIR2B_ASSERT(copies == 1 && st == GlobalState::PresentM,
                         "dirty block ", a, " has ", copies,
                         " copies and state ", toString(st));
        } else if (copies == 1) {
            DIR2B_ASSERT(st == GlobalState::Present1 ||
                             st == GlobalState::PresentStar,
                         "single clean copy of ", a, " but state ",
                         toString(st));
        } else {
            DIR2B_ASSERT(st == GlobalState::PresentStar, copies,
                         " clean copies of ", a, " but state ",
                         toString(st));
        }
    }
}

} // namespace dir2b
