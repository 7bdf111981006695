#include "trace/workloads.hh"

#include "util/logging.hh"

namespace dir2b
{

namespace
{

/** cfg, if a workload can run it; fatal otherwise. */
const WorkloadConfig &
checkedConfig(const WorkloadConfig &cfg)
{
    if (cfg.numProcs == 0)
        DIR2B_FATAL("workload needs at least one processor");
    if (cfg.sharedBlocks == 0)
        DIR2B_FATAL("workload needs at least one shared block");
    return cfg;
}

} // namespace

Workload::Workload(const WorkloadConfig &cfg)
    : cfg_(checkedConfig(cfg)), sharedBound_(cfg_.sharedBlocks),
      privateBound_(cfg_.privateBlocks ? cfg_.privateBlocks : 1)
{
    Rng seeder(cfg_.seed);
    rngs_.reserve(cfg_.numProcs);
    for (ProcId p = 0; p < cfg_.numProcs; ++p)
        rngs_.push_back(seeder.split());
}

std::optional<MemRef>
Workload::next()
{
    const ProcId p = turn_;
    turn_ = static_cast<ProcId>((turn_ + 1) % cfg_.numProcs);
    Rng &rng = rngs_[p];

    if (cfg_.privateBlocks > 0 && rng.chance(cfg_.privateFraction)) {
        const Addr a = privateRegionBase(p) + rng.range(privateBound_);
        return MemRef{p, a, rng.chance(cfg_.privateWriteFrac)};
    }
    return sharedRef(p, rng);
}

MemRef
ProducerConsumerWorkload::sharedRef(ProcId p, Rng &)
{
    const std::size_t ring = cfg_.sharedBlocks;
    if (p == 0 || cfg_.numProcs == 1) {
        // Producer: write the next buffer slot.
        const Addr a = sharedRegionBase + (produceCursor_++ % ring);
        return MemRef{p, a, true};
    }
    // Consumer: read slots in order, trailing the producer.
    auto &cur = consumeCursor_[p];
    if (cur + ring / 2 > produceCursor_ && produceCursor_ > 0)
        cur = produceCursor_ > ring ? produceCursor_ - ring : 0;
    const Addr a = sharedRegionBase + (cur++ % ring);
    return MemRef{p, a, false};
}

MemRef
MigratoryWorkload::sharedRef(ProcId p, Rng &)
{
    // Each processor owns block b during its turn of the rotation and
    // performs read-then-write bursts on it; ownership of each block
    // rotates with the per-processor phase counter.
    auto &ph = phase_[p];
    const std::uint64_t step = ph++;
    const std::uint64_t round = step / (2 * burst_);
    const Addr a = sharedRegionBase +
                   ((round + p) % cfg_.sharedBlocks);
    // Within a burst: alternate read (test) and write (update).
    const bool write = (step % 2) == 1;
    return MemRef{p, a, write};
}

MemRef
LockContentionWorkload::sharedRef(ProcId p, Rng &rng)
{
    // Read-test-then-write: a read of a lock block is followed by a
    // write to the same block (test-and-set acquiring the lock).
    if (pendingWrite_[p]) {
        pendingWrite_[p] = false;
        return MemRef{p, lastLock_[p], true};
    }
    const Addr a = sharedRegionBase + rng.range(lockBound_);
    lastLock_[p] = a;
    pendingWrite_[p] = true;
    return MemRef{p, a, false};
}

MemRef
ReadMostlyWorkload::sharedRef(ProcId p, Rng &rng)
{
    const Addr a = sharedRegionBase + rng.range(sharedBound_);
    return MemRef{p, a, rng.chance(writeFrac_)};
}

TaskMigrationWorkload::TaskMigrationWorkload(const WorkloadConfig &cfg,
                                             std::uint64_t period)
    : cfg_(cfg), period_(period),
      privateBound_(cfg_.privateBlocks ? cfg_.privateBlocks : 1)
{
    if (cfg_.numProcs == 0)
        DIR2B_FATAL("workload needs at least one processor");
    if (period_ == 0)
        DIR2B_FATAL("migration period must be positive");
    Rng seeder(cfg_.seed);
    rngs_.reserve(cfg_.numProcs);
    placement_.reserve(cfg_.numProcs);
    for (ProcId t = 0; t < cfg_.numProcs; ++t) {
        rngs_.push_back(seeder.split());
        placement_.push_back(t);
    }
}

std::optional<MemRef>
TaskMigrationWorkload::next()
{
    if (++issued_ % period_ == 0) {
        // All tasks hop to the next processor simultaneously (a gang
        // reschedule); their working sets stay put in memory.
        for (auto &home : placement_)
            home = static_cast<ProcId>((home + 1) % cfg_.numProcs);
        ++migrations_;
    }

    const ProcId task = turn_;
    turn_ = static_cast<ProcId>((turn_ + 1) % cfg_.numProcs);
    Rng &rng = rngs_[task];

    // The task references *its own* working set (named by task id)
    // from whichever processor it currently runs on.
    const Addr a = privateRegionBase(task) + rng.range(privateBound_);
    return MemRef{placement_[task], a,
                  rng.chance(cfg_.privateWriteFrac)};
}

} // namespace dir2b
