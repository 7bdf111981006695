/**
 * @file
 * Structured multiprocessor workload generators.
 *
 * The paper's analysis covers uniform random sharing; these generators
 * exercise the *structured* sharing patterns its introduction
 * motivates ("processors used cooperatively on a common application")
 * and the process-migration effect §2.2/§4.2 mentions.  Each produces
 * a merged reference stream like SyntheticStream and is used by the
 * protocol-comparison bench and the examples.
 *
 *   ProducerConsumer  one producer writes a ring of shared buffer
 *                     blocks; consumers read each block after it is
 *                     produced.  Read-sharing dominated.
 *   Migratory         blocks accessed in read-modify-write bursts by
 *                     one processor at a time, rotating — the classic
 *                     lock-protected-data pattern where ownership
 *                     migrates.
 *   LockContention    all processors hammer a handful of lock blocks
 *                     with read-test-then-write sequences; worst case
 *                     for broadcast schemes.
 *   ReadMostly        shared blocks read by everyone, written rarely;
 *                     best case for Present*-style read sharing.
 *   TaskMigration     private working sets, but tasks periodically
 *                     migrate to another processor, dragging their
 *                     blocks along — the effect the paper says can be
 *                     "accounted for by adjusting the level of
 *                     sharing".
 */

#ifndef DIR2B_TRACE_WORKLOADS_HH
#define DIR2B_TRACE_WORKLOADS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/reference.hh"
#include "util/random.hh"

namespace dir2b
{

/** Shared knobs for the structured workloads. */
struct WorkloadConfig
{
    ProcId numProcs = 4;
    /** Shared blocks involved in the pattern. */
    std::size_t sharedBlocks = 16;
    /** Private working-set blocks per processor (background refs). */
    std::size_t privateBlocks = 64;
    /** Fraction of references that are background private traffic. */
    double privateFraction = 0.8;
    /** Probability a private reference is a write. */
    double privateWriteFrac = 0.25;
    std::uint64_t seed = 42;
};

/** Base: round-robin across processors with background private refs. */
class Workload : public RefStream
{
  public:
    explicit Workload(const WorkloadConfig &cfg);

    std::optional<MemRef> next() override;

    virtual std::string name() const = 0;

  protected:
    /** Next *shared-pattern* reference for processor p. */
    virtual MemRef sharedRef(ProcId p, Rng &rng) = 0;

    WorkloadConfig cfg_;
    std::vector<Rng> rngs_;
    /** Bound of the shared-block draws (cfg_.sharedBlocks). */
    RangeBound sharedBound_;

  private:
    /** Bound of the background private draws; 1 (and unused) when
     *  cfg_.privateBlocks is 0. */
    RangeBound privateBound_;
    ProcId turn_ = 0;
};

/** One writer, n-1 readers over a ring of buffer blocks. */
class ProducerConsumerWorkload : public Workload
{
  public:
    explicit ProducerConsumerWorkload(const WorkloadConfig &cfg)
        : Workload(cfg)
    {}

    std::string name() const override { return "producer_consumer"; }

  protected:
    MemRef sharedRef(ProcId p, Rng &rng) override;

  private:
    std::uint64_t produceCursor_ = 0;
    std::vector<std::uint64_t> consumeCursor_ =
        std::vector<std::uint64_t>(cfg_.numProcs, 0);
};

/** Rotating read-modify-write ownership of shared blocks. */
class MigratoryWorkload : public Workload
{
  public:
    explicit MigratoryWorkload(const WorkloadConfig &cfg,
                               std::size_t burstLength = 4)
        : Workload(cfg), burst_(burstLength)
    {}

    std::string name() const override { return "migratory"; }

  protected:
    MemRef sharedRef(ProcId p, Rng &rng) override;

  private:
    std::size_t burst_;
    std::vector<std::uint64_t> phase_ =
        std::vector<std::uint64_t>(cfg_.numProcs, 0);
};

/** All processors test-and-set a few lock blocks. */
class LockContentionWorkload : public Workload
{
  public:
    explicit LockContentionWorkload(const WorkloadConfig &cfg,
                                    std::size_t locks = 2)
        : Workload(cfg), lockBound_(locks ? locks : 1)
    {}

    std::string name() const override { return "lock_contention"; }

  protected:
    MemRef sharedRef(ProcId p, Rng &rng) override;

  private:
    RangeBound lockBound_;
    std::vector<bool> pendingWrite_ =
        std::vector<bool>(cfg_.numProcs, false);
    std::vector<Addr> lastLock_ = std::vector<Addr>(cfg_.numProcs, 0);
};

/** Widely read, rarely written shared data. */
class ReadMostlyWorkload : public Workload
{
  public:
    explicit ReadMostlyWorkload(const WorkloadConfig &cfg,
                                double writeFrac = 0.02)
        : Workload(cfg), writeFrac_(writeFrac)
    {}

    std::string name() const override { return "read_mostly"; }

  protected:
    MemRef sharedRef(ProcId p, Rng &rng) override;

  private:
    double writeFrac_;
};

/**
 * Private working sets with periodic task migration: every 'period'
 * references a task hops to the next processor and re-touches its
 * working set from the new home, turning private data into de facto
 * shared data.
 */
class TaskMigrationWorkload : public RefStream
{
  public:
    TaskMigrationWorkload(const WorkloadConfig &cfg,
                          std::uint64_t period = 2000);

    std::optional<MemRef> next() override;

    std::string name() const { return "task_migration"; }

    /** Number of migrations that have occurred. */
    std::uint64_t migrations() const { return migrations_; }

  private:
    WorkloadConfig cfg_;
    std::uint64_t period_;
    /** Bound of the working-set draws (at least 1). */
    RangeBound privateBound_;
    std::vector<Rng> rngs_;
    /** task -> processor currently running it. */
    std::vector<ProcId> placement_;
    ProcId turn_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace dir2b

#endif // DIR2B_TRACE_WORKLOADS_HH
