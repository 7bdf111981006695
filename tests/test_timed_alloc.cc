/**
 * @file
 * Allocation regression test for the timed tier's hot path.
 *
 * A counting global operator new tallies every heap allocation made
 * while a 64-processor, 16-module crossbar system is built and run.
 * Running the same workload at N and 2N references per processor and
 * subtracting cancels the set-up cost (controllers, caches, network),
 * leaving the allocations each extra retired reference costs.  The
 * per-reference and per-message paths (completion hook, ack-barrier
 * action, request queue, broadcast fan-out, oracle) should allocate
 * nothing in the steady state; what remains is first-touch work (the
 * full map's presence vector for each new block) and the geometric
 * growth of tables that track blocks and versions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "timed/timed_system.hh"
#include "trace/synthetic.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace dir2b
{
namespace
{

constexpr std::uint64_t baseRefs = 2000;

/** Heap allocations made building and running one crossbar system of
 *  procs processors at refsPerProc references per processor. */
std::uint64_t
allocationsFor(TimedProto proto, ProcId procs, std::uint64_t refsPerProc)
{
    SyntheticConfig sc;
    sc.numProcs = procs;
    sc.q = 0.2;
    sc.w = 0.3;
    sc.sharedBlocks = 64;
    sc.sharedLocality = 0.5;
    sc.privateBlocks = 96;
    sc.hotBlocks = 24;
    sc.seed = 7;

    TimedConfig tc;
    tc.protocol = proto;
    tc.numProcs = procs;
    tc.numModules = 16;
    tc.perBlockConcurrency = true;
    tc.network = NetKind::Crossbar;

    const std::uint64_t before =
        allocations.load(std::memory_order_relaxed);
    std::uint64_t retired = 0;
    {
        SyntheticStream stream(sc);
        TimedSystem sys(tc);
        retired = sys.run(
                         [&stream](ProcId p) -> std::optional<MemRef> {
                             return stream.nextFor(p);
                         },
                         refsPerProc)
                      .refsCompleted;
    }
    EXPECT_EQ(retired, refsPerProc * procs);
    return allocations.load(std::memory_order_relaxed) - before;
}

void
expectAllocationFreeSteadyState(TimedProto proto, const char *name,
                                ProcId procs = 64)
{
    const std::uint64_t once = allocationsFor(proto, procs, baseRefs);
    const std::uint64_t twice =
        allocationsFor(proto, procs, 2 * baseRefs);
    const double perRef = static_cast<double>(twice - once) /
                          static_cast<double>(baseRefs * procs);
    std::printf("%s: %.4f allocations per reference (%llu at %llu "
                "refs/proc, %llu at %llu)\n",
                name, perRef,
                static_cast<unsigned long long>(once),
                static_cast<unsigned long long>(baseRefs),
                static_cast<unsigned long long>(twice),
                static_cast<unsigned long long>(2 * baseRefs));
    EXPECT_LT(perRef, 0.05);
}

TEST(TimedAlloc, TwoBitSteadyStateAllocatesNothingPerReference)
{
    expectAllocationFreeSteadyState(TimedProto::TwoBit, "two_bit");
}

// 130 processors: holder bitmaps span three words and a broadcast
// reaches 129 caches.
TEST(TimedAlloc, TwoBitAt130ProcsAllocatesNothingPerReference)
{
    expectAllocationFreeSteadyState(TimedProto::TwoBit, "two_bit_130",
                                    130);
}

TEST(TimedAlloc, FullMapSteadyStateAllocatesNothingPerReference)
{
    expectAllocationFreeSteadyState(TimedProto::FullMap, "full_map");
}

} // namespace
} // namespace dir2b
