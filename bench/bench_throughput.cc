/**
 * @file
 * E9: engineering benchmarks (google-benchmark) — simulator throughput
 * for the hot paths: protocol access transactions per second for the
 * main schemes, the event-queue kernel, the analytic solvers, and the
 * packed directory.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/two_bit_directory.hh"
#include "model/overhead_model.hh"
#include "model/sharing_chain.hh"
#include "obs/telemetry.hh"
#include "proto/protocol_factory.hh"
#include "sim/event_queue.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace
{

using namespace dir2b;

void
protocolThroughput(benchmark::State &state, const char *name)
{
    ProtoConfig cfg;
    cfg.numProcs = 8;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;
    cfg.tbCapacity = 32;
    cfg.nonCacheableBase = sharedRegionBase;
    auto proto = makeProtocol(name, cfg);

    SyntheticConfig scfg;
    scfg.numProcs = 8;
    scfg.q = 0.05;
    scfg.w = 0.3;
    SyntheticStream stream(scfg);

    std::uint64_t nonce = 1;
    for (auto _ : state) {
        const auto r = *stream.next();
        benchmark::DoNotOptimize(
            proto->access(r.proc, r.addr, r.write, ++nonce));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_TwoBitAccess(benchmark::State &state)
{
    protocolThroughput(state, "two_bit");
}
BENCHMARK(BM_TwoBitAccess);

void
BM_TwoBitTbAccess(benchmark::State &state)
{
    protocolThroughput(state, "two_bit_tb");
}
BENCHMARK(BM_TwoBitTbAccess);

void
BM_FullMapAccess(benchmark::State &state)
{
    protocolThroughput(state, "full_map");
}
BENCHMARK(BM_FullMapAccess);

void
BM_WriteOnceAccess(benchmark::State &state)
{
    protocolThroughput(state, "write_once");
}
BENCHMARK(BM_WriteOnceAccess);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Tick>(i % 7), [] {});
        eq.run();
        eq.reset();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * One self-sustaining event chain: every fired event schedules its
 * successor at a delay drawn from the timed tier's characteristic mix
 * (cache hit 1, directory 2, network hop 4, memory 10, rare long
 * think window), with a capture sized like a real controller callback
 * (this-pointer plus a Message by value).
 */
struct KernelChurn
{
    EventQueue *eq;
    std::uint64_t idx;
    std::uint64_t *sink;

    void
    fire()
    {
        static constexpr Tick delays[] = {1, 4, 2, 10, 4, 1, 2, 4,
                                          1, 10, 4, 2, 1, 4, 100, 2};
        const Tick d = delays[idx & 15];
        ++idx;
        *sink += d;
        std::uint64_t pad[5] = {idx, idx + 1, idx + 2, idx + 3,
                                idx + 4};
        KernelChurn next = *this;
        eq->schedule(d, [next, pad]() mutable {
            benchmark::DoNotOptimize(pad);
            KernelChurn c = next;
            c.fire();
        });
    }
};

/**
 * Sustained schedule/fire mix: 64 live chains churn through the
 * kernel without ever draining it, which is what the timed tier
 * actually does (the burst bench above measures the empty/refill
 * corner instead).  This is the headline events/sec figure in
 * docs/PERFORMANCE.md and BENCH_4.json.
 */
void
BM_EventKernelChurn(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (int c = 0; c < 64; ++c) {
        KernelChurn chain{&eq, static_cast<std::uint64_t>(c) * 7,
                          &sink};
        chain.fire();
    }
    constexpr std::uint64_t batch = 4096;
    for (auto _ : state)
        eq.run(batch);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventKernelChurn);

constexpr std::uint64_t
lcgNext(std::uint64_t x)
{
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

/** Hit-heavy lookups over 4096 block-aligned keys (directory shape). */
template <typename Map>
void
mapLookupHit(benchmark::State &state)
{
    Map m;
    constexpr std::uint64_t n = 4096;
    for (std::uint64_t i = 0; i < n; ++i)
        m[i << 6] = i;
    std::uint64_t x = 0x1234;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        x = lcgNext(x);
        const std::uint64_t key = ((x >> 33) & (n - 1)) << 6;
        sum += m.find(key)->second;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_FlatMapLookupHit(benchmark::State &state)
{
    mapLookupHit<FlatMap<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookupHit);

void
BM_UnorderedMapLookupHit(benchmark::State &state)
{
    mapLookupHit<std::unordered_map<std::uint64_t, std::uint64_t>>(
        state);
}
BENCHMARK(BM_UnorderedMapLookupHit);

/** Busy-table churn: a small live set of open/close windows, the
 *  access pattern of DirCtrlBase::busy_ under per-block concurrency. */
template <typename Map>
void
mapChurn(benchmark::State &state)
{
    Map m;
    std::uint64_t x = 0x5678;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        x = lcgNext(x);
        const std::uint64_t key = ((x >> 33) & 63) << 6;
        auto it = m.find(key);
        if (it == m.end()) {
            m[key] = x;
        } else {
            sum += it->second;
            m.erase(it);
        }
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_FlatMapChurn(benchmark::State &state)
{
    mapChurn<FlatMap<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapChurn);

void
BM_UnorderedMapChurn(benchmark::State &state)
{
    mapChurn<std::unordered_map<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_UnorderedMapChurn);

/** End-to-end timed tier: references retired per second through the
 *  full two-bit protocol with crossbar contention. */
void
BM_TimedTwoBitEndToEnd(benchmark::State &state)
{
    std::uint64_t refs = 0;
    for (auto _ : state) {
        TimedConfig cfg;
        cfg.protocol = TimedProto::TwoBit;
        cfg.numProcs = 4;
        cfg.numModules = 2;
        cfg.cacheGeom.sets = 16;
        cfg.cacheGeom.ways = 2;
        cfg.perBlockConcurrency = true;
        cfg.network = NetKind::Crossbar;
        TimedSystem sys(cfg);

        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.2;
        scfg.w = 0.3;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 64;
        scfg.hotBlocks = 16;
        scfg.seed = 0xbe7c4;
        SyntheticStream stream(scfg);

        const auto r = sys.run(
            [&](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            400);
        refs += r.refsCompleted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_TimedTwoBitEndToEnd);

/**
 * The end-to-end run above with a telemetry sampler attached
 * (obs/telemetry.hh): the full 37-metric timed registry sampled every
 * Arg(0) ticks.  The delta against BM_TimedTwoBitEndToEnd is the
 * whole cost of time-series telemetry — boundary-clamped kernel
 * chunking plus registry snapshots; statistics stay bit-identical
 * (tests/test_telemetry.cc).
 */
void
BM_TimedTwoBitEndToEndSampled(benchmark::State &state)
{
    const auto interval = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t refs = 0;
    std::uint64_t samples = 0;
    for (auto _ : state) {
        TimedConfig cfg;
        cfg.protocol = TimedProto::TwoBit;
        cfg.numProcs = 4;
        cfg.numModules = 2;
        cfg.cacheGeom.sets = 16;
        cfg.cacheGeom.ways = 2;
        cfg.perBlockConcurrency = true;
        cfg.network = NetKind::Crossbar;
        TelemetrySampler sampler(SeriesDomain::Ticks, interval);
        cfg.sampler = &sampler;
        TimedSystem sys(cfg);

        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.2;
        scfg.w = 0.3;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 64;
        scfg.hotBlocks = 16;
        scfg.seed = 0xbe7c4;
        SyntheticStream stream(scfg);

        const auto r = sys.run(
            [&](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            400);
        refs += r.refsCompleted;
        samples += sampler.samples();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
    state.counters["samples_per_run"] = benchmark::Counter(
        static_cast<double>(samples) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TimedTwoBitEndToEndSampled)->Arg(256)->Arg(64);

void
BM_TwoBitDirectorySetGet(benchmark::State &state)
{
    TwoBitDirectory dir;
    Addr a = 0;
    for (auto _ : state) {
        dir.set(a & 0xffff, GlobalState::PresentM);
        benchmark::DoNotOptimize(dir.get((a + 7) & 0xffff));
        ++a;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TwoBitDirectorySetGet);

/**
 * Tiered directory under a RAM budget: set/get over a 4096-block
 * working set hash-scattered across 2^30 blocks, touching ~4096
 * distinct directory pages.  Arg(0) is the budget in KiB (0 =
 * unlimited — the all-hot PagedArray-equivalent baseline); shrinking
 * it forces the compress / spill / reload machinery onto the access
 * path, which is the refs/s cost the tiering trades for the memory
 * ceiling (docs/PERFORMANCE.md).
 */
void
BM_TieredDirectoryScatter(benchmark::State &state)
{
    const std::uint64_t budget =
        static_cast<std::uint64_t>(state.range(0)) << 10;
    TwoBitDirectory dir(budget);
    Rng rng(0x7e55ed);
    std::vector<Addr> addrs(4096);
    for (Addr &a : addrs)
        a = rng.range(std::uint64_t{1} << 30);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr a = addrs[i++ & 4095];
        dir.set(a, GlobalState::Present1);
        benchmark::DoNotOptimize(dir.get(a));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    state.counters["residentKiB"] = static_cast<double>(
        dir.residentBytes() / 1024);
}
BENCHMARK(BM_TieredDirectoryScatter)->Arg(0)->Arg(512)->Arg(64);

void
BM_OverheadClosedForm(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            overhead(sharingCase(SharingLevel::Moderate, 16, 0.2)));
    }
}
BENCHMARK(BM_OverheadClosedForm);

void
BM_SolveTwoBitChain64(benchmark::State &state)
{
    ChainParams cp;
    cp.n = 64;
    cp.q = 0.05;
    cp.w = 0.2;
    cp.sharedBlocks = 16;
    cp.evictRate = evictRateFromGeometry(64, 128);
    for (auto _ : state)
        benchmark::DoNotOptimize(solveTwoBitChain(cp));
}
BENCHMARK(BM_SolveTwoBitChain64);

} // namespace

#ifndef DIR2B_BUILD_TYPE
#define DIR2B_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // The benchmark JSON's library_build_type field describes the
    // INSTALLED google-benchmark library, which on some systems is a
    // debug build no matter how dir2b was compiled.  Stamp the
    // simulator's own configuration into the context so
    // tools/run_bench_baseline.sh can gate on what actually matters:
    // whether the simulator code being measured is optimised.
    benchmark::AddCustomContext("dir2b_build_type", DIR2B_BUILD_TYPE);
#ifdef __OPTIMIZE__
    benchmark::AddCustomContext("dir2b_optimized", "true");
#else
    benchmark::AddCustomContext("dir2b_optimized", "false");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
