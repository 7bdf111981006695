/**
 * @file
 * The dir2b benchmark program.
 *
 *   dir2b_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs repetitions of one workload for about S seconds and prints a
 * report whose last line is one JSON object: correct, attempted,
 * failed and metrics.  With --trace 0 the metrics are the end-to-end
 * ones, measured untraced.  With --trace 1 the run alternates
 * untraced and traced repetitions, and the metrics are the per-layer
 * ones.  Every repetition repeats the same simulation, so all of them,
 * traced or not, must produce the same statistics digest.
 * perfbench/README.md documents the workloads and the metrics, and
 * perfbench/run.py builds and runs this program.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "harness.hh"
#include "util/parallel.hh"

using namespace dir2b;
using namespace dir2b::perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, as BENCHMARK.json lists them. */
constexpr MetricDef endToEnd[] = {
    {"refs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** The per-layer metrics, as BENCHMARK.json lists them.  A layer that
 *  a workload does not run reads 0 there. */
constexpr MetricDef perLayer[] = {
    // Host time, from the traced repetitions.
    {"trace.src_ns_per_ref", "ns"},
    {"proto.two_bit.ns_per_ref", "ns"},
    {"proto.two_bit_table.ns_per_ref", "ns"},
    {"proto.full_map_table.ns_per_ref", "ns"},
    {"check.oracle_ns_per_ref", "ns"},
    {"system.residual_ns_per_ref", "ns"},
    {"timed.two_bit.ns_per_ref", "ns"},
    {"timed.full_map.ns_per_ref", "ns"},
    {"parallel.busy_frac", "ratio"},
    {"parallel.tail_s", "s"},
    {"parallel.cell_max_s", "s"},
    {"traced_wall_s", "s"},
    {"trace_overhead_pct", "%"},
    // Host time, from the untraced repetitions.
    {"sim.events_per_s", "1/s"},
    {"untraced_wall_s", "s"},
    // Host time of set-up, from both kinds.
    {"setup.record_s", "s"},
    {"setup.build_s", "s"},
    // Exact statistics of the simulation.
    {"cache.miss_ratio", "ratio"},
    {"core.broadcasts_per_ref", "1/ref"},
    {"core.useless_per_ref", "1/ref"},
    {"proto.net_msgs_per_ref", "1/ref"},
    {"proto.setstates_per_ref", "1/ref"},
    {"core.dir_resident_bytes", "B"},
    {"core.dir_compressions", "count"},
    {"core.dir_decompressions", "count"},
    {"model.overhead_ratio", "ratio"},
    {"sim.events_per_ref", "1/ref"},
    {"timed.cycles", "cycles"},
    {"timed.latency_p50_cycles", "cycles"},
    {"timed.latency_p99_cycles", "cycles"},
    {"timed.queue_wait_p99_cycles", "cycles"},
    {"net.port_wait_per_msg", "cycles"},
    {"timed.stolen_cycles_per_ref", "1/ref"},
    {"timed.mreq_conversions", "count"},
    {"check.reads_checked", "count"},
};

struct Workload
{
    const char *name;
    WorkloadFn fn;
    /** What attempted and failed count. */
    const char *unit;
    unsigned poolWidth;
};

constexpr Workload workloads[] = {
    {"func_sharing", funcSharing, "references", 1},
    {"func_scatter", funcScatter, "references", 1},
    {"timed_crossbar", timedCrossbar, "references", 1},
    {"sweep_mixed", sweepMixed, "cells", sweepThreads},
};

/** Measured cycles of repetitions a run takes at least. */
constexpr std::size_t minReps = 3;

#ifdef __OPTIMIZE__
constexpr bool optimised = true;
#else
constexpr bool optimised = false;
#endif

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "dir2b_perfbench: %s\n"
                 "usage: dir2b_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
};

Args
parse(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + flag);
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            for (const Workload &w : workloads)
                if (std::strcmp(w.name, val) == 0)
                    a.workload = &w;
            if (!a.workload)
                usage(std::string("unknown workload '") + val + "'");
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, val);
            haveSeed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, val);
            if (s < 1 || s > 120)
                usage("--seconds must be 1..120");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned(flag, val);
            if (t > 1)
                usage("--trace must be 0 or 1");
            a.traced = t == 1;
            haveTrace = true;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (!a.workload || !haveSeed || a.seconds == 0.0 || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

/** The p-quantile of v, 0 <= p <= 1, interpolated between ranks. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double k = p * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(k);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (k - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

template <typename F>
double
quantileOf(const std::vector<Rep> &reps, double p, F f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return quantile(std::move(v), p);
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F f)
{
    return quantileOf(reps, 0.5, f);
}

/**
 * The quantile of per-repetition throughput that refs_per_s reports.
 * Other tenants of a shared host slow this memory-bound program by up
 * to 1.5x for seconds to minutes at a time, so the median repetition
 * measures the neighbours as much as the program.  The 95th percentile
 * is the program's rate while the host is quiet: a run of dozens of
 * repetitions meets such moments, and no single repetition sets it.
 */
constexpr double throughputQuantile = 0.95;

double
refsPerSecond(const Rep &r)
{
    return r.refs / r.wallS;
}

double
perRef(double seconds, std::uint64_t refs)
{
    return refs ? seconds / static_cast<double>(refs) : 0.0;
}

/**
 * Repetitions for about budgetS seconds, in cycles of one untraced
 * repetition and, when withTraced, one traced one: alternating them
 * makes drift in the host's speed land on both alike.  The first cycle
 * warms up and is checked but not measured; at least minReps cycles
 * are measured.  Every repetition is appended to `all` for the checks.
 * Returns the measured repetitions, untraced first, then traced.
 */
std::array<std::vector<Rep>, 2>
runReps(WorkloadFn fn, std::uint64_t seed, bool withTraced, double budgetS,
        std::vector<Rep> &all)
{
    std::array<std::vector<Rep>, 2> measured;
    const double t0 = wallSeconds();
    for (std::size_t cycle = 0;
         cycle <= minReps || wallSeconds() - t0 < budgetS; ++cycle) {
        for (const bool traced : {false, true}) {
            if (traced && !withTraced)
                break;
            Rep r = fn(seed, traced);
            if (cycle > 0)
                measured[traced].push_back(r);
            all.push_back(std::move(r));
        }
    }
    return measured;
}

void
printPhase(const char *name, const std::vector<Rep> &reps)
{
    std::printf("phase %s: %zu measured repetitions of %llu refs; "
                "median wall %.6f s; refs/s median %.1f, p95 %.1f; "
                "set-up %.6f s\n",
                name, reps.size(),
                static_cast<unsigned long long>(reps.front().refs),
                medianOf(reps, [](const Rep &r) { return r.wallS; }),
                medianOf(reps, refsPerSecond),
                quantileOf(reps, throughputQuantile, refsPerSecond),
                medianOf(reps, [](const Rep &r) { return r.setupS; }));
    std::printf("  refs/s by repetition:");
    for (const Rep &r : reps)
        std::printf(" %.4g", refsPerSecond(r));
    std::printf("\n");
}

/** Cost of one span stamp taken back to back, in ns. */
double
stampCostNs()
{
    constexpr int n = 1000000;
    std::uint64_t sink = 0;
    const double t0 = wallSeconds();
    for (int i = 0; i < n; ++i)
        sink += spanTicks();
    const double s = wallSeconds() - t0;
    asm volatile("" : : "r"(sink));
    return 1e9 * s / n;
}

/** Where the median traced repetition's host time went.  The rows
 *  partition its wall, so they sum to it. */
void
printLayers(const std::vector<Rep> &traced, unsigned poolWidth)
{
    std::vector<const Rep *> byWall;
    for (const Rep &r : traced)
        byWall.push_back(&r);
    std::sort(byWall.begin(), byWall.end(),
              [](const Rep *a, const Rep *b) { return a->wallS < b->wallS; });
    const Rep &r = *byWall[byWall.size() / 2];

    std::printf("layers of the median traced repetition (each span "
                "carries about one stamp, %.1f ns back to back here):\n",
                stampCostNs());
    double sum = 0.0;
    const auto row = [&](const std::string &name, double s,
                         std::uint64_t refs) {
        std::printf("  %-34s %10.6f s %6.2f%% %10.2f ns/ref\n",
                    name.c_str(), s, 100.0 * s / r.wallS,
                    1e9 * perRef(s, refs));
        sum += s;
    };
    if (r.pool.empty()) {
        for (const auto &[name, l] : r.layers)
            row(name, l.seconds, l.refs);
    } else {
        // poolWidth workers: wall = cell time / width + the rest.
        const double cells = r.pool.at("parallel.busy_frac") * r.wallS;
        row("parallel.cells (busy / " + std::to_string(poolWidth) + ")",
            cells, r.refs);
        row("parallel.idle_and_dispatch", r.wallS - cells, r.refs);
    }
    std::printf("  %-34s %10.6f s, traced wall %.6f s\n", "sum", sum,
                r.wallS);
}

double
peakRssMib()
{
    struct rusage ru
    {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

template <std::size_t N>
void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricDef (&defs)[N],
            const std::map<std::string, double> &values)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char *sep = "";
    for (const MetricDef &m : defs) {
        const auto it = values.find(m.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name, v, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (!optimised || std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "dir2b_perfbench: built as '%s'%s; numbers come "
                     "only from an optimised Release build\n",
                     PERFBENCH_BUILD_TYPE,
                     optimised ? "" : " without optimisation");
        return 2;
    }
    const Workload &w = *args.workload;
    std::printf("dir2b perfbench: workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.traced ? 1 : 0);
    std::printf("machine: nproc=%u compiler=\"%s\" build=%s "
                "pool_width=%u\n",
                hardwareThreads(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                w.poolWidth);

    std::vector<Rep> all;
    std::map<std::string, double> values;
    const auto [untraced, traced] =
        runReps(w.fn, args.seed, args.traced, args.seconds, all);
    printPhase("untraced", untraced);
    if (!args.traced) {
        values["refs_per_s"] =
            quantileOf(untraced, throughputQuantile, refsPerSecond);
        values["setup_s"] =
            medianOf(untraced, [](const Rep &r) { return r.setupS; });
        values["peak_rss_mib"] = peakRssMib();
    } else {
        printPhase("traced", traced);
        printLayers(traced, w.poolWidth);

        std::set<std::string> layers;
        std::set<std::string> pool;
        for (const Rep &r : traced) {
            for (const auto &kv : r.layers)
                layers.insert(kv.first);
            for (const auto &kv : r.pool)
                pool.insert(kv.first);
        }
        for (const std::string &name : layers)
            values[name] = medianOf(traced, [&name](const Rep &r) {
                const auto it = r.layers.find(name);
                return it == r.layers.end()
                           ? 0.0
                           : 1e9 * perRef(it->second.seconds, it->second.refs);
            });
        for (const std::string &name : pool)
            values[name] = medianOf(traced, [&name](const Rep &r) {
                const auto it = r.pool.find(name);
                return it == r.pool.end() ? 0.0 : it->second;
            });

        const double tracedPerRef = medianOf(
            traced, [](const Rep &r) { return perRef(r.wallS, r.refs); });
        const double untracedPerRef = medianOf(
            untraced, [](const Rep &r) { return perRef(r.wallS, r.refs); });
        values["traced_wall_s"] =
            medianOf(traced, [](const Rep &r) { return r.wallS; });
        values["untraced_wall_s"] =
            medianOf(untraced, [](const Rep &r) { return r.wallS; });
        values["trace_overhead_pct"] =
            untracedPerRef > 0.0
                ? 100.0 * (tracedPerRef / untracedPerRef - 1.0)
                : 0.0;
        std::printf("tracing overhead: %.2f%% per reference (traced "
                    "%.2f ns/ref, untraced %.2f ns/ref)\n",
                    values["trace_overhead_pct"], 1e9 * tracedPerRef,
                    1e9 * untracedPerRef);

        values["sim.events_per_s"] = medianOf(untraced, [](const Rep &r) {
            return r.timedRunS > 0.0 ? r.events / r.timedRunS : 0.0;
        });
        std::vector<Rep> both = untraced;
        both.insert(both.end(), traced.begin(), traced.end());
        values["setup.record_s"] =
            medianOf(both, [](const Rep &r) { return r.recordS; });
        values["setup.build_s"] =
            medianOf(both, [](const Rep &r) { return r.buildS; });
        for (const auto &[name, v] : all.front().exact)
            values[name] = v;
    }

    // Every repetition repeats one simulation: one digest, or failure.
    const std::uint64_t digest = all.front().digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool agree = true;
    for (const Rep &r : all) {
        attempted += r.attempted;
        failed += r.failed;
        if (r.digest != digest) {
            agree = false;
            failed += r.attempted;
        }
    }
    failed = std::min(failed, attempted);
    for (const auto &[name, v] : all.front().exact)
        std::printf("exact %s %.17g\n", name.c_str(), v);
    std::printf("digest 0x%016llx (%zu repetitions %s)\n",
                static_cast<unsigned long long>(digest), all.size(),
                agree ? "agree" : "DISAGREE");
    std::printf("checked: %llu %s attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted), w.unit,
                static_cast<unsigned long long>(failed));

    if (args.traced)
        printResult(failed == 0, attempted, failed, perLayer, values);
    else
        printResult(failed == 0, attempted, failed, endToEnd, values);
    return 0;
}
