/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

/** Ticks spanned by the kernel's event ring (its slot count). */
constexpr Tick ringSlots = 1024;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(eq.run());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RelativeSchedulingUsesNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.schedule(5, [&] { seen = eq.now(); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 100)
            eq.schedule(1, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, BudgetDetectsLivelock)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.schedule(1, forever); };
    eq.schedule(0, forever);
    EXPECT_FALSE(eq.run(1000));
}

/** Callable that counts copies, moves, and live instances. */
struct CountingCallback
{
    int *copies;
    int *alive;
    int *fired;

    CountingCallback(int *c, int *a, int *f)
        : copies(c), alive(a), fired(f)
    {
        ++*alive;
    }
    CountingCallback(const CountingCallback &o)
        : copies(o.copies), alive(o.alive), fired(o.fired)
    {
        ++*copies;
        ++*alive;
    }
    CountingCallback(CountingCallback &&o) noexcept
        : copies(o.copies), alive(o.alive), fired(o.fired)
    {
        ++*alive;
    }
    ~CountingCallback() { --*alive; }
    void operator()() { ++*fired; }
};

TEST(EventQueue, RunNeverCopiesTheCallback)
{
    // The pre-rewrite kernel copied the whole heap entry (and with it
    // the std::function) on every pop; the arena kernel must only
    // ever move callbacks.
    int copies = 0;
    int alive = 0;
    int fired = 0;
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i % 11),
                    CountingCallback(&copies, &alive, &fired));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(alive, 0);
}

TEST(EventQueue, AcceptsMoveOnlyCallbacks)
{
    // Compile-time proof there is no copy path at all: a capture
    // holding unique_ptr would reject the old std::function storage.
    EventQueue eq;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    eq.schedule(3, [p = std::move(payload), &seen] { seen = *p; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, MigratedHeapEventPrecedesDirectInsert)
{
    // Event A is scheduled from tick 0 for tick 5000, more than
    // ringSlots ahead, so it waits in the heap; event B is scheduled
    // later for the SAME tick from tick 4990, close enough to go
    // straight into the ring slot.  A must migrate into that slot
    // before B's insert: A was scheduled first and must fire first.
    EventQueue eq;
    std::vector<char> order;
    eq.scheduleAt(5000, [&] { order.push_back('A'); });
    eq.scheduleAt(4990, [&] {
        eq.scheduleAt(5000, [&] { order.push_back('B'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(EventQueue, StaticDifferentialAgainstStableSort)
{
    // Random times from one tick to 2^30 ahead, in the ring, in the
    // heap and on both sides of the ringSlots boundary; the kernel
    // must fire them exactly in stable (when, seq) order.
    EventQueue eq;
    Rng rng(0xeafe11);
    std::vector<std::pair<Tick, int>> expect;
    std::vector<int> got;
    const Tick spans[] = {1,    7,      63,     64,      100,
                          4095, 4096,   262143, 262144,  999999,
                          (Tick{1} << 24) - 1, Tick{1} << 24,
                          (Tick{1} << 24) + 12345, Tick{1} << 30,
                          ringSlots - 1, ringSlots, ringSlots + 1,
                          2 * ringSlots - 1, 2 * ringSlots};
    for (int i = 0; i < 2000; ++i) {
        const Tick when = rng.range(spans[rng.range(19)]);
        expect.emplace_back(when, i);
        eq.scheduleAt(when, [&got, i] { got.push_back(i); });
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i].second) << "position " << i;
    EXPECT_EQ(eq.executed(), 2000u);
}

TEST(EventQueue, DynamicChainsAcrossRingAndHeap)
{
    // Self-rescheduling chains with pseudo-random delays that land in
    // the ring, in the heap and at the ringSlots boundary: time must
    // never go backwards and every event must be accounted for.
    EventQueue eq;
    Rng rng(0xc4a1);
    Tick last = 0;
    std::uint64_t fired = 0;
    bool monotonic = true;
    std::function<void()> hop = [&] {
        if (eq.now() < last)
            monotonic = false;
        last = eq.now();
        ++fired;
        if (fired < 5000) {
            const Tick delays[] = {0, 1, 5, 63, 64, 700, 4096, 50000,
                                   262144, Tick{1} << 24,
                                   ringSlots - 1, ringSlots, ringSlots + 1,
                                   2 * ringSlots - 1, 2 * ringSlots};
            eq.schedule(delays[rng.range(15)], hop);
        }
    };
    for (int c = 0; c < 4; ++c)
        eq.schedule(static_cast<Tick>(c), hop);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(fired, 5003u);
}

TEST(EventQueue, ZeroDelayDuringDrainRunsSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] {
        order.push_back(1);
        eq.schedule(0, [&] {
            order.push_back(2);
            eq.schedule(0, [&] { order.push_back(3); });
        });
    });
    eq.scheduleAt(11, [&] { order.push_back(4); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, BudgetExpiryMidTickPreservesOrder)
{
    // Ten same-tick events, budget for three: the remaining seven
    // must survive and still fire in FIFO order on the next run().
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    EXPECT_FALSE(eq.run(3));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.pending(), 7u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, BudgetExpiryKeepsUndrainedAheadOfSameTickInserts)
{
    // Events 0 and 1 each schedule a same-tick event during the drain;
    // when the budget runs out after three, the undrained 3..5 were
    // scheduled first and must still fire before those two.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        eq.scheduleAt(5, [&eq, &order, i] {
            order.push_back(i);
            if (i < 2)
                eq.schedule(0, [&order, i] { order.push_back(10 + i); });
        });
    }
    EXPECT_FALSE(eq.run(3));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 10, 11}));
}

TEST(EventQueue, HeapEventsPrecedeLaterSameTickInserts)
{
    // A waits in the heap for tick t.  At t - ringSlots, C is scheduled
    // for t (the heap again); at t - ringSlots + 1, B is scheduled for t
    // (straight into the ring).  Scheduling order must decide: A, C, B.
    EventQueue eq;
    const Tick t = ringSlots + 100;
    std::vector<char> order;
    eq.scheduleAt(t, [&] { order.push_back('A'); });
    eq.scheduleAt(t - ringSlots, [&] {
        eq.scheduleAt(t, [&] { order.push_back('C'); });
    });
    eq.scheduleAt(t - ringSlots + 1, [&] {
        eq.scheduleAt(t, [&] { order.push_back('B'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'B'}));
}

TEST(EventQueue, DestroyingTheQueueDestroysPendingCallbacks)
{
    // Callbacks in ring slots and in the heap alike.
    int copies = 0;
    int alive = 0;
    int fired = 0;
    {
        EventQueue eq;
        for (int i = 0; i < 8; ++i)
            eq.schedule(static_cast<Tick>(1 + i * 1000),
                        CountingCallback(&copies, &alive, &fired));
        EXPECT_EQ(alive, 8);
        EXPECT_EQ(eq.pending(), 8u);
    }
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, HotPathCapturesStayInline)
{
    const std::uint64_t before = EventQueue::Callback::heapFallbacks();
    EventQueue eq;
    struct
    {
        void *self;
        unsigned src, dst;
        unsigned char msg[40];
    } payload = {};
    int hits = 0;
    eq.schedule(1, [payload, &hits] {
        ++hits;
        (void)payload;
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(EventQueue::Callback::heapFallbacks(), before);
}

TEST(EventQueue, RunUntilStopsStrictlyBelowHorizon)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleAt(1, [&] { fired.push_back(1); });
    eq.scheduleAt(4, [&] { fired.push_back(4); });
    eq.scheduleAt(5, [&] { fired.push_back(5); });

    std::uint64_t budget = 100;
    EXPECT_TRUE(eq.runUntil(5, budget));
    EXPECT_EQ(fired, (std::vector<Tick>{1, 4}));
    EXPECT_EQ(eq.nextTickExact(), 5u);

    EXPECT_TRUE(eq.runUntil(6, budget));
    EXPECT_EQ(fired, (std::vector<Tick>{1, 4, 5}));
    EXPECT_EQ(eq.nextTickExact(), maxTick);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunUntilReportsBudgetExhaustion)
{
    EventQueue eq;
    for (int i = 0; i < 4; ++i)
        eq.scheduleAt(1, [] {});
    std::uint64_t budget = 2;
    EXPECT_FALSE(eq.runUntil(10, budget));
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, NextTickExactSeesRingAndHeap)
{
    // From now() == 0: ticks below ringSlots file into ring slots and
    // later ticks into the heap.  Each pair below is scheduled latest
    // first, in the heap and then in the ring; nextTickExact() must
    // report the true earliest tick over both.
    EventQueue eq;
    const Tick overflowTick = (Tick{1} << 24) + 12345;
    const Tick level3Tick = (Tick{1} << 18) + 777;
    eq.scheduleAt(overflowTick, [] {});
    EXPECT_EQ(eq.nextTickExact(), overflowTick);

    eq.scheduleAt(level3Tick, [] {});
    EXPECT_EQ(eq.nextTickExact(), level3Tick);

    // Two ring events, the later one scheduled first: the earliest
    // occupied slot, not the first event scheduled, wins.
    eq.scheduleAt(100, [] {});
    eq.scheduleAt(70, [] {});
    EXPECT_EQ(eq.nextTickExact(), 70u);

    std::uint64_t budget = 100;
    EXPECT_TRUE(eq.runUntil(101, budget));
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.nextTickExact(), level3Tick);
    EXPECT_TRUE(eq.runUntil(level3Tick + 1, budget));
    EXPECT_EQ(eq.nextTickExact(), overflowTick);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.now(), overflowTick);
    EXPECT_EQ(eq.nextTickExact(), maxTick);

    // A ring event and, behind it, a heap event ringSlots + 5 ahead: a
    // horizon between the two stops on the ring event and then reports
    // the heap event's exact tick.
    const Tick base = eq.now();
    eq.scheduleAt(base + ringSlots + 5, [] {});
    eq.scheduleAt(base + 3, [] {});
    EXPECT_EQ(eq.nextTickExact(), base + 3);
    EXPECT_TRUE(eq.runUntil(base + 100, budget));
    EXPECT_EQ(eq.now(), base + 3);
    EXPECT_EQ(eq.nextTickExact(), base + ringSlots + 5);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.now(), base + ringSlots + 5);
    EXPECT_EQ(eq.nextTickExact(), maxTick);
}

TEST(EventQueue, WeightedEventCountsItsWeightInOneDispatch)
{
    EventQueue eq;
    int calls = 0;
    eq.scheduleAt(5, [&] { ++calls; }, 7);
    eq.scheduleAt(5, [&] { ++calls; });
    EXPECT_EQ(eq.pending(), 8u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(eq.executed(), 8u);
    EXPECT_EQ(eq.dispatched(), 2u);
    EXPECT_EQ(eq.pending(), 0u);

    // The budget counts logical events: a weight-3 event does not fit
    // in a budget of 2.
    eq.scheduleAt(9, [&] { ++calls; }, 3);
    std::uint64_t budget = 2;
    EXPECT_FALSE(eq.runUntil(10, budget));
    EXPECT_EQ(calls, 2);
    budget = 3;
    EXPECT_TRUE(eq.runUntil(10, budget));
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(eq.executed(), 11u);
}

TEST(EventQueue, CountOnlyEventsArePendingUntilTheirTick)
{
    EventQueue eq;
    eq.scheduleAt(1, [&] {
        eq.countAt(3, 20);
        eq.countAt(3, 30);
        eq.countAt(0, 25);
    });
    eq.scheduleAt(40, [] {});
    std::uint64_t budget = 100;
    EXPECT_TRUE(eq.runUntil(2, budget));
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_EQ(eq.executed(), 1u);
    // A lane's front is the earliest pending tick.
    EXPECT_EQ(eq.nextTickExact(), 20u);

    // Retired exactly below the horizon: 20 and 25, not 30.
    EXPECT_TRUE(eq.runUntil(30, budget));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.nextTickExact(), 30u);
    EXPECT_EQ(eq.dispatched(), 1u);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 5u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.dispatched(), 2u);
    EXPECT_EQ(eq.nextTickExact(), maxTick);
}

} // namespace
} // namespace dir2b
