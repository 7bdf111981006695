/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The timed tier of dir2b (controllers, networks, processors) runs on a
 * single global event queue.  Events scheduled for the same tick fire
 * in FIFO order of scheduling, which makes runs bit-for-bit
 * deterministic regardless of scheduler internals.
 *
 * Internals (the golden digests in tests/test_golden_digest.cc pin
 * that no rewrite of them changed anything observable):
 *
 *  - Events live in arena nodes recycled through a freelist, so the
 *    steady state performs no allocation per event.  Callbacks are
 *    stored inline in the node (InlineFunction); a capture larger
 *    than the inline buffer falls back to the heap and is counted.
 *
 *  - Scheduling uses one ring of ringSlots single-tick slots and a
 *    (when, seq) min-heap.  An event less than ringSlots ticks ahead
 *    is appended to slot `when mod ringSlots`; every other event waits
 *    in the heap.  Every ring node thus satisfies
 *    now <= when < now + ringSlots, so a slot holds one tick only.  An
 *    occupancy bitmap with a one-word summary finds the next occupied
 *    slot with a rotate and a count-trailing-zeros.
 *
 *  - FIFO order within a tick holds by construction.  Whenever now()
 *    moves, every heap node less than ringSlots ticks ahead migrates
 *    to its slot, in (when, seq) order, before any callback runs.  A
 *    heap node at tick t was scheduled while now <= t - ringSlots, and
 *    a direct insert at t needs now > t - ringSlots, so the heap node
 *    has the lower seq and is in the slot before the direct insert
 *    appends behind it.
 *
 *  - runUntil() executes strictly below a horizon and nextTickExact()
 *    reports the earliest pending tick, so a caller (the telemetry
 *    sampler loop of TimedSystem) can stop at exact time boundaries.
 *
 *  - executed() and pending() count logical events.  A weighted event
 *    stands for `weight` events of one tick (a broadcast's copies).
 *    A count-only event (countAt) runs nothing: it is pending until
 *    its tick, then executed.  These wait in tick order in one FIFO
 *    lane per caller-chosen key (a destination port).
 */

#ifndef DIR2B_SIM_EVENT_QUEUE_HH
#define DIR2B_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/inline_function.hh"
#include "util/logging.hh"
#include "util/ring_fifo.hh"
#include "util/types.hh"

namespace dir2b
{

/** Global FIFO-stable discrete-event queue. */
class EventQueue
{
  public:
    /** Inline capture capacity: the largest timed-tier callback
     *  ([this, src, dst, msg]) is ~48 bytes; oversized captures heap-
     *  allocate and show up in InlineFunction::heapFallbacks(). */
    static constexpr std::size_t inlineBytes = 104;

    using Callback = InlineFunction<inlineBytes>;

    EventQueue()
    {
        arena_.reserve(1024);
        head_.fill(nil);
        tail_.fill(nil);
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of (logical) events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Number of (logical) events currently pending. */
    std::size_t pending() const { return pending_; }

    /** Callbacks invoked so far (host work: no digest may read it). */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Schedule a callback at an absolute tick >= now(), standing for
     *  `weight` logical events of that tick. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&cb, std::uint32_t weight = 1)
    {
        DIR2B_ASSERT(when >= now_, "scheduling event in the past: ", when,
                     " < ", now_);
        const std::uint32_t idx = allocNode();
        Node &n = arena_[idx];
        n.when = when;
        n.seq = seq_++;
        n.weight = weight;
        n.cb = std::forward<F>(cb);
        placeNode(idx);
        pending_ += weight;
    }

    /** Count one event at tick `when` that has nothing to run; ticks
     *  counted in one lane must not decrease.  The caller keeps a real
     *  event pending at or after `when`.  Not charged to the budget. */
    void
    countAt(std::size_t lane, Tick when)
    {
        DIR2B_ASSERT(when >= now_, "counting an event in the past");
        if (lane >= lanes_.size())
            lanes_.resize(lane + 1);
        RingFifo<Tick> &q = lanes_[lane];
        retire(q, now_ + 1);
        DIR2B_ASSERT(q.empty() || q[q.size() - 1] <= when,
                     "count-only lane ", lane, " went back in time");
        q.push_back(when);
        ++pending_;
        ++counted_;
    }

    /** Schedule a callback delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&cb)
    {
        scheduleAt(now_ + delay, std::forward<F>(cb));
    }

    /**
     * Run until the queue drains or maxEvents have executed.
     * @return true if the queue drained, false if the budget expired
     *         (the usual sign of livelock in a protocol under test).
     */
    bool
    run(std::uint64_t maxEvents = ~0ULL)
    {
        std::uint64_t budget = maxEvents;
        return runUntil(maxTick, budget);
    }

    /**
     * Execute every pending event with when < horizon.  now() never
     * advances to or beyond the horizon, so the caller may afterwards
     * observe the state exactly at the boundary.
     * @return false when the budget ran out before the horizon.
     */
    bool
    runUntil(Tick horizon, std::uint64_t &budget)
    {
        while (pending_ != counted_) {
            const Tick next = std::min(nextRingTick(), heapTop());
            if (next >= horizon)
                break; // nothing real left below the horizon
            now_ = next;
            migrate();
            if (!drainCurrentSlot(budget))
                return false;
        }
        for (RingFifo<Tick> &q : lanes_)
            retire(q, horizon);
        return true;
    }

    /** The exact when of the earliest pending event (maxTick when the
     *  queue is empty). */
    Tick
    nextTickExact() const
    {
        Tick best = std::min(nextRingTick(), heapTop());
        for (const RingFifo<Tick> &q : lanes_) {
            if (!q.empty())
                best = std::min(best, q[0]);
        }
        DIR2B_ASSERT(best >= now_, "next tick behind now");
        return best;
    }

  private:
    /**
     * Ticks the ring spans, one slot per tick.  Measured delays
     * (when - now) of the timed tier at 64 processors and 16 modules:
     * dir2bsim --timed --q 0.2 on the crossbar never reached 128 (tb)
     * or 64 (fm), every cell of bench_timed --quick stayed below 128,
     * and trace_dump's bus run peaked at 256-511 ticks (2.7% of its
     * events).  Only long think times and far test spans reach the
     * heap.
     */
    static constexpr std::size_t ringSlots = 1024;
    static constexpr std::size_t occWords = ringSlots / 64;
    static_assert(occWords == 16, "summary_ holds one bit per word");
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = nil;
        std::uint32_t weight = 1;
        Callback cb;
    };

    /** Retire lane q's count-only events below tick `before`. */
    void
    retire(RingFifo<Tick> &q, Tick before)
    {
        while (!q.empty() && q[0] < before) {
            q.erase(0);
            --pending_;
            --counted_;
            ++executed_;
        }
    }

    std::uint32_t
    allocNode()
    {
        if (freeHead_ != nil) {
            const std::uint32_t idx = freeHead_;
            freeHead_ = arena_[idx].next;
            return idx;
        }
        arena_.emplace_back();
        return static_cast<std::uint32_t>(arena_.size() - 1);
    }

    void
    freeNode(std::uint32_t idx)
    {
        arena_[idx].next = freeHead_;
        freeHead_ = idx;
    }

    /** Append a node to its ring slot if it is less than ringSlots
     *  ticks ahead, else push it on the heap. */
    void
    placeNode(std::uint32_t idx)
    {
        Node &n = arena_[idx];
        n.next = nil;
        if (n.when - now_ >= ringSlots) {
            over_.push_back(idx);
            std::push_heap(over_.begin(), over_.end(),
                           [this](std::uint32_t a, std::uint32_t b) {
                               return laterThan(a, b);
                           });
            return;
        }
        const auto slot = static_cast<std::size_t>(n.when & (ringSlots - 1));
        if (tail_[slot] == nil)
            head_[slot] = idx;
        else
            arena_[tail_[slot]].next = idx;
        tail_[slot] = idx;
        markOccupied(slot);
    }

    /** Move every heap node now less than ringSlots ticks ahead into
     *  its slot, in (when, seq) order. */
    void
    migrate()
    {
        while (!over_.empty() &&
               arena_[over_.front()].when - now_ < ringSlots) {
            std::pop_heap(over_.begin(), over_.end(),
                          [this](std::uint32_t a, std::uint32_t b) {
                              return laterThan(a, b);
                          });
            const std::uint32_t idx = over_.back();
            over_.pop_back();
            placeNode(idx);
        }
    }

    /** Heap ordering: true if a fires after b. */
    bool
    laterThan(std::uint32_t a, std::uint32_t b) const
    {
        const Node &na = arena_[a];
        const Node &nb = arena_[b];
        if (na.when != nb.when)
            return na.when > nb.when;
        return na.seq > nb.seq;
    }

    Tick
    heapTop() const
    {
        return over_.empty() ? maxTick : arena_[over_.front()].when;
    }

    /** Tick of the first occupied slot at or after now_'s, or maxTick
     *  when the ring is empty. */
    Tick
    nextRingTick() const
    {
        if (!summary_)
            return maxTick;
        const auto cur = static_cast<unsigned>(now_ & (ringSlots - 1));
        unsigned word = cur / 64;
        std::uint64_t bits = occ_[word] & (~std::uint64_t{0} << cur % 64);
        if (!bits) {
            // The next occupied word after this one; wrapping round to
            // this word itself finds its slots below cur.
            const unsigned from = (word + 1) % occWords;
            const auto skip = static_cast<unsigned>(std::countr_zero(
                std::rotr(summary_, static_cast<int>(from))));
            word = (from + skip) % occWords;
            bits = occ_[word];
        }
        const unsigned slot =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        return now_ + ((slot - cur) & (ringSlots - 1));
    }

    void
    markOccupied(std::size_t slot)
    {
        occ_[slot / 64] |= std::uint64_t{1} << slot % 64;
        summary_ |= static_cast<std::uint16_t>(1u << slot / 64);
    }

    /** Detach and clear a ring slot; returns its list head. */
    std::uint32_t
    detachSlot(std::size_t slot)
    {
        const std::uint32_t head = head_[slot];
        head_[slot] = nil;
        tail_[slot] = nil;
        std::uint64_t &word = occ_[slot / 64];
        word &= ~(std::uint64_t{1} << slot % 64);
        if (!word)
            summary_ &= static_cast<std::uint16_t>(~(1u << slot / 64));
        return head;
    }

    /**
     * Fire the events in now_'s slot, re-checking the slot afterwards
     * because zero-delay callbacks append to it.
     * @return false when the budget ran out (undrained nodes are
     *         reinserted ahead of any newly scheduled same-tick ones).
     */
    bool
    drainCurrentSlot(std::uint64_t &budget)
    {
        const auto slot = static_cast<std::size_t>(now_ & (ringSlots - 1));
        while (head_[slot] != nil) {
            const std::uint32_t last = tail_[slot];
            for (std::uint32_t idx = detachSlot(slot); idx != nil;) {
                DIR2B_ASSERT(arena_[idx].when == now_,
                             "ring slot holds foreign tick");
                const std::uint32_t weight = arena_[idx].weight;
                if (budget < weight) {
                    reinsertUndrained(slot, idx, last);
                    return false;
                }
                budget -= weight;
                const std::uint32_t next = arena_[idx].next;
                Callback cb = std::move(arena_[idx].cb);
                freeNode(idx);
                pending_ -= weight;
                executed_ += weight;
                ++dispatched_;
                cb();
                idx = next;
            }
        }
        return true;
    }

    /** Put the undrained list first..last back at the front of the
     *  slot, ahead of any same-tick events scheduled during the drain. */
    void
    reinsertUndrained(std::size_t slot, std::uint32_t first,
                      std::uint32_t last)
    {
        arena_[last].next = head_[slot];
        if (head_[slot] == nil)
            tail_[slot] = last;
        head_[slot] = first;
        markOccupied(slot);
    }

    std::vector<Node> arena_;
    std::uint32_t freeHead_ = nil;
    /** Each ring slot's node list, first and last. */
    std::array<std::uint32_t, ringSlots> head_;
    std::array<std::uint32_t, ringSlots> tail_;
    /** Occupied slots, one bit each, and the nonzero words of occ_. */
    std::array<std::uint64_t, occWords> occ_{};
    std::uint16_t summary_ = 0;
    /** Min-heap (by when, then seq) of nodes ringSlots or more ahead. */
    std::vector<std::uint32_t> over_;
    /** Pending count-only events, one tick-ordered FIFO per lane. */
    std::vector<RingFifo<Tick>> lanes_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    /** The part of pending_ that waits in lanes_. */
    std::size_t counted_ = 0;
    std::uint64_t dispatched_ = 0;
};

} // namespace dir2b

#endif // DIR2B_SIM_EVENT_QUEUE_HH
