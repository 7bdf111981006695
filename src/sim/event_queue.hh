/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The timed tier of dir2b (controllers, networks, processors) runs on a
 * single global event queue.  Events scheduled for the same tick fire
 * in FIFO order of scheduling, which makes runs bit-for-bit
 * deterministic regardless of scheduler internals.
 *
 * Internals (rewritten from a std::function + std::priority_queue
 * kernel; the golden digests in tests/test_golden_digest.cc pin that
 * the rewrite changed nothing observable):
 *
 *  - Events live in arena nodes recycled through a freelist, so the
 *    steady state performs no allocation per event.  Callbacks are
 *    stored inline in the node (InlineFunction); a capture larger
 *    than the inline buffer falls back to the heap and is counted.
 *
 *  - Scheduling uses a hierarchical timing wheel: four levels of 64
 *    slots, level L spanning deltas below 64^(L+1) ticks, each with a
 *    64-bit occupancy bitmap so the next event is found with a rotate
 *    and a count-trailing-zeros instead of heap rebalancing.  Deltas
 *    of 64^4 ticks or more wait in a small (when, seq) min-heap and
 *    migrate into the wheel as time approaches.
 *
 *  - FIFO order within a tick is preserved exactly: slot lists append
 *    in schedule order, and because a bucket cascade can interleave an
 *    early-scheduled event behind a later direct insert, each drained
 *    slot is verified (and, rarely, re-sorted) by sequence number
 *    before firing.
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

    EventQueue() { arena_.reserve(1024); }

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
        while (pending_ != counted_) {
            advance<false>(0);
            if (!drainCurrentSlot(budget))
                return false;
        }
        for (RingFifo<Tick> &q : lanes_)
            retire(q, maxTick);
        return true;
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
            if (!advance<true>(horizon))
                break; // nothing real left below the horizon
            if (!drainCurrentSlot(budget))
                return false;
        }
        for (RingFifo<Tick> &q : lanes_)
            retire(q, horizon);
        return true;
    }

    /**
     * The *exact* when of the earliest pending event (maxTick when the
     * queue is empty).  A level >= 1 bucket's start is only a lower
     * bound on its contents, so this walks the node lists of the
     * candidate buckets whose start beats the best exact candidate
     * and returns the true minimum.  On dense runs the level-0
     * candidate wins immediately and no list is walked.
     */
    Tick
    nextTickExact() const
    {
        if (pending_ == 0)
            return maxTick;
        Tick best = maxTick;
        if (!over_.empty())
            best = arena_[over_.front()].when;
        for (const RingFifo<Tick> &q : lanes_) {
            if (!q.empty())
                best = std::min(best, q[0]);
        }
        if (levels_[0].occ) {
            const auto curSlot =
                static_cast<unsigned>(now_ & (slotCount - 1));
            const unsigned d = static_cast<unsigned>(
                std::countr_zero(
                    std::rotr(levels_[0].occ, curSlot)));
            best = std::min(best, now_ + d);
        }
        for (unsigned lv = 1; lv < levelCount; ++lv) {
            if (!levels_[lv].occ)
                continue;
            const Tick cur = now_ >> (slotBits * lv);
            const auto curSlot = static_cast<unsigned>(
                cur & (slotCount - 1));
            std::uint64_t bits = levels_[lv].occ;
            while (bits) {
                const auto slot = static_cast<unsigned>(
                    std::countr_zero(bits));
                bits &= bits - 1;
                const unsigned d = (slot - curSlot) & (slotCount - 1);
                const Tick start =
                    d == 0 ? now_ : (cur + d) << (slotBits * lv);
                if (start >= best)
                    continue;
                for (std::uint32_t n = levels_[lv].head[slot];
                     n != nil; n = arena_[n].next)
                    best = std::min(best, arena_[n].when);
            }
        }
        DIR2B_ASSERT(best >= now_, "exact bound behind now");
        return best;
    }

    /** Drop all pending events (end of a run). */
    void
    reset()
    {
        arena_.clear(); // destroys pending callbacks
        freeHead_ = nil;
        over_.clear();
        for (Level &lv : levels_) {
            lv.occ = 0;
            lv.head.assign(slotCount, nil);
            lv.tail.assign(slotCount, nil);
        }
        lanes_.clear();
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
        pending_ = 0;
        counted_ = 0;
        dispatched_ = 0;
    }

  private:
    static constexpr unsigned slotBits = 6;
    static constexpr std::size_t slotCount = 1u << slotBits;
    static constexpr unsigned levelCount = 4;
    /** Deltas at or beyond 64^4 ticks wait in the overflow heap. */
    static constexpr Tick horizon = Tick{1}
                                    << (slotBits * levelCount);
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = nil;
        std::uint32_t weight = 1;
        Callback cb;
    };

    struct Level
    {
        std::vector<std::uint32_t> head =
            std::vector<std::uint32_t>(slotCount, nil);
        std::vector<std::uint32_t> tail =
            std::vector<std::uint32_t>(slotCount, nil);
        std::uint64_t occ = 0;
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

    /**
     * File a node into its wheel slot (or the overflow heap).
     *
     * An event goes to the smallest level whose digits above it agree
     * between when and now_ (the "same cycle" rule).  Picking the
     * level from the raw delta instead would wrap: a delta just under
     * 64^4 that crosses enough digit boundaries lands a full cycle
     * ahead in the CURRENT level-3 bucket.  With the prefix rule an
     * occupied slot is always strictly ahead of now_ within its
     * cycle, so circular bitmap distances are exact.
     */
    void
    placeNode(std::uint32_t idx)
    {
        Node &n = arena_[idx];
        n.next = nil;
        unsigned level = 0;
        while (level < levelCount &&
               (n.when >> (slotBits * (level + 1))) !=
                   (now_ >> (slotBits * (level + 1))))
            ++level;
        if (level == levelCount) {
            over_.push_back(idx);
            std::push_heap(over_.begin(), over_.end(),
                           [this](std::uint32_t a, std::uint32_t b) {
                               return laterThan(a, b);
                           });
            return;
        }
        const auto slot = static_cast<std::size_t>(
            (n.when >> (slotBits * level)) & (slotCount - 1));
        Level &lv = levels_[level];
        if (lv.tail[slot] == nil) {
            lv.head[slot] = idx;
        } else {
            arena_[lv.tail[slot]].next = idx;
        }
        lv.tail[slot] = idx;
        lv.occ |= std::uint64_t{1} << slot;
    }

    /** Overflow-heap ordering: true if a fires after b. */
    bool
    laterThan(std::uint32_t a, std::uint32_t b) const
    {
        const Node &na = arena_[a];
        const Node &nb = arena_[b];
        if (na.when != nb.when)
            return na.when > nb.when;
        return na.seq > nb.seq;
    }

    /** Detach and clear slot `slot` of level `level`. */
    std::uint32_t
    detachSlot(unsigned level, std::size_t slot)
    {
        Level &lv = levels_[level];
        const std::uint32_t head = lv.head[slot];
        lv.head[slot] = nil;
        lv.tail[slot] = nil;
        lv.occ &= ~(std::uint64_t{1} << slot);
        return head;
    }

    struct Candidate
    {
        Tick when;
        int level;
    };

    /**
     * The earliest jump candidate: a level-0 slot gives an exact time
     * (level-0 deltas are < 64, so circular distance is absolute),
     * while a level>=1 bucket gives only its start — a lower bound on
     * everything in it — and the overflow top is exact.  Requires
     * pending_ > 0.
     */
    Candidate
    minCandidate() const
    {
        Tick best = ~Tick{0};
        int bestLevel = -1;
        if (!over_.empty()) {
            best = arena_[over_.front()].when;
            bestLevel = levelCount; // sentinel: jump-and-migrate
        }
        for (unsigned lv = levelCount - 1; lv >= 1; --lv) {
            if (!levels_[lv].occ)
                continue;
            const Tick cur = now_ >> (slotBits * lv);
            const auto curSlot = static_cast<unsigned>(
                cur & (slotCount - 1));
            const unsigned d = static_cast<unsigned>(
                std::countr_zero(
                    std::rotr(levels_[lv].occ, curSlot)));
            // d == 0 (the current-digit bucket is occupied) can
            // happen right after a jump that landed exactly on a
            // bucket boundary via a different candidate; such a
            // bucket must cascade before anything executes, so it
            // bids now_ itself, the unbeatable minimum.
            const Tick start =
                d == 0 ? now_ : (cur + d) << (slotBits * lv);
            if (start < best) {
                best = start;
                bestLevel = static_cast<int>(lv);
            }
        }
        if (levels_[0].occ) {
            const auto curSlot =
                static_cast<unsigned>(now_ & (slotCount - 1));
            const unsigned d = static_cast<unsigned>(
                std::countr_zero(
                    std::rotr(levels_[0].occ, curSlot)));
            const Tick cand = now_ + d;
            if (cand < best) {
                best = cand;
                bestLevel = 0;
            }
        }
        DIR2B_ASSERT(bestLevel >= 0, "pending events but no slot");
        DIR2B_ASSERT(best >= now_, "event queue time warp");
        return {best, bestLevel};
    }

    /**
     * Move now_ to the next event time, cascading higher-level
     * buckets and migrating overflow nodes until the level-0 slot at
     * now_ holds the earliest pending events.  Requires pending_ > 0.
     *
     * Correctness hinges on candidate selection (minCandidate): the
     * jump target is the global minimum over exact times and bucket
     * lower bounds, and a bucket chosen at its lower bound is cascaded
     * and re-evaluated rather than executed, so a level-0 jump can
     * never skip over an earlier event hiding in a bucket.
     *
     * Bounded (runUntil): returns false — with now_ strictly below
     * the horizon — as soon as the candidate minimum reaches the
     * horizon.  Cascades performed before that point only refine
     * bucket bounds.  Returns true when positioned on a drainable
     * level-0 slot.
     */
    template <bool Bounded>
    bool
    advance(Tick horizon)
    {
        for (;;) {
            while (!over_.empty() &&
                   (arena_[over_.front()].when >>
                    (slotBits * levelCount)) ==
                       (now_ >> (slotBits * levelCount))) {
                std::pop_heap(over_.begin(), over_.end(),
                              [this](std::uint32_t a, std::uint32_t b) {
                                  return laterThan(a, b);
                              });
                const std::uint32_t idx = over_.back();
                over_.pop_back();
                placeNode(idx);
            }

            const Candidate c = minCandidate();
            if (Bounded && c.when >= horizon)
                return false;

            now_ = c.when;
            if (c.level == 0)
                return true;
            if (c.level == static_cast<int>(levelCount))
                continue; // overflow top: migrate at new now_
            // Cascade the chosen bucket into lower levels, in list
            // order so equal-tick FIFO is preserved where possible.
            const auto slot = static_cast<std::size_t>(
                (now_ >> (slotBits * c.level)) & (slotCount - 1));
            std::uint32_t n =
                detachSlot(static_cast<unsigned>(c.level), slot);
            while (n != nil) {
                const std::uint32_t next = arena_[n].next;
                placeNode(n);
                n = next;
            }
        }
    }

    /**
     * Fire the events in the level-0 slot at now_, re-checking the
     * slot afterwards because zero-delay callbacks append to it.
     * @return false when the budget ran out (undrained nodes are
     *         reinserted ahead of any newly scheduled same-tick ones).
     */
    bool
    drainCurrentSlot(std::uint64_t &budget)
    {
        const auto slot = static_cast<std::size_t>(now_ & (slotCount - 1));
        while (levels_[0].occ >> slot & 1) {
            scratch_.clear();
            for (std::uint32_t n = detachSlot(0, slot); n != nil;
                 n = arena_[n].next) {
                DIR2B_ASSERT(arena_[n].when == now_,
                             "level-0 slot holds foreign tick");
                scratch_.push_back(n);
            }
            // A cascade can append an early-scheduled (low-seq) node
            // behind a later direct insert; restore FIFO order.  The
            // sortedness check keeps the common path linear.
            if (!std::is_sorted(scratch_.begin(), scratch_.end(),
                                [this](std::uint32_t a,
                                       std::uint32_t b) {
                                    return arena_[a].seq <
                                           arena_[b].seq;
                                })) {
                std::sort(scratch_.begin(), scratch_.end(),
                          [this](std::uint32_t a, std::uint32_t b) {
                              return arena_[a].seq < arena_[b].seq;
                          });
            }
            for (std::size_t i = 0; i < scratch_.size(); ++i) {
                const std::uint32_t idx = scratch_[i];
                const std::uint32_t weight = arena_[idx].weight;
                if (budget < weight) {
                    reinsertUndrained(slot, i);
                    return false;
                }
                budget -= weight;
                Callback cb = std::move(arena_[idx].cb);
                freeNode(idx);
                pending_ -= weight;
                executed_ += weight;
                ++dispatched_;
                cb();
            }
        }
        return true;
    }

    /** Put scratch_[from..] back at the front of the given slot,
     *  ahead of any same-tick events scheduled during the drain. */
    void
    reinsertUndrained(std::size_t slot, std::size_t from)
    {
        std::uint32_t head = levels_[0].head[slot];
        std::uint32_t tail = levels_[0].tail[slot];
        for (std::size_t i = scratch_.size(); i-- > from;) {
            const std::uint32_t idx = scratch_[i];
            arena_[idx].next = head;
            head = idx;
            if (tail == nil)
                tail = idx;
        }
        levels_[0].head[slot] = head;
        levels_[0].tail[slot] = tail;
        if (head != nil)
            levels_[0].occ |= std::uint64_t{1} << slot;
    }

    std::vector<Node> arena_;
    std::uint32_t freeHead_ = nil;
    Level levels_[levelCount];
    /** Min-heap (by when, then seq) of beyond-horizon node indices. */
    std::vector<std::uint32_t> over_;
    /** Drain batch reused across ticks. */
    std::vector<std::uint32_t> scratch_;
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
