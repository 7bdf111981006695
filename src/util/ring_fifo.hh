/**
 * @file
 * Vector-backed FIFO ring with erase-anywhere.
 *
 * The timed controllers' request queue is a FIFO that §3.2.5 also
 * deletes from the middle (stale MREQUESTs, a queued EJECT consumed
 * as a put, the per-block dispatch skipping busy blocks).  A
 * std::list does that with one heap node per enqueue; this ring keeps
 * the elements in one power-of-two array that only grows, so the
 * steady state allocates nothing.  Erasing element i shifts whichever
 * side of it is shorter by one slot, so popping the front is O(1) and
 * the order of the remaining elements never changes.
 *
 * Elements are addressed by position from the front; after erase(i),
 * the element that followed i is at position i.
 */

#ifndef DIR2B_UTIL_RING_FIFO_HH
#define DIR2B_UTIL_RING_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace dir2b
{

/** FIFO ring over a growable power-of-two array. */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The element at position i from the front (i < size()). */
    T &operator[](std::size_t i) { return buf_[slot(i)]; }
    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }

    /** Append at the back. */
    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[slot(size_)] = std::move(v);
        ++size_;
    }

    /** Remove the element at position i, keeping the others' order. */
    void
    erase(std::size_t i)
    {
        DIR2B_ASSERT(i < size_, "RingFifo::erase past the end");
        if (i < size_ / 2) {
            // Shift the front part back by one; the front advances.
            for (std::size_t j = i; j > 0; --j)
                buf_[slot(j)] = std::move(buf_[slot(j - 1)]);
            head_ = (head_ + 1) & (buf_.size() - 1);
        } else {
            // Shift the back part forward by one.
            for (std::size_t j = i; j + 1 < size_; ++j)
                buf_[slot(j)] = std::move(buf_[slot(j + 1)]);
        }
        --size_;
    }

    /** Remove every element for which dead(element) holds, keeping
     *  the others' order; one pass, no allocation. */
    template <typename Pred>
    void
    eraseIf(Pred dead)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < size_; ++i) {
            if (!dead(std::as_const(buf_[slot(i)]))) {
                if (kept != i)
                    buf_[slot(kept)] = std::move(buf_[slot(i)]);
                ++kept;
            }
        }
        size_ = kept;
    }

  private:
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (buf_.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 16 : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(buf_[slot(i)]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dir2b

#endif // DIR2B_UTIL_RING_FIFO_HH
