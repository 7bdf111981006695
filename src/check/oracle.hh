/**
 * @file
 * Coherence oracle for the functional tier.
 *
 * The paper's definition (§1): "a multiprocessor system is cache
 * coherent if a read access to any block always returns the most
 * recently written value of that block."  In the functional tier every
 * access is an atomic transaction, so "most recently written" is
 * unambiguous: the oracle shadows the last value written to each block
 * (blocks start at initialValue) and checks every read against it.
 *
 * Writes carry fresh nonces so that any protocol bug that returns a
 * stale or cross-block value is detected on the very next read.
 */

#ifndef DIR2B_CHECK_ORACLE_HH
#define DIR2B_CHECK_ORACLE_HH

#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dir2b
{

/** Last-writer-wins shadow memory. */
class CoherenceOracle
{
  public:
    /** Record a completed write of v to block a. */
    void
    onWrite(Addr a, Value v)
    {
        shadow_[a] = v;
        ++writes_;
    }

    /** Check a completed read of block a returning v; panics with a
     *  diagnostic on a coherence violation. */
    void
    onRead(Addr a, Value v)
    {
        ++reads_;
        const Value want = expected(a);
        if (v != want) {
            DIR2B_PANIC("coherence violation on block ", a,
                        ": read returned ", v, " but the most recently "
                        "written value is ", want);
        }
    }

    /** The value a coherent read of block a must return. */
    Value
    expected(Addr a) const
    {
        auto it = shadow_.find(a);
        return it != shadow_.end() ? it->second : initialValue(a);
    }

    /** Produce a fresh, globally unique value for the next write. */
    Value
    freshValue()
    {
        return ++nonce_ * 0x9e3779b97f4a7c15ULL + 1;
    }

    std::uint64_t readsChecked() const { return reads_; }
    std::uint64_t writesRecorded() const { return writes_; }

  private:
    FlatMap<Addr, Value> shadow_;
    Value nonce_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace dir2b

#endif // DIR2B_CHECK_ORACLE_HH
