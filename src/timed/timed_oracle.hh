/**
 * @file
 * Coherence checker for the timed tier.
 *
 * With messages in flight, "the most recently written value" is only
 * defined up to the per-block write serialisation the directory
 * enforces.  The checker therefore verifies per-location coherence in
 * its standard formal sense (per-location sequential consistency):
 *
 *  1. every read returns a value that was actually written to that
 *     block (or its initial contents) — no fabrication, no
 *     cross-block leakage;
 *  2. per (processor, block), the sequence of observed versions is
 *     monotonically non-decreasing — a processor never sees a write
 *     and then travels back in time (this permits the paper's
 *     ack-free invalidation broadcasts, where a remote stale copy may
 *     be read for a few more cycles before the BROADINV lands, but
 *     forbids any ordering inversion);
 *  3. a processor's read after its own write observes a version at
 *     least as new as that write;
 *  4. at quiesce, the final contents of every block (memory, or the
 *     unique dirty copy) equal the newest version.
 *
 * Versions are assigned in completion order, which matches the
 * per-block grant order of the serialising controller.
 *
 * The minted-value contract: every value a processor writes comes
 * from freshValue(), i.e. encode(nonce) for a fresh nonce.  Values
 * are nonce * K + 1 with K odd, so decode() recovers the nonce with
 * one multiply and the oracle keeps each write's block and version in
 * a dense table indexed by nonce: no per-block history map, no
 * hashing of values.
 * A completed write whose value decodes outside the minted range
 * panics, and so does a read whose value decodes to an unminted or
 * not yet completed write, or to a write of another block (check 1).
 */

#ifndef DIR2B_TIMED_TIMED_ORACLE_HH
#define DIR2B_TIMED_TIMED_ORACLE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dir2b
{

/** The inverse of odd k mod 2^64 (Newton: any odd k is its own
 *  inverse mod 8, and each step doubles the exact low bits). */
constexpr std::uint64_t
oddInverse(std::uint64_t k)
{
    std::uint64_t x = k;
    for (int i = 0; i < 5; ++i)
        x *= 2 - k * x;
    return x;
}

/** Per-location-SC checker fed by processor-visible completions. */
class TimedOracle
{
  public:
    /** The value written under nonce (nonce >= 1). */
    static constexpr Value
    encode(std::uint64_t nonce)
    {
        return nonce * mult + 1;
    }

    /** The nonce a value was minted under (inverse of encode()). */
    static constexpr std::uint64_t
    decode(Value v)
    {
        return (v - 1) * multInverse;
    }

    /** Produce a unique value for the next write. */
    Value
    freshValue()
    {
        return encode(++minted_);
    }

    /** A write of v to block a completed at processor p. */
    void
    onWriteComplete(ProcId p, Addr a, Value v)
    {
        const std::uint64_t n = decode(v);
        if (n == 0 || n > minted_)
            DIR2B_PANIC("write of ", v, " to block ", a, " by processor ",
                        p, " completed, but that value was never minted");
        if (n >= versions_.size())
            versions_.resize(n + 1);
        Version &ver = versions_[n];
        DIR2B_ASSERT(ver.seq == 0, "value ", v, " written twice");
        ver.block = a;
        ver.seq = ++blocks_[a];
        lastSeen_[key(p, a)] = ver.seq;
        ++writes_;
    }

    /** A read of block a returning v completed at processor p. */
    void
    onReadComplete(ProcId p, Addr a, Value v)
    {
        ++reads_;
        const std::uint64_t seq = seqOf(a, v);
        auto &seen = lastSeen_[key(p, a)];
        if (seq < seen) {
            DIR2B_PANIC("per-location coherence violation: processor ",
                        p, " read version ", seq, " of block ", a,
                        " after having observed version ", seen);
        }
        seen = seq;
    }

    /** End-of-run check: the final value of block a is the newest. */
    void
    checkFinal(Addr a, Value v) const
    {
        auto it = blocks_.find(a);
        const std::uint64_t last = it == blocks_.end() ? 0 : it->second;
        const std::uint64_t seq = seqOf(a, v);
        if (seq != last) {
            DIR2B_PANIC("conservation violation: block ", a,
                        " finishes at version ", seq,
                        " but the newest write was version ", last);
        }
    }

    std::uint64_t readsChecked() const { return reads_; }
    std::uint64_t writesRecorded() const { return writes_; }

    /** Visit every block that has been written (for final checks). */
    void
    forEachWrittenBlock(const std::function<void(Addr)> &fn) const
    {
        for (const auto &[a, last] : blocks_)
            fn(a);
    }

  private:
    static constexpr std::uint64_t mult = 0x9e3779b97f4a7c15ULL;
    static constexpr std::uint64_t multInverse = oddInverse(mult);
    static_assert(mult * multInverse == 1, "mult must be odd");

    /** One completed write: its block and its version there (0 while
     *  the write has not completed). */
    struct Version
    {
        Addr block = 0;
        std::uint64_t seq = 0;
    };

    static std::uint64_t
    key(ProcId p, Addr a)
    {
        return (static_cast<std::uint64_t>(p) << 48) ^ a;
    }

    std::uint64_t
    seqOf(Addr a, Value v) const
    {
        if (v == initialValue(a))
            return 0;
        const std::uint64_t n = decode(v);
        if (n >= versions_.size() || versions_[n].seq == 0 ||
            versions_[n].block != a)
            DIR2B_PANIC("read of block ", a, " returned ", v,
                        " which was never written to it (initial is ",
                        initialValue(a), ")");
        return versions_[n].seq;
    }

    /** Indexed by nonce; entry 0 is never minted. */
    std::vector<Version> versions_;
    /** Newest version per written block. */
    FlatMap<Addr, std::uint64_t> blocks_;
    /** Newest version each (processor, block) has observed. */
    FlatMap<std::uint64_t, std::uint64_t> lastSeen_;
    std::uint64_t minted_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_ORACLE_HH
