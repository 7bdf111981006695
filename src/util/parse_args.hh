/**
 * @file
 * Shared command-line parsing: one option table per binary.
 *
 * Every binary (dir2bsim, the benches, the tools) describes its command
 * line as data: a CliSpec lists its Options (flag, typed binder into the
 * binary's own options struct, help line, and the modes where the flag
 * applies) and its Modes.  parseArgs() walks argv against the table, so
 * --help/-h prints usage rendered from it, and a missing value, an
 * unknown option, a malformed or out-of-range value, a wrong operand
 * count, or a flag given in a mode it does not apply to is fatal with a
 * diagnostic naming the flag ("fatal: --think does not apply to a
 * functional run").
 *
 * Counts are unsigned decimals with an optional K/M/G (1024-based, case
 * insensitive) suffix, range-checked before they narrow into the
 * destination; reals are decimals checked against a closed range.  A
 * hardened corner case (negative wrap, ERANGE clamp, post-multiply
 * overflow, trailing junk) is thus fixed for every binary at once.
 */

#ifndef DIR2B_UTIL_PARSE_ARGS_HH
#define DIR2B_UTIL_PARSE_ARGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace dir2b
{

/**
 * Parse an unsigned count with an optional K/M/G (1024-based, case
 * insensitive) suffix — "256M", "1g", "4096".  Fatal (naming `flag`,
 * describing the value as `noun`) on anything else, including
 * negative values and counts that overflow size_t after the suffix
 * multiply.
 */
std::uint64_t parseScaledUint(const char *s, const char *flag,
                              const char *noun);

/** parseScaledUint for byte counts (--dir-ram-budget,
 *  --trace-buffer); zero is allowed (conventionally "unlimited"). */
std::uint64_t parseByteSize(const char *s, const char *flag);

/** parseScaledUint for sampling intervals (--series-interval):
 *  same grammar, but zero is rejected — a sampler cannot advance by
 *  zero references or ticks. */
std::uint64_t parseInterval(const char *s, const char *flag);

/** parseScaledUint for a count in [min, max]; fatal, naming `flag`,
 *  outside it. */
std::uint64_t parseCount(const char *s, const char *flag,
                         std::uint64_t min, std::uint64_t max);

/** A finite decimal in [lo, hi]; fatal, naming `flag`, on anything
 *  else — "0,3", "0.3x", "nan" and out-of-range values included. */
double parseReal(const char *s, const char *flag, double lo, double hi);

/** How an option stores its value; made by the arg:: helpers. */
struct Binder
{
    /** Value placeholder in the usage text; nullptr for a switch. */
    const char *metavar = nullptr;
    /** Parse `value` (nullptr for a switch) into the destination;
     *  fatal, naming `flag`, on a malformed value. */
    std::function<void(const char *flag, const char *value)> store;
};

/** Binders into a caller-owned destination, which must outlive the
 *  parseArgs() call. */
namespace arg
{

/** A switch: sets `b`. */
Binder on(bool &b);

/** A string value. */
Binder text(std::string &s, const char *metavar);

/** A repeatable string: each occurrence appends to `v`. */
Binder texts(std::vector<std::string> &v, const char *metavar);

/** A K/M/G byte size (parseByteSize). */
Binder byteSize(std::uint64_t &v);

/** A K/M/G sampling interval, at least 1 (parseInterval). */
Binder interval(std::uint64_t &v);

/** A real in [lo, hi] (parseReal). */
Binder real(double &v, double lo, double hi);

/** A count in [min, max]; `max` defaults to the largest T, so the
 *  value always survives the narrowing into T. */
template <typename T>
Binder
count(T &v, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<T>::max())
{
    return {"N", [&v, min, max](const char *flag, const char *s) {
                v = static_cast<T>(parseCount(s, flag, min, max));
            }};
}

/** A comma-separated list of counts, each in [min, max]; replaces
 *  `v`. */
Binder counts(std::vector<std::uint32_t> &v, std::uint64_t min,
              std::uint64_t max);

} // namespace arg

/** Bit set of mode indices (bit i: CliSpec::modes[i]). */
using ModeSet = std::uint32_t;
constexpr ModeSet allModes = ~ModeSet{0};

/** One row of an option table. */
struct Option
{
    const char *flag;
    Binder bind;
    const char *help;
    /** Modes where the flag applies; given in any other mode it is
     *  fatal. */
    ModeSet modes = allModes;
};

/** One way a binary runs. */
struct Mode
{
    /** ModeBy::Flag: the flag that selects the mode (the last mode is
     *  the default and its name only describes it in diagnostics).
     *  ModeBy::Word: the leading operand that selects it. */
    const char *name;
    /** Operand names, e.g. "IN.trc OUT.d2t"; the word count is the
     *  number of operands the mode takes. */
    const char *operands = "";
    /** Usage line of a word mode. */
    const char *help = "";
};

/** How parseArgs() picks the mode. */
enum class ModeBy
{
    /** The first mode, in table order, whose flag was given; else the
     *  last mode. */
    Flag,
    /** The first operand names the mode. */
    Word,
};

/** A binary's whole command line. */
struct CliSpec
{
    /** Shown after "usage: PROGRAM ". */
    const char *synopsis;
    /** Paragraph printed under the usage line; may be empty. */
    std::string about;
    std::vector<Option> options;
    std::vector<Mode> modes = {Mode{""}};
    ModeBy modeBy = ModeBy::Flag;
};

/** What parseArgs() found besides the values it stored. */
struct ParsedArgs
{
    std::size_t mode = 0;              ///< index into CliSpec::modes
    std::vector<std::string> operands; ///< mode word excluded
    std::vector<std::string> given;    ///< every flag, in argv order

    bool has(std::string_view flag) const;
};

/** Parse argv against `spec`, storing every value through its binder.
 *  --help/-h prints usageText() and exits 0; every error is fatal. */
ParsedArgs parseArgs(int argc, char **argv, const CliSpec &spec);

/** The usage text: synopsis, about, word modes and the option table. */
std::string usageText(const char *program, const CliSpec &spec);

} // namespace dir2b

#endif // DIR2B_UTIL_PARSE_ARGS_HH
