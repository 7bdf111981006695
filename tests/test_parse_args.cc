/**
 * @file
 * Unit tests for the shared command-line parser (util/parse_args.hh):
 * the K/M/G byte-size grammar shared by --dir-ram-budget /
 * --trace-buffer, the interval variant used by --series-interval (same
 * grammar, zero rejected), the strict count and real parsers, and the
 * option table behind every binary's command line.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/parse_args.hh"

namespace dir2b
{
namespace
{

TEST(ParseByteSize, AcceptsPlainAndSuffixedCounts)
{
    EXPECT_EQ(parseByteSize("0", "--x"), 0u);
    EXPECT_EQ(parseByteSize("4096", "--x"), 4096u);
    EXPECT_EQ(parseByteSize("2K", "--x"), 2048u);
    EXPECT_EQ(parseByteSize("2k", "--x"), 2048u);
    EXPECT_EQ(parseByteSize("3M", "--x"), 3ull << 20);
    EXPECT_EQ(parseByteSize("3m", "--x"), 3ull << 20);
    EXPECT_EQ(parseByteSize("1G", "--x"), 1ull << 30);
    EXPECT_EQ(parseByteSize("1g", "--x"), 1ull << 30);
}

TEST(ParseByteSizeDeath, RejectsGarbageAndTrailingJunk)
{
    EXPECT_DEATH(parseByteSize("fast", "--x"),
                 "not a valid byte count");
    EXPECT_DEATH(parseByteSize("", "--x"), "not a valid byte count");
    EXPECT_DEATH(parseByteSize("12q", "--x"), "trailing junk");
    EXPECT_DEATH(parseByteSize("12kb", "--x"), "trailing junk");
}

TEST(ParseByteSizeDeath, RejectsNegativeCounts)
{
    // strtoull would silently wrap "-1" to ULLONG_MAX.
    EXPECT_DEATH(parseByteSize("-1", "--x"),
                 "not an unsigned byte count");
    EXPECT_DEATH(parseByteSize("  -5k", "--x"),
                 "not an unsigned byte count");
}

TEST(ParseByteSizeDeath, RejectsOverflow)
{
    // More digits than 64 bits hold: strtoull clamps with ERANGE.
    EXPECT_DEATH(parseByteSize("99999999999999999999999", "--x"),
                 "overflows a 64-bit byte count");
    // Fits in 64 bits before the suffix multiply, overflows after.
    EXPECT_DEATH(parseByteSize("18446744073709551615k", "--x"),
                 "overflows size_t");
    EXPECT_DEATH(parseByteSize("18014398509481984g", "--x"),
                 "overflows size_t");
}

TEST(ParseInterval, SharesTheByteSizeGrammar)
{
    EXPECT_EQ(parseInterval("1", "--x"), 1u);
    EXPECT_EQ(parseInterval("4096", "--x"), 4096u);
    EXPECT_EQ(parseInterval("64k", "--x"), 64u << 10);
    EXPECT_EQ(parseInterval("2M", "--x"), 2ull << 20);
}

TEST(ParseIntervalDeath, RejectsZeroAndGarbage)
{
    // A sampler cannot advance by zero references or ticks.
    EXPECT_DEATH(parseInterval("0", "--x"),
                 "interval must be at least 1");
    EXPECT_DEATH(parseInterval("soon", "--x"),
                 "not a valid interval");
    EXPECT_DEATH(parseInterval("-2", "--x"),
                 "not an unsigned interval");
    EXPECT_DEATH(parseInterval("5s", "--x"), "trailing junk");
}

TEST(ParseCountDeath, RejectsJunkAndOutOfRange)
{
    EXPECT_EQ(parseCount("4k", "--n", 1, 1u << 20), 4096u);
    EXPECT_DEATH(parseCount("4x", "--n", 0, 10),
                 "--n: trailing junk in '4x'");
    EXPECT_DEATH(parseCount("11", "--n", 0, 10),
                 "--n: 11 exceeds the largest allowed, 10");
    EXPECT_DEATH(parseCount("0", "--n", 1, 10),
                 "--n: 0 is below the smallest allowed, 1");
}

TEST(ParseRealDeath, RejectsJunkAndOutOfRange)
{
    EXPECT_DOUBLE_EQ(parseReal("0.3", "--q", 0.0, 1.0), 0.3);
    EXPECT_DOUBLE_EQ(parseReal("1", "--q", 0.0, 1.0), 1.0);
    EXPECT_DEATH(parseReal("abc", "--q", 0.0, 1.0),
                 "--q: 'abc' is not a number");
    EXPECT_DEATH(parseReal("", "--q", 0.0, 1.0), "is not a number");
    // A comma decimal stops atof at the comma; here it is junk.
    EXPECT_DEATH(parseReal("0,3", "--q", 0.0, 1.0),
                 "--q: trailing junk in '0,3'");
    EXPECT_DEATH(parseReal("0.3x", "--q", 0.0, 1.0), "trailing junk");
    EXPECT_DEATH(parseReal("1.5", "--q", 0.0, 1.0),
                 "--q: 1.5 is outside \\[0, 1\\]");
    EXPECT_DEATH(parseReal("nan", "--q", 0.0, 1.0), "is outside");
}

/** parseArgs over a vector of arguments (argv[0] = "prog"). */
ParsedArgs
parse(std::vector<std::string> words, const CliSpec &spec)
{
    words.insert(words.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);
    return parseArgs(static_cast<int>(words.size()), argv.data(), spec);
}

/** A small table with two flag-selected modes and one of each binder. */
struct Cli
{
    bool fast = false;
    std::string out;
    std::vector<std::string> tags;
    unsigned n = 7;
    std::uint64_t bytes = 0;
    std::uint64_t every = 0;
    std::vector<std::uint32_t> list;
    double q = 0.5;
    bool timed = false;
    unsigned think = 1;

    CliSpec
    spec()
    {
        return {"[options]",
                "A test command line.",
                {
                    {"--fast", arg::on(fast), "go fast"},
                    {"--out", arg::text(out, "PATH"), "output path"},
                    {"--tag", arg::texts(tags, "T"), "a tag (repeatable)"},
                    {"--n", arg::count(n, 1, 100), "a count"},
                    {"--bytes", arg::byteSize(bytes), "a size"},
                    {"--every", arg::interval(every), "an interval"},
                    {"--list", arg::counts(list, 1, 64), "a count list"},
                    {"--q", arg::real(q, 0.0, 1.0), "a probability"},
                    {"--timed", arg::on(timed), "mode: timed", 1u << 0},
                    {"--think", arg::count(think), "think time", 1u << 0},
                },
                {{"--timed"}, {"a plain run"}}};
    }
};

TEST(ParseArgs, StoresEveryBinderKind)
{
    Cli c;
    const ParsedArgs a = parse(
        {"--fast", "--out", "o.json", "--tag", "x", "--tag", "y", "--n",
         "12", "--bytes", "2k", "--every", "1M", "--list", "2,4,8", "--q",
         "0.25"},
        c.spec());
    EXPECT_TRUE(c.fast);
    EXPECT_EQ(c.out, "o.json");
    EXPECT_EQ(c.tags, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(c.n, 12u);
    EXPECT_EQ(c.bytes, 2048u);
    EXPECT_EQ(c.every, 1u << 20);
    EXPECT_EQ(c.list, (std::vector<std::uint32_t>{2, 4, 8}));
    EXPECT_DOUBLE_EQ(c.q, 0.25);
    EXPECT_EQ(a.mode, 1u);
    EXPECT_TRUE(a.has("--tag"));
    EXPECT_FALSE(a.has("--think"));
    EXPECT_TRUE(a.operands.empty());
}

TEST(ParseArgs, ModeFlagSelectsModeAndItsFlags)
{
    Cli c;
    const ParsedArgs a = parse({"--think", "3", "--timed"}, c.spec());
    EXPECT_EQ(a.mode, 0u);
    EXPECT_EQ(c.think, 3u);
}

TEST(ParseArgsDeath, RejectsMalformedCommandLines)
{
    Cli c;
    EXPECT_DEATH(parse({"--n"}, c.spec()), "missing value for --n");
    EXPECT_DEATH(parse({"--bogus"}, c.spec()),
                 "unknown option '--bogus'");
    EXPECT_DEATH(parse({"--n", "4x"}, c.spec()),
                 "--n: trailing junk in '4x'");
    EXPECT_DEATH(parse({"--n", "0"}, c.spec()),
                 "--n: 0 is below the smallest allowed, 1");
    EXPECT_DEATH(parse({"--n", "101"}, c.spec()),
                 "--n: 101 exceeds the largest allowed, 100");
    EXPECT_DEATH(parse({"--q", "0,3"}, c.spec()),
                 "--q: trailing junk in '0,3'");
    EXPECT_DEATH(parse({"--list", "2,,4"}, c.spec()),
                 "--list: '' is not a valid count");
    EXPECT_DEATH(parse({"--think", "3"}, c.spec()),
                 "fatal: --think does not apply to a plain run");
    EXPECT_DEATH(parse({"stray"}, c.spec()),
                 "expected no operands, got 1 operand");
}

TEST(ParseArgsDeath, WordModesCountTheirOperands)
{
    bool blocks = false;
    const CliSpec spec{"MODE ...",
                       "",
                       {{"--blocks", arg::on(blocks), "list blocks",
                         1u << 1}},
                       {{"pack", "IN OUT"}, {"info", "FILE"}},
                       ModeBy::Word};
    const ParsedArgs a = parse({"info", "f.d2t", "--blocks"}, spec);
    EXPECT_EQ(a.mode, 1u);
    EXPECT_EQ(a.operands, (std::vector<std::string>{"f.d2t"}));
    EXPECT_TRUE(blocks);
    EXPECT_DEATH(parse({"pack", "in"}, spec),
                 "pack: expected IN OUT, got 1 operand");
    EXPECT_DEATH(parse({"pack", "in", "out", "--blocks"}, spec),
                 "--blocks does not apply to pack");
    EXPECT_DEATH(parse({"unzip", "f"}, spec), "unknown mode 'unzip'");
    EXPECT_DEATH(parse({}, spec), "no mode given");
}

TEST(ParseArgs, UsageListsEveryEntry)
{
    Cli c;
    const CliSpec spec = c.spec();
    const std::string text = usageText("prog", spec);
    EXPECT_EQ(text.rfind("usage: prog [options]\n", 0), 0u);
    EXPECT_NE(text.find("A test command line."), std::string::npos);
    for (const Option &o : spec.options) {
        std::string left = o.flag;
        if (o.bind.metavar)
            left += std::string(" ") + o.bind.metavar;
        EXPECT_NE(text.find("  " + left + " "), std::string::npos) << left;
        EXPECT_NE(text.find(o.help), std::string::npos) << o.help;
    }
    EXPECT_NE(text.find("-h, --help"), std::string::npos);
}

TEST(ParseArgsDeath, HelpPrintsUsageAndExitsZero)
{
    Cli c;
    EXPECT_EXIT(parse({"--n", "3", "--help"}, c.spec()),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"-h"}, c.spec()), ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace dir2b
