#include "util/parse_args.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/logging.hh"

namespace dir2b
{

std::uint64_t
parseScaledUint(const char *s, const char *flag, const char *noun)
{
    // strtoull silently accepts a leading '-' (wrapping the value) and
    // clamps out-of-range digits to ULLONG_MAX with errno=ERANGE; both
    // would turn a typo into a near-infinite budget, so reject them
    // explicitly.
    const char *digits = s;
    while (*digits == ' ' || *digits == '\t')
        ++digits;
    if (*digits == '-' || *digits == '+')
        DIR2B_FATAL(flag, ": '", s, "' is not an unsigned ", noun);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s)
        DIR2B_FATAL(flag, ": '", s, "' is not a valid ", noun);
    if (errno == ERANGE)
        DIR2B_FATAL(flag, ": '", s, "' overflows a 64-bit ", noun);
    std::uint64_t mult = 1;
    if (*end == 'k' || *end == 'K')
        mult = 1ULL << 10, ++end;
    else if (*end == 'm' || *end == 'M')
        mult = 1ULL << 20, ++end;
    else if (*end == 'g' || *end == 'G')
        mult = 1ULL << 30, ++end;
    if (*end != '\0')
        DIR2B_FATAL(flag, ": trailing junk in '", s,
                    "' (suffixes: k/K, m/M, g/G)");
    constexpr std::uint64_t limit =
        std::min<std::uint64_t>(std::numeric_limits<std::uint64_t>::max(),
                                std::numeric_limits<std::size_t>::max());
    if (v > limit / mult)
        DIR2B_FATAL(flag, ": '", s, "' overflows size_t (", v,
                    " * ", mult, ")");
    return static_cast<std::uint64_t>(v) * mult;
}

std::uint64_t
parseByteSize(const char *s, const char *flag)
{
    return parseScaledUint(s, flag, "byte count");
}

std::uint64_t
parseInterval(const char *s, const char *flag)
{
    const std::uint64_t v = parseScaledUint(s, flag, "interval");
    if (v == 0)
        DIR2B_FATAL(flag, ": interval must be at least 1");
    return v;
}

std::uint64_t
parseCount(const char *s, const char *flag, std::uint64_t min,
           std::uint64_t max)
{
    const std::uint64_t v = parseScaledUint(s, flag, "count");
    if (v > max)
        DIR2B_FATAL(flag, ": ", v, " exceeds the largest allowed, ", max);
    if (v < min)
        DIR2B_FATAL(flag, ": ", v, " is below the smallest allowed, ", min);
    return v;
}

double
parseReal(const char *s, const char *flag, double lo, double hi)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s)
        DIR2B_FATAL(flag, ": '", s, "' is not a number");
    if (*end != '\0')
        DIR2B_FATAL(flag, ": trailing junk in '", s, "'");
    // Written so that NaN fails too.
    if (!(v >= lo && v <= hi))
        DIR2B_FATAL(flag, ": ", s, " is outside [", lo, ", ", hi, "]");
    return v;
}

namespace arg
{

Binder
on(bool &b)
{
    return {nullptr, [&b](const char *, const char *) { b = true; }};
}

Binder
text(std::string &s, const char *metavar)
{
    return {metavar, [&s](const char *, const char *v) { s = v; }};
}

Binder
texts(std::vector<std::string> &v, const char *metavar)
{
    return {metavar,
            [&v](const char *, const char *s) { v.emplace_back(s); }};
}

Binder
byteSize(std::uint64_t &v)
{
    return {"BYTES", [&v](const char *flag, const char *s) {
                v = parseByteSize(s, flag);
            }};
}

Binder
interval(std::uint64_t &v)
{
    return {"N", [&v](const char *flag, const char *s) {
                v = parseInterval(s, flag);
            }};
}

Binder
real(double &v, double lo, double hi)
{
    return {"F", [&v, lo, hi](const char *flag, const char *s) {
                v = parseReal(s, flag, lo, hi);
            }};
}

Binder
counts(std::vector<std::uint32_t> &v, std::uint64_t min, std::uint64_t max)
{
    return {"LIST", [&v, min, max](const char *flag, const char *s) {
                v.clear();
                const std::string_view list = s;
                for (std::size_t pos = 0;;) {
                    const std::size_t comma = list.find(',', pos);
                    const std::string tok(list.substr(pos, comma - pos));
                    v.push_back(static_cast<std::uint32_t>(
                        parseCount(tok.c_str(), flag, min, max)));
                    if (comma == std::string_view::npos)
                        break;
                    pos = comma + 1;
                }
            }};
}

} // namespace arg

bool
ParsedArgs::has(std::string_view flag) const
{
    return std::find(given.begin(), given.end(), flag) != given.end();
}

namespace
{

constexpr std::size_t helpColumn = 24;
constexpr std::size_t lineWidth = 78;

/** Append `text` word-wrapped at lineWidth, continuation lines
 *  indented to `indent`; the current line already holds `indent`
 *  columns. */
void
appendWrapped(std::string &out, std::size_t indent, std::string_view text)
{
    // Words are never empty, so col > indent once a line holds one.
    std::size_t col = indent;
    std::size_t pos = text.find_first_not_of(' ');
    while (pos != std::string_view::npos) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        const std::string_view word = text.substr(pos, end - pos);
        if (col > indent && col + 1 + word.size() > lineWidth) {
            out += '\n';
            out.append(indent, ' ');
            col = indent;
        }
        if (col > indent) {
            out += ' ';
            ++col;
        }
        out += word;
        col += word.size();
        pos = text.find_first_not_of(' ', end);
    }
    out += '\n';
}

/** One "  LEFT    help" row; a LEFT too wide for the column puts the
 *  help on the next line. */
void
appendRow(std::string &out, const std::string &left, std::string_view help)
{
    out += left;
    if (left.size() >= helpColumn) {
        out += '\n';
        out.append(helpColumn, ' ');
    } else {
        out.append(helpColumn - left.size(), ' ');
    }
    appendWrapped(out, helpColumn, help);
}

std::size_t
wordCount(std::string_view s)
{
    std::size_t n = 0;
    for (std::size_t pos = s.find_first_not_of(' ');
         pos != std::string_view::npos;
         pos = s.find_first_not_of(' ', s.find(' ', pos)))
        ++n;
    return n;
}

const Option *
findOption(const CliSpec &spec, std::string_view flag)
{
    for (const Option &o : spec.options)
        if (flag == o.flag)
            return &o;
    return nullptr;
}

} // namespace

std::string
usageText(const char *program, const CliSpec &spec)
{
    std::string out = "usage: ";
    out += program;
    out += ' ';
    out += spec.synopsis;
    out += '\n';
    if (!spec.about.empty()) {
        out += '\n';
        appendWrapped(out, 0, spec.about);
    }
    if (spec.modeBy == ModeBy::Word) {
        out += "\nmodes:\n";
        for (const Mode &m : spec.modes)
            appendRow(out, std::string("  ") + m.name + " " + m.operands,
                      m.help);
    }
    out += "\noptions:\n";
    for (const Option &o : spec.options) {
        std::string left = std::string("  ") + o.flag;
        if (o.bind.metavar)
            left += std::string(" ") + o.bind.metavar;
        appendRow(out, left, o.help);
    }
    appendRow(out, "  -h, --help", "print this help and exit");
    return out;
}

ParsedArgs
parseArgs(int argc, char **argv, const CliSpec &spec)
{
    ParsedArgs out;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usageText(argv[0], spec).c_str(), stdout);
            std::exit(0);
        }
        if (arg.size() < 2 || arg[0] != '-') {
            out.operands.emplace_back(arg);
            continue;
        }
        const Option *opt = findOption(spec, arg);
        if (!opt)
            DIR2B_FATAL("unknown option '", arg, "' (see --help)");
        const char *value = nullptr;
        if (opt->bind.metavar) {
            if (++i >= argc)
                DIR2B_FATAL("missing value for ", opt->flag);
            value = argv[i];
        }
        opt->bind.store(opt->flag, value);
        out.given.emplace_back(opt->flag);
    }

    if (spec.modeBy == ModeBy::Word) {
        if (out.operands.empty())
            DIR2B_FATAL("no mode given (see --help)");
        const auto it = std::find_if(
            spec.modes.begin(), spec.modes.end(),
            [&](const Mode &m) { return out.operands.front() == m.name; });
        if (it == spec.modes.end())
            DIR2B_FATAL("unknown mode '", out.operands.front(),
                        "' (see --help)");
        out.mode = static_cast<std::size_t>(it - spec.modes.begin());
        out.operands.erase(out.operands.begin());
    } else {
        out.mode = spec.modes.size() - 1;
        for (std::size_t m = 0; m + 1 < spec.modes.size(); ++m) {
            if (out.has(spec.modes[m].name)) {
                out.mode = m;
                break;
            }
        }
    }
    const Mode &mode = spec.modes[out.mode];
    for (const std::string &flag : out.given)
        if (!(findOption(spec, flag)->modes & (ModeSet{1} << out.mode)))
            DIR2B_FATAL(flag, " does not apply to ", mode.name);
    if (out.operands.size() != wordCount(mode.operands)) {
        const std::string where =
            spec.modeBy == ModeBy::Word ? std::string(mode.name) + ": "
                                        : std::string();
        DIR2B_FATAL(where, "expected ",
                    *mode.operands ? mode.operands : "no operands",
                    ", got ", out.operands.size(), " operand(s)");
    }
    return out;
}

} // namespace dir2b
