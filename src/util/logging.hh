/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a dir2b bug.  Aborts.
 * fatal()  - the *user* asked for something impossible (bad config,
 *            malformed trace).  Exits with status 1.
 * warn()   - something questionable happened but simulation continues.
 * inform() - status messages.
 */

#ifndef DIR2B_UTIL_LOGGING_HH
#define DIR2B_UTIL_LOGGING_HH

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

namespace dir2b
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Get the process-wide log level (default: Warn). */
LogLevel logLevel();

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

/** Callback receiving every DIR2B_DEBUG message. */
using DebugSink = std::function<void(const std::string &)>;

/**
 * Install (or clear, with nullptr) a sink that observes every debug
 * message *in addition to* stderr.  The trace recorder routes protocol
 * chatter through this so a --debug run and its trace tell one story.
 * The sink fires regardless of the log level — attaching one turns
 * debug-message materialisation on without the stderr spam.
 */
void setDebugSink(DebugSink sink);

namespace detail
{

/** Debug level set or a sink installed; setLogLevel() and
 *  setDebugSink() recompute it. */
inline std::atomic<bool> debugOn{false};

/** True when DIR2B_DEBUG must materialise its message at all.  Every
 *  timed message passes this guard, so it is one relaxed load. */
inline bool
debugEnabled()
{
    return debugOn.load(std::memory_order_relaxed);
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace dir2b

/** Abort with a message: an internal dir2b invariant failed. */
#define DIR2B_PANIC(...)                                                    \
    ::dir2b::detail::panicImpl(__FILE__, __LINE__,                          \
                               ::dir2b::detail::concat(__VA_ARGS__))

/** Exit with a message: the user requested something impossible. */
#define DIR2B_FATAL(...)                                                    \
    ::dir2b::detail::fatalImpl(__FILE__, __LINE__,                          \
                               ::dir2b::detail::concat(__VA_ARGS__))

/** Panic unless a condition holds. */
#define DIR2B_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::dir2b::detail::panicImpl(                                     \
                __FILE__, __LINE__,                                         \
                ::dir2b::detail::concat("assertion failed: " #cond " ",    \
                                        ##__VA_ARGS__));                    \
        }                                                                   \
    } while (0)

/** Non-fatal warning, subject to the log level. */
#define DIR2B_WARN(...)                                                     \
    ::dir2b::detail::warnImpl(::dir2b::detail::concat(__VA_ARGS__))

/** Informational message, subject to the log level. */
#define DIR2B_INFORM(...)                                                   \
    ::dir2b::detail::informImpl(::dir2b::detail::concat(__VA_ARGS__))

/** Debug chatter, subject to the log level (or an installed sink).
 *  The guard keeps message materialisation off the hot path when
 *  nobody is listening. */
#define DIR2B_DEBUG(...)                                                    \
    do {                                                                    \
        if (::dir2b::detail::debugEnabled())                                \
            ::dir2b::detail::debugImpl(                                     \
                ::dir2b::detail::concat(__VA_ARGS__));                      \
    } while (0)

#endif // DIR2B_UTIL_LOGGING_HH
