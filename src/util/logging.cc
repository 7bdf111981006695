#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace dir2b
{

namespace
{

LogLevel globalLevel = LogLevel::Warn;
DebugSink globalDebugSink;

void
updateDebugOn()
{
    detail::debugOn.store(globalLevel >= LogLevel::Debug ||
                              static_cast<bool>(globalDebugSink),
                          std::memory_order_relaxed);
}

} // namespace

LogLevel
logLevel()
{
    return globalLevel;
}

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
    updateDebugOn();
}

void
setDebugSink(DebugSink sink)
{
    globalDebugSink = std::move(sink);
    updateDebugOn();
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (globalLevel >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (globalLevel >= LogLevel::Inform)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    if (globalLevel >= LogLevel::Debug)
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
    if (globalDebugSink)
        globalDebugSink(msg);
}

} // namespace detail

} // namespace dir2b
