#include "support/logging.hpp"

#include <cstdio>
#include <vector>

namespace nol {

namespace {

/** logMessage() drops anything below this level. */
constexpr LogLevel kMinLevel = LogLevel::Info;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

std::string
vstrformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return fmt;
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrformat(fmt, ap);
    va_end(ap);
    return out;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    if (static_cast<int>(level) < static_cast<int>(kMinLevel))
        return;
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrformat(fmt, ap);
    va_end(ap);
    logMessage(LogLevel::Warn, msg);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrformat(fmt, ap);
    va_end(ap);
    throw PanicError(msg);
}

} // namespace nol
