/**
 * @file
 * Warning and error-termination helpers in the spirit of gem5's
 * base/logging.hh: warn() for suspicious conditions, fatal() for user
 * errors and panic() for internal bugs.
 */
#ifndef NOL_SUPPORT_LOGGING_HPP
#define NOL_SUPPORT_LOGGING_HPP

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace nol {

/** Severity of a log message. */
enum class LogLevel {
    Debug,
    Info,
    Warn,
    Error,
};

/**
 * Error thrown when the *user's* input (source program, configuration,
 * workload parameters) cannot be processed. Analogous to gem5's fatal().
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(std::string msg) : std::runtime_error(std::move(msg)) {}
};

/**
 * Error thrown when an internal invariant is violated — a bug in this
 * library, never the user's fault. Analogous to gem5's panic().
 */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(std::string msg) : std::logic_error(std::move(msg)) {}
};

/** printf-style string formatting into a std::string. */
std::string strformat(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting from a va_list. */
std::string vstrformat(const char *fmt, va_list ap);

/** Emit a message to stderr unless @p level is Debug. */
void logMessage(LogLevel level, const std::string &msg);

/** Something looks off but execution can continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Unrecoverable *user* error: throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Unrecoverable *internal* error: throws PanicError. */
[[noreturn]] void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace nol

/**
 * Assert an internal invariant with a formatted explanation; compiled in
 * all build types because simulation correctness depends on it.
 */
#define NOL_ASSERT(cond, ...)                                                 \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::nol::panic("assertion failed: %s — %s", #cond,                  \
                         ::nol::strformat(__VA_ARGS__).c_str());              \
        }                                                                     \
    } while (false)

#endif // NOL_SUPPORT_LOGGING_HPP
