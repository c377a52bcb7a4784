// Warning and error lines on stderr.
//
// Protocol code logs through this instead of writing to streams directly.
// When a simulated clock is registered (the Experiment registers its
// scheduler), every line is stamped with simulated time, so log output lines
// up with trace timestamps.
#pragma once

#include <cstdint>

namespace moonshot {

enum class LogLevel : int { kWarn, kError };

/// Registers a simulated-time source for line stamps: `fn(ctx)` returns
/// nanoseconds of simulated time. Plain function pointer + context so the
/// support layer stays free of upward dependencies (the scheduler lives
/// above it). Null `fn` unstamps. The registration is per-thread, so
/// concurrent worlds each stamp with their own simulated clock.
using LogClockFn = std::int64_t (*)(const void* ctx);
void set_log_clock(LogClockFn fn, const void* ctx);
/// Clears the clock only if `ctx` is still the registered context — lets an
/// owner deregister on destruction without clobbering a successor's clock.
void clear_log_clock(const void* ctx);

/// printf-style logging: one stamped line on stderr.
void log_at(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

#define LOG_WARN(...) ::moonshot::log_at(::moonshot::LogLevel::kWarn, __VA_ARGS__)
#define LOG_ERROR(...) ::moonshot::log_at(::moonshot::LogLevel::kError, __VA_ARGS__)

}  // namespace moonshot
