#include "support/log.hpp"

#include <cstdarg>
#include <cstdio>

namespace moonshot {

namespace {
// The log clock is thread-confined: each Experiment registers its own
// scheduler on the thread that runs it, so concurrent worlds stamp their
// lines with their own simulated time instead of racing on one global.
thread_local LogClockFn g_clock_fn = nullptr;
thread_local const void* g_clock_ctx = nullptr;
}  // namespace

void set_log_clock(LogClockFn fn, const void* ctx) {
  g_clock_fn = fn;
  g_clock_ctx = fn ? ctx : nullptr;
}

void clear_log_clock(const void* ctx) {
  if (g_clock_ctx == ctx) {
    g_clock_fn = nullptr;
    g_clock_ctx = nullptr;
  }
}

void log_at(LogLevel level, const char* fmt, ...) {
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, args);
  va_end(args);

  const char* name = level == LogLevel::kWarn ? "WARN " : "ERROR";
  if (g_clock_fn) {
    const double secs = static_cast<double>(g_clock_fn(g_clock_ctx)) / 1e9;
    std::fprintf(stderr, "[%10.6fs] [%s] %s\n", secs, name, msg);
  } else {
    std::fprintf(stderr, "[%s] %s\n", name, msg);
  }
}

}  // namespace moonshot
